import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from paritylab.chains import (alternating_block, build_hamiltonian, dot_impurity,
                              homogeneous, place_pattern, single_impurity)
from paritylab.fock import (MAX_SITES, amplitude_matrix, fock_entropy, fock_fluctuation,
                            fock_region_observables, ground_state_fock,
                            sector_hamiltonian)
from paritylab.observables import Region, region_observables
from paritylab.spectral import (DegenerateFermiLevelError, correlation_matrix,
                                diagonalize, half_filling, mirror_axis)
from paritylab.sweeps import measure


def _random_spec(rng):
    n = int(rng.choice([6, 8]))
    kind = rng.integers(3)
    bond = int(rng.integers(1, n - 2))
    ratio = float(rng.uniform(0.3, 1.8))
    if kind == 0:
        pattern = single_impurity(ratio, bond)
    elif kind == 1:
        pattern = dot_impurity(ratio, bond)
    else:
        pattern = alternating_block(ratio, 1, 2)
    return place_pattern(pattern, n)


def _loop_sector_hamiltonian(spec, n_particles):
    # reference: one state and one hop at a time, the sign from bit counts
    n = spec.n_sites
    basis = sorted(sum(1 << i for i in occ)
                   for occ in combinations(range(n), n_particles))
    index = {s: i for i, s in enumerate(basis)}
    h1 = build_hamiltonian(spec)
    h = np.zeros((len(basis), len(basis)))
    for col, state in enumerate(basis):
        for a in range(n):
            for b in range(n):
                if a == b or h1[a, b] == 0.0 or not state >> b & 1 or state >> a & 1:
                    continue
                lo, hi = min(a, b), max(a, b)
                between = state & ((1 << hi) - (1 << (lo + 1)))
                sign = -1 if bin(between).count("1") % 2 else 1
                h[index[state & ~(1 << b) | (1 << a)], col] += h1[a, b] * sign
    return np.array(basis), h


def _assert_matches_correlation_route(spec, region, n_particles=None):
    n_particles = half_filling(spec) if n_particles is None else n_particles
    s_fock, f_fock = fock_region_observables(spec, n_particles, region)
    obs = region_observables(correlation_matrix(diagonalize(spec), n_particles), region)
    assert s_fock == pytest.approx(obs.entropy, abs=1e-10)
    assert f_fock == pytest.approx(obs.fluctuation, abs=1e-10)


def test_sparse_sector_matches_loop_reference():
    rng = np.random.default_rng(3)
    specs = [_random_spec(rng) for _ in range(6)]
    specs += [place_pattern(dot_impurity(0.6, 3), 6, boundary="periodic"),
              place_pattern(single_impurity(1.4, 7), 7, boundary="periodic"),
              homogeneous(2, boundary="periodic")]
    for spec in specs:
        for n_particles in range(spec.n_sites + 1):
            basis, h_ref = _loop_sector_hamiltonian(spec, n_particles)
            state = ground_state_fock(spec, n_particles)
            assert np.array_equal(state.basis, basis)
            assert np.array_equal(sector_hamiltonian(spec, state.basis).toarray(), h_ref)
            energies = np.linalg.eigvalsh(h_ref)
            assert state.energy == pytest.approx(energies[0], abs=1e-12)
            if basis.size > 1:
                assert state.gap == pytest.approx(energies[1] - energies[0], abs=1e-12)


def test_lanczos_is_repeatable():
    spec = place_pattern(alternating_block(0.7, 2, 3), 10)
    first, second = ground_state_fock(spec, 5), ground_state_fock(spec, 5)
    assert np.array_equal(first.amplitudes, second.amplitudes)
    assert first.energy == second.energy and first.gap == second.gap


def test_ground_energy_fills_lowest_orbitals():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = _random_spec(rng)
        n_half = half_filling(spec)
        state = ground_state_fock(spec, n_half)
        energies, _ = diagonalize(spec)
        orbital_sum = float(np.sort(energies)[:n_half].sum())
        assert state.energy == pytest.approx(orbital_sum, abs=1e-10)
        assert state.gap > 0
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def _signed_reduced_density_matrix(state, region):
    # reference: the amplitude matrix of each state carries the fermion sign
    # (-1)^(n_left * n_region) of moving the sites left of the region past it
    region_mask = ((1 << region.length) - 1) << (region.first - 1)
    left_mask = (1 << (region.first - 1)) - 1
    rows = sorted({int(b) & region_mask for b in state.basis})
    cols = sorted({int(b) & ~region_mask for b in state.basis})
    m = np.zeros((len(rows), len(cols)))
    flipped = 0
    for bits, amplitude in zip(state.basis, state.amplitudes):
        bits = int(bits)
        n_region = bin(bits & region_mask).count("1")
        n_left = bin(bits & left_mask).count("1")
        sign = -1.0 if n_region * n_left % 2 else 1.0
        flipped += sign < 0
        m[rows.index(bits & region_mask), cols.index(bits & ~region_mask)] = sign * amplitude
    return m @ m.T, flipped


def test_reduced_density_matrix_is_a_state():
    spec = place_pattern(single_impurity(0.7, 3), 8)
    state = ground_state_fock(spec, 4)
    m = amplitude_matrix(state, Region(2, 4))
    rho = m @ m.T
    assert rho.shape == (16, 16)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    with pytest.raises(ValueError):
        amplitude_matrix(state, Region(6, 4))
    with pytest.raises(ValueError):
        fock_fluctuation(state, Region(6, 4))

    # the fermion sign (-1)^(n_left * n_region) is constant down each column
    # of the amplitude matrix at fixed particle number, so rho_A comes out
    # bit for bit the same without it
    flipped = 0
    for spec, fillings in (
            (place_pattern(single_impurity(0.7, 3), 8), (2, 3, 4, 5)),
            (place_pattern(dot_impurity(0.4, 4), 9), (3, 4)),
            (place_pattern(single_impurity(0.6, 4), 8, "periodic"), (3, 5))):
        for n_particles in fillings:
            state = ground_state_fock(spec, n_particles)
            for region in (Region(2, 3), Region(3, 4), Region(5, 3)):
                ref, count = _signed_reduced_density_matrix(state, region)
                m = amplitude_matrix(state, region)
                assert np.array_equal(m @ m.T, ref)
                flipped += count
                # the Schmidt weights against the spectrum of rho_A
                p = np.linalg.eigvalsh(ref)
                p = p[p > 1e-16]
                assert fock_entropy(m) == pytest.approx(-np.sum(p * np.log(p)), abs=1e-13)
    assert flipped > 0


def test_entropy_equals_complement_entropy():
    spec = place_pattern(dot_impurity(0.4, 4), 8)
    state = ground_state_fock(spec, 4)
    s_left = fock_entropy(amplitude_matrix(state, Region(1, 3)))
    s_right = fock_entropy(amplitude_matrix(state, Region(4, 5)))
    assert s_left == pytest.approx(s_right, abs=1e-12)


def test_fock_entropy_rejects_unphysical_matrix():
    # Schmidt weights 2.25 and 0.25
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="Schmidt weights"):
        fock_entropy(bad)
    assert fock_entropy(np.diag([0.5, 0.5]) ** 0.5) == pytest.approx(np.log(2.0))
    assert fock_entropy(np.diag([1.0, 0.0])) == 0.0


def test_matches_correlation_route():
    # the free-fermion determinant shortcut against the full many-body trace
    rng = np.random.default_rng(19)
    for _ in range(10):
        spec = _random_spec(rng)
        n_half = half_filling(spec)
        first = int(rng.integers(1, spec.n_sites - 2))
        length = int(rng.integers(1, spec.n_sites - first))
        region = Region(first, length)
        s_fock, f_fock = fock_region_observables(spec, n_half, region)
        g = correlation_matrix(diagonalize(spec), n_half)
        obs = region_observables(g, region)
        assert s_fock == pytest.approx(obs.entropy, abs=1e-10)
        assert f_fock == pytest.approx(obs.fluctuation, abs=1e-10)
    largest = place_pattern(single_impurity(0.6, 5), MAX_SITES)
    _assert_matches_correlation_route(largest, Region(1, 5))
    _assert_matches_correlation_route(largest, Region(4, 7))


def test_matches_correlation_route_on_ring():
    # half filling is degenerate on the clean 8-site ring; the defect opens it
    _assert_matches_correlation_route(
        place_pattern(single_impurity(0.6, 2), 8, boundary="periodic"), Region(3, 4))
    largest = place_pattern(dot_impurity(0.5, 4), MAX_SITES, boundary="periodic")
    assert mirror_axis(largest.bond_ratios()) is not None
    _assert_matches_correlation_route(largest, Region(1, 4))
    _assert_matches_correlation_route(largest, Region(3, 7))


def test_matches_half_filled_route():
    # sweeps.measure, the route every sweep takes, on every region [1, l] of
    # open chains and bond-centred rings whose regions reach the torn, end
    # and whole-sector routes.  A pure state at fixed particle number gives
    # a region and its complement the same S and F, so Fock takes the
    # shorter of the two: a 14-site region would need a 3432 x 3432 rho_A
    specs = []
    for n in range(6, 15, 2):
        specs += [homogeneous(n), place_pattern(single_impurity(0.6, 3), n),
                  place_pattern(alternating_block(0.5, n // 2 - 2, 3), n)]
    for n in (6, 10, 14):
        specs += [homogeneous(n, "periodic"),
                  place_pattern(single_impurity(0.6, 2), n, "periodic"),
                  place_pattern(single_impurity(1.7, n), n, "periodic"),
                  place_pattern(alternating_block(0.5, n // 2 - 2, 3), n, "periodic")]
    for spec in specs:
        n = spec.n_sites
        state = ground_state_fock(spec, half_filling(spec))
        for length in range(1, n + 1):
            s, f = measure(spec, length)
            if length == n:
                s_fock = f_fock = 0.0
            else:
                shorter = Region(1, length) if 2 * length <= n else Region(length + 1, n - length)
                s_fock = fock_entropy(amplitude_matrix(state, shorter))
                f_fock = fock_fluctuation(state, shorter)
            assert s == pytest.approx(s_fock, abs=1e-12)
            assert f == pytest.approx(f_fock, abs=1e-12)


def test_away_from_half_filling():
    spec = place_pattern(single_impurity(0.8, 2), 6)
    for n_particles in (1, 2, 4):
        state = ground_state_fock(spec, n_particles)
        g = correlation_matrix(diagonalize(spec), n_particles)
        obs = region_observables(g, Region(1, 3))
        m = amplitude_matrix(state, Region(1, 3))
        assert fock_entropy(m) == pytest.approx(obs.entropy, abs=1e-10)
        assert fock_fluctuation(state, Region(1, 3)) == pytest.approx(
            obs.fluctuation, abs=1e-10)


def test_degenerate_sector_raises():
    ring = homogeneous(8, boundary="periodic")
    with pytest.raises(DegenerateFermiLevelError):
        ground_state_fock(ring, 4)
    # a non-degenerate filling of the same ring is fine
    assert ground_state_fock(ring, 1).gap > 0
    # L = 0 mod 4 rings keep a pair of zero modes while the odd and even
    # bonds have equal hopping products, as a clean ring and a dot do
    for spec in (homogeneous(12, boundary="periodic"),
                 place_pattern(dot_impurity(0.5, 6), 12, boundary="periodic")):
        with pytest.raises(DegenerateFermiLevelError):
            ground_state_fock(spec, 6)


def test_smallest_sectors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (homogeneous(2), place_pattern(single_impurity(0.5, 1), 3)):
            energies, _ = diagonalize(spec)
            state = ground_state_fock(spec, 1)
            assert state.basis.size == spec.n_sites
            assert state.energy == pytest.approx(energies[0], abs=1e-12)
            assert state.gap == pytest.approx(energies[1] - energies[0], abs=1e-12)
            _assert_matches_correlation_route(spec, Region(1, 1), 1)


def test_solver_failures_name_the_chain(monkeypatch):
    spec = place_pattern(single_impurity(0.6, 5), 10)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                  np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(np.linalg.LinAlgError, match="10x10 chain"):
        ground_state_fock(spec, 5)

    def inexact(h, **kwargs):
        energies, vectors = np.linalg.eigh(h.toarray())
        vectors[0, :2] += 1e-6
        return energies[:2], vectors[:, :2]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", inexact)
    with pytest.raises(np.linalg.LinAlgError, match="residual .* 10x10 chain"):
        ground_state_fock(spec, 5)


def test_size_and_filling_guards():
    with pytest.raises(ValueError):
        ground_state_fock(homogeneous(MAX_SITES + 2), 4)
    spec = homogeneous(6)
    with pytest.raises(ValueError):
        ground_state_fock(spec, -1)
    with pytest.raises(ValueError):
        ground_state_fock(spec, 7)


def test_full_and_empty_sectors_are_product_states():
    spec = place_pattern(single_impurity(0.5, 2), 6)
    for n_particles in (0, 6):
        state = ground_state_fock(spec, n_particles)
        m = amplitude_matrix(state, Region(2, 3))
        assert fock_entropy(m) == pytest.approx(0.0, abs=1e-14)
        assert fock_fluctuation(state, Region(2, 3)) == pytest.approx(0.0, abs=1e-14)
