import ctypes
import math

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paritylab import spectral
from paritylab.chains import (ChainSpec, alternating_block, build_hamiltonian,
                              dot_impurity, homogeneous, place_pattern,
                              single_impurity)
from paritylab.observables import Region, region_observables
from paritylab.spectral import (DegenerateFermiLevelError, correlation_matrix,
                                diagonalize, half_filled_block, half_filling,
                                mirror_axis, sublattice_singular_values)
from paritylab.sweeps import measure, pair_specs


def test_open_chain_spectrum_analytic():
    # standing waves: E_k = -2 J cos(pi k / (n+1))
    n = 9
    energies, _ = diagonalize(homogeneous(n))
    expected = sorted(-2.0 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1))
    assert np.allclose(energies, expected, atol=1e-12)


def test_ring_spectrum_analytic():
    for n in (3, 12):
        energies, _ = diagonalize(homogeneous(n, "periodic"))
        expected = sorted(-2.0 * math.cos(2.0 * math.pi * m / n) for m in range(n))
        assert np.allclose(energies, expected, atol=1e-12)


def test_orbitals_orthonormal():
    _, orbitals = diagonalize(ChainSpec(10, "open", ((3, 0.5), (7, 1.7))))
    overlap = orbitals.T @ orbitals
    assert np.allclose(overlap, np.eye(10), atol=1e-12)


def test_correlation_matrix_is_projector():
    spec = ChainSpec(12, "open", ((4, 0.6),))
    g = correlation_matrix(diagonalize(spec), 6)
    assert np.allclose(g, g.T, atol=1e-13)
    assert np.trace(g) == pytest.approx(6.0, abs=1e-12)
    assert np.allclose(g @ g, g, atol=1e-12)


def test_correlation_matrix_rejects_degenerate_fermi_level():
    # clean 8-ring: doubly degenerate zero level right at half filling
    eigenpairs = diagonalize(homogeneous(8, "periodic"))
    with pytest.raises(DegenerateFermiLevelError):
        correlation_matrix(eigenpairs, 4)
    correlation_matrix(eigenpairs, 3)
    # a NaN gap is no gap
    with pytest.raises(DegenerateFermiLevelError):
        spectral._check_gap(float("nan"), 1.0, 1, 2)


def test_correlation_matrix_rejects_degenerate_fermi_level_on_open_chain():
    # a vanishing middle bond leaves two identical 5-site halves whose
    # zero modes are degenerate at half filling
    spec = ChainSpec(10, "open", ((5, 1e-15),))
    eigenpairs = diagonalize(spec)
    with pytest.raises(DegenerateFermiLevelError):
        correlation_matrix(eigenpairs, 5)
    correlation_matrix(eigenpairs, 4)
    with pytest.raises(DegenerateFermiLevelError):
        measure(spec, 4)


def _random_pattern(rng, n_bonds):
    ratio = float(np.exp(rng.uniform(np.log(0.2), np.log(4.0))))
    kind = int(rng.integers(3))
    if kind == 0:
        return single_impurity(ratio, int(rng.integers(1, n_bonds + 1)))
    if kind == 1:
        return dot_impurity(ratio, int(rng.integers(1, n_bonds)))
    n_imp = int(rng.integers(1, 6))
    return alternating_block(ratio, int(rng.integers(1, n_bonds - 2 * n_imp + 3)), n_imp)


def _random_open_chain(rng):
    n = int(rng.choice([12, 40, 150, 400, 1000]))
    return place_pattern(_random_pattern(rng, n - 1), n)


def _random_rings(rng):
    """Mirror-symmetric rings of 2 mod 4 sites, patterns anywhere, the wrap
    bond n included, and one ring with no mirror axis."""
    rings = []
    for _ in range(16):
        n = int(rng.choice([14, 42, 150, 402, 1002]))
        rings.append(place_pattern(_random_pattern(rng, n), n, "periodic"))
    for n in (42, 402):
        ratio = float(np.exp(rng.uniform(np.log(0.2), np.log(4.0))))
        for pattern in (single_impurity(ratio, n), dot_impurity(ratio, n - 1),
                        alternating_block(ratio, n - 4, 3)):
            rings.append(place_pattern(pattern, n, "periodic"))
    rings.append(ChainSpec(150, "periodic", ((7, 0.5), (150, 0.5), (40, 1.7))))
    return rings


def _refused_ring(spec):
    """A ring with no mirror axis through two bonds, which `half_filled_block`
    refuses: assert that it does."""
    axis = mirror_axis(spec.bond_ratios())
    if spec.boundary == "open" or (axis is not None and axis % 2):
        return False
    with pytest.raises(ValueError, match="no mirror axis through two bonds"):
        measure(spec, 1)
    return True


def _check_against_dense(spec, rng):
    n = spec.n_sites
    if n % 2 or _refused_ring(spec):
        return
    energies, orbitals = np.linalg.eigh(build_hamiltonian(spec))
    filled = orbitals[:, :half_filling(spec)]
    g_dense = filled @ filled.T
    is_open = spec.boundary == "open"
    if is_open:
        _check_sublattice_svd(spec, energies)
    first = int(rng.integers(1, n))
    lengths = [int(rng.integers(1, n + 1)), first - 1 + int(rng.integers(1, n - first + 2))]
    # an odd region has one unpaired mode at 1/2
    for length in (*lengths, 2 * (first // 2) + 1, n):
        ref = region_observables(g_dense, Region(1, length))
        s, f = measure(spec, length)
        assert s == pytest.approx(ref.entropy, abs=1e-9)
        assert f == pytest.approx(ref.fluctuation, abs=1e-9)
        if is_open:
            s_svd, f_svd = _observables(_dbdsdc_block(spec, length))
            assert s == pytest.approx(s_svd, abs=1e-9)
            assert f == pytest.approx(f_svd, abs=1e-9)
    with pytest.raises(ValueError, match=f"chain has {n}"):
        measure(spec, n + 1)


# (uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info)
_dbdsdc = spectral._lapack_symbol("dbdsdc", 14)
# (icompq, nl, nr, sqre, nrhs, b, ldb, bx, ldbx, perm, givptr, givcol, ldgcol,
#  givnum, ldgnum, poles, difl, difr, z, k, c, s, work, info)
_dlals0 = spectral._lapack_symbol("dlals0", 24)


def _bidiagonal_svd(spec):
    """B = U diag(sigma) V^T by LAPACK's whole bidiagonal divide and conquer
    ``dbdsdc``, B lower bidiagonal with rows on the odd sites of an open
    chain: sigma descending, U and V^T as n x n arrays."""
    hoppings = -spec.bond_ratios()
    sigma = hoppings[0::2].copy()
    n = sigma.size
    e = np.zeros(n)
    e[:n - 1] = hoppings[1::2]
    u = np.empty((n, n), order="F")
    vt = np.empty((n, n), order="F")
    unused = np.zeros(1)
    spectral._lapack(_dbdsdc, "bdsdc", spec.n_sites, b"L", b"I", n, sigma, e, u, n, vt, n,
                     unused, unused, np.empty(3 * n * n + 4 * n),
                     np.empty(8 * n, dtype=np.intc))
    return sigma, u, vt


def _dbdsdc_block(spec, region_len):
    """Q_A = U[:a] V^T[:, :b] of an open chain from the whole SVD of B: the
    oracle for the torn route of `half_filled_block`."""
    _, u, vt = _bidiagonal_svd(spec)
    return u[:(region_len + 1) // 2] @ vt[:, :region_len // 2]


def _observables(q_a):
    """S and F of a half-filled region from its sublattice block, apart
    from `observables.sublattice_occupations`: each singular value sigma of
    Q_A is a pair of modes nu = (1 -+ sigma)/2, which add -[nu ln nu + (1 -
    nu) ln(1 - nu)] to S and nu (1 - nu) to F, and each row or column past
    Q_A's shorter side an unpaired mode at 1/2, adding ln 2 and 1/4."""
    sigma = np.clip(np.linalg.svd(q_a, compute_uv=False), 0.0, 1.0)
    unpaired = abs(q_a.shape[0] - q_a.shape[1])
    low, high = (1.0 - sigma) / 2.0, (1.0 + sigma) / 2.0
    mixed = low > 0.0
    pairs = low[mixed] * np.log(low[mixed]) + high[mixed] * np.log(high[mixed])
    return (-2.0 * np.sum(pairs) + unpaired * math.log(2.0),
            2.0 * np.sum(low * high) + unpaired / 4.0)


def _check_sublattice_svd(spec, energies):
    # B couples odd sites (rows) to even sites (columns); H has energies -+sigma
    sigma, u, vt = _bidiagonal_svd(spec)
    n = sigma.size
    assert np.abs(u.T @ u - np.eye(n)).max() <= 5e-14
    assert np.abs(vt @ vt.T - np.eye(n)).max() <= 5e-14
    assert np.abs(sigma[::-1] - energies[n:]).max() <= 1e-9
    assert np.abs(sublattice_singular_values(spec) - energies[n:]).max() <= 1e-9


def test_open_chain_route_matches_dense_oracle():
    rng = np.random.default_rng(1981)
    for _ in range(24):
        _check_against_dense(_random_open_chain(rng), rng)
    *symmetric, asymmetric = _random_rings(rng)
    # odd rings have an on-axis site opposite an on-axis bond; no half filling
    symmetric += [place_pattern(_random_pattern(rng, n), n, "periodic")
                  for n in (9, 51, 301)]
    assert all(mirror_axis(r.bond_ratios()) is not None for r in symmetric)
    assert mirror_axis(asymmetric.bond_ratios()) is None
    for spec in symmetric + [asymmetric]:
        _check_against_dense(spec, rng)


def _check_every_region(spec):
    """S and F of every region [1, l], l = 1..L, against the dense
    correlation matrix and, for open chains up to L = 16, the whole-SVD
    oracle; a ring with no mirror axis through two bonds is refused."""
    if _refused_ring(spec):
        return
    _, orbitals = np.linalg.eigh(build_hamiltonian(spec))
    filled = orbitals[:, :half_filling(spec)]
    g_dense = filled @ filled.T
    for length in range(1, spec.n_sites + 1):
        ref = region_observables(g_dense, Region(1, length))
        s, f = measure(spec, length)
        assert s == pytest.approx(ref.entropy, abs=1e-9)
        assert f == pytest.approx(ref.fluctuation, abs=1e-9)
        if spec.boundary == "open" and spec.n_sites <= 16:
            s_svd, f_svd = _observables(_dbdsdc_block(spec, length))
            assert s == pytest.approx(s_svd, abs=1e-9)
            assert f == pytest.approx(f_svd, abs=1e-9)


def test_open_chain_every_region_on_short_chains():
    # the clean chain and every pattern position at a weak and a strong
    # ratio, with the tear's edges: no row on one side (l = 1, L - 2,
    # L - 1, L) and chains of fewer than 6 sites
    for n in range(2, 17, 2):
        specs = [homogeneous(n)]
        for ratio in (0.3, 4.0):
            for bond in range(1, n):
                specs.append(place_pattern(single_impurity(ratio, bond), n))
                if bond + 1 < n:
                    specs.append(place_pattern(dot_impurity(ratio, bond), n))
                if bond + 4 < n:
                    specs.append(place_pattern(alternating_block(ratio, bond, 3), n))
        for spec in specs:
            _check_every_region(spec)


@st.composite
def _chains(draw, boundary):
    """Open chains of up to 300 sites, or rings of 2 mod 4 sites up to 298,
    with one single, dot or 3-/5-bond pattern anywhere (on a ring the wrap
    bond L included) at a ratio in [0.2, 4]."""
    kind = draw(st.sampled_from(["single", "dot", "alternating"]))
    n_imp = draw(st.sampled_from([3, 5])) if kind == "alternating" else 1
    span = {"single": 1, "dot": 2}.get(kind, 2 * n_imp - 1)  # bonds the pattern covers
    if boundary == "open":
        n = 2 * draw(st.integers(span // 2 + 1, 150))
    else:
        n = 4 * draw(st.integers(span // 4 + 1, 74)) + 2
    ratio = draw(st.floats(0.2, 4.0))
    anchor = draw(st.integers(1, n - span + (boundary == "periodic")))
    if kind == "single":
        pattern = single_impurity(ratio, anchor)
    elif kind == "dot":
        pattern = dot_impurity(ratio, anchor)
    else:
        pattern = alternating_block(ratio, anchor, n_imp)
    return place_pattern(pattern, n, boundary)


# hypothesis seeds a derandomized test from its source, so the open-chain
# test keeps calling this name and drawing the same chains
def _open_chains():
    return _chains("open")


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(_open_chains())
# the clean halves torn at l = 20 have tied singular values
# (cos 7 pi / 21 = cos 60 pi / 180)
@example(place_pattern(single_impurity(0.8, 20), 200))
@example(place_pattern(dot_impurity(0.5, 20), 200))
# a strong border bond binds a state at each end of a torn half
@example(place_pattern(single_impurity(4.0, 100), 200))
@example(place_pattern(alternating_block(4.0, 92, 5), 200))
def test_open_chain_every_region_matches_dense(spec):
    _check_every_region(spec)


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(_chains("periodic"))
# the clean sector's two halves have tied eigenvalues, which the merge
# deflates by rotation
@example(homogeneous(202, "periodic"))
# a strong bond binds a state at the tear for l <= 3, which later tears
# leave with a vanishing merge component
@example(place_pattern(single_impurity(4.0, 2), 202, "periodic"))
# the wrap bond's axis puts site 1 on the sector's last row: the sector is
# reversed before it is torn
@example(place_pattern(single_impurity(0.5, 202), 202, "periodic"))
# the defect sits on the far on-axis bond, in the rest: no tear
@example(place_pattern(single_impurity(0.7, 102), 202, "periodic"))
def test_ring_every_region_matches_dense(spec):
    _check_every_region(spec)


def test_wrap_bond_ring_is_torn_from_the_region_side(monkeypatch):
    # site 1 lies on the mirror sector's last row, so only the reversed
    # sector leaves a short region's rows before a tear
    spec = place_pattern(single_impurity(0.7, 202), 202, "periodic")
    _, orbitals = np.linalg.eigh(build_hamiltonian(spec))
    filled = orbitals[:, :half_filling(spec)]
    g_dense = filled @ filled.T
    real = spectral._dlaed8
    merges = []

    def counted(*pointers):
        merges.append(pointers)
        real(*pointers)

    monkeypatch.setattr(spectral, "_dlaed8", counted)
    for length in range(1, spec.n_sites // 4 + 1):
        merges.clear()
        s, f = measure(spec, length)
        assert len(merges) == 1
        ref = region_observables(g_dense, Region(1, length))
        assert s == pytest.approx(ref.entropy, abs=1e-9)
        assert f == pytest.approx(ref.fluctuation, abs=1e-9)


def test_torn_route_rejects_degenerate_fermi_level():
    # two identical 5-site halves: their zero modes meet at the Fermi level
    spec = ChainSpec(10, "open", ((5, 1e-15),))
    for length in range(1, 11):
        with pytest.raises(DegenerateFermiLevelError, match="filling 5 of 10"):
            half_filled_block(spec, length)


def test_missing_lapack_routine_names_itself():
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} does not export "
                                          "LAPACK dlaedx"):
        spectral._lapack_symbol("dlaedx", 1)


def _lapack_fails(*pointers):
    # the last argument points at LAPACK's info
    ctypes.c_int.from_address(pointers[-1]).value = 3


@pytest.mark.parametrize("spec, solve, routine", [
    pytest.param(homogeneous(14), diagonalize, "eigh", id="open"),
    pytest.param(homogeneous(14), lambda spec: half_filled_block(spec, 7), "lasd6",
                 id="open-half-filled"),
    # a clean chain's end block takes the closed form; this one's first bond
    # from the far end has a defect, so its `_segment` reaches dlasdq
    pytest.param(ChainSpec(14, "open", ((13, 0.5),)), lambda spec: half_filled_block(spec, 13),
                 "lasdq", id="open-half-filled-end"),
    pytest.param(homogeneous(14), sublattice_singular_values, "lasdq",
                 id="sublattice-singular-values"),
    pytest.param(homogeneous(14, "periodic"), diagonalize, "eigh", id="periodic"),
    pytest.param(homogeneous(14, "periodic"), lambda spec: half_filled_block(spec, 7),
                 "stevd", id="periodic-half-filled"),
    # no mirror axis: the dense route
    pytest.param(ChainSpec(14, "periodic", ((2, 0.5), (5, 0.7))), diagonalize, "eigh",
                 id="asymmetric-ring"),
])
def test_solver_failure_names_chain_size(spec, solve, routine, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    for name in ("_dstevd", "_dlasdq", "_dlasd6", "_dlaed8", "_dlaed9"):
        monkeypatch.setattr(spectral, name, _lapack_fails)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed on 14x14 chain"):
        solve(spec)


@pytest.mark.parametrize("routine", ["lasdq", "lasd6"])
def test_torn_route_failure_names_routine_and_chain_size(routine, monkeypatch):
    # the defect on bond 2 sends the region's half through dlasdq
    monkeypatch.setattr(spectral, f"_d{routine}", _lapack_fails)
    with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed on 14x14 chain"):
        half_filled_block(ChainSpec(14, "open", ((2, 0.5),)), 7)


def test_torn_route_checks_merged_vector_norms(monkeypatch):
    real = spectral._dlasd6
    # (argument, entries, factor, region length): z_0 enters only the S_V
    # row of the appended row, which an odd region reads; a relative error e
    # in the new singular values d (the first K entries of POLES) moves each
    # S_U column's norm by ~1.5e, through its 1/d_r, and each S_V row's by
    # ~0.6e, through dsig_p + d_r alone: only the S_U columns' check sees
    # e = 1.2e-12
    for argument, entries, factor, region_len in ((19, slice(0, 1), 1.0 + 1e-9, 7),
                                                  (19, slice(0, 1), math.nan, 7),
                                                  (16, slice(None), 1.0 + 1.2e-12, 6)):

        def dlasd6_drifts(*pointers):
            real(*pointers)
            # the seventeenth argument points at POLES, the twentieth at the
            # updated z, the twenty-first at K
            k = ctypes.c_int.from_address(pointers[20]).value
            values = np.ctypeslib.as_array((ctypes.c_double * k).from_address(pointers[argument]))
            values[entries] *= factor

        monkeypatch.setattr(spectral, "_dlasd6", dlasd6_drifts)
        with pytest.raises(np.linalg.LinAlgError, match="14x14 chain.*norm is off 1"):
            half_filled_block(homogeneous(14), region_len)


def _random_segment(rng):
    """Bond ratios of a segment of 2 to 250 sites, either parity, clean or
    with 1 to 4 defects of ratio 10^U(-3, 3) anywhere: the first and last
    bond and adjacent pairs drawn often."""
    m = int(rng.integers(2, 251))
    ratios = np.ones(m - 1)
    for _ in range(int(rng.integers(0, 5))):
        bond = int(rng.choice([0, m - 2, rng.integers(m - 1)]))
        for b in (bond, bond + 1)[:1 + int(rng.random() < 0.3)]:
            ratios[min(b, m - 2)] = 10.0 ** rng.uniform(-3.0, 3.0)
    return ratios


@pytest.mark.parametrize("leaf_sites", [5, spectral._LEAF_SITES])
def test_segment_matches_whole_svd(leaf_sites, monkeypatch):
    # at 5 sites every segment with a defect is torn down to pieces of at
    # most 5 sites, the leaves dlasdq takes whole
    monkeypatch.setattr(spectral, "_LEAF_SITES", leaf_sites)
    rng = np.random.default_rng(79)
    for _ in range(200):
        ratios = _random_segment(rng)
        m = ratios.size + 1
        k, sqre = m // 2, m % 2
        sigma, first, last = spectral._segment(ratios, 2 * m)
        # the segment's block of C, k x (k + sqre) upper bidiagonal
        d, e = spectral._bidiagonal(ratios)
        block = np.zeros((k, k + sqre))
        block[np.arange(k), np.arange(k)] = d
        block[np.arange(k + sqre - 1), np.arange(1, k + sqre)] = e[:k + sqre - 1]
        _, sigma_ref, vt = np.linalg.svd(block)
        scale = max(1.0, sigma_ref[0])
        assert np.abs(sigma - sigma_ref[::-1]).max() <= 1e-14 * scale
        # each vector's first and last components up to one common sign,
        # where sigma is not tied, and always the null vector's (odd m)
        ends_ref = np.concatenate([vt[:k][::-1], vt[k:]])[:, [0, -1]]
        ends = np.stack([first, last], axis=1)
        gaps = np.diff(np.concatenate([[-np.inf], sigma_ref[::-1], [np.inf]]))
        untied = np.append(np.minimum(gaps[:-1], gaps[1:]) > 1e-3 * scale, np.ones(sqre, bool))
        big = np.argmax(np.abs(ends_ref), axis=1)[:, None]
        signs = (np.sign(np.take_along_axis(ends_ref, big, axis=1))
                 * np.sign(np.take_along_axis(ends, big, axis=1)))
        assert np.abs(ends * signs - ends_ref)[untied].max() <= 5e-12


def test_segment_checks_merged_end_norms(monkeypatch):
    # each half of this chain holds one bond of the 3-bond block, next to
    # the tear, and is longer than _LEAF_SITES, so both are torn: their
    # merges' first (VF, the sixth argument) and last (VL, the seventh)
    # components must each keep unit norm
    spec = pair_specs(0.7, 400, 200, n_imp=3)[1]
    real = spectral._dlasd6
    for argument, entries, factor in ((5, slice(None), 1.0 + 1e-9), (6, slice(None), 1.0 + 1e-9),
                                      (5, slice(0, 1), math.nan), (6, slice(0, 1), math.nan)):

        def dlasd6_drifts(*pointers):
            real(*pointers)
            # only the merges inside a half (ICOMPQ = 0); VF and VL hold
            # NL + NR + 1 + SQRE entries
            icompq, nl, nr, sqre = (p._obj.value for p in pointers[:4])
            if icompq == 0:
                values = np.ctypeslib.as_array(
                    (ctypes.c_double * (nl + nr + 1 + sqre)).from_address(pointers[argument]))
                values[entries] *= factor

        monkeypatch.setattr(spectral, "_dlasd6", dlasd6_drifts)
        with pytest.raises(np.linalg.LinAlgError, match="lasd6 merge failed on 400x400 chain.*"
                                                        "norm is off 1"):
            half_filled_block(spec, 201)


@pytest.mark.parametrize("spec, region_len, n_rotations", [
    # the far-end tear at l = 66 leaves two clean halves whose singular
    # values coincide: dlasd6 deflates them by 33 rotations
    *[pytest.param(place_pattern(single_impurity(ratio, 66), 200), 66, 33, id=f"tied-{ratio}")
      for ratio in (0.5, 1.0, 3.0)],
    # a 3-bond block across the border at l = L/2 and L/2 + 1
    *[pytest.param(spec, n // 2 + shift, 0, id=f"half-{n}-{shift}")
      for n in (240, 480) for shift, spec in enumerate(pair_specs(0.7, n, n // 2, n_imp=3))],
])
def test_torn_route_matches_whole_svd(spec, region_len, n_rotations, monkeypatch):
    real_dlasd6, real_readout = spectral._dlasd6, spectral._merge_readout
    reference, merges, factored = [], [], []

    def dlasd6_then_dlals0(*pointers):
        # V_m U_m^T by LAPACK's dlals0 on the identity, ICOMPQ = 0 then 1,
        # from dlasd6's factored form (its arguments 11 to 23).  Only the
        # main merge asks for that form (ICOMPQ = 1); the merges inside a
        # torn half (`_segment`) pass straight through
        real_dlasd6(*pointers)
        factored.append(pointers[0]._obj.value == 1)
        if not factored[-1]:
            return
        n = ctypes.c_int(pointers[1]._obj.value + pointers[2]._obj.value + 1)
        factor, bx = np.eye(n.value, order="F"), np.empty((n.value, n.value))
        work = np.empty(n.value)
        info = ctypes.c_int()
        for icompq in (0, 1):
            _dlals0(ctypes.byref(ctypes.c_int(icompq)), *pointers[1:4], ctypes.byref(n),
                    factor.ctypes.data, ctypes.byref(n), bx.ctypes.data, ctypes.byref(n),
                    *pointers[10:23], work.ctypes.data, ctypes.byref(info))
            assert info.value == 0
        reference.append(factor)

    monkeypatch.setattr(spectral, "_dlasd6", dlasd6_then_dlals0)
    monkeypatch.setattr(spectral, "_merge_readout",
                        lambda *args: merges.append(args) or real_readout(*args))
    s, f = measure(spec, region_len)
    # the main merge is the last dlasd6 call
    assert factored.count(True) == 1 and factored[-1]
    s_svd, f_svd = _observables(_dbdsdc_block(spec, region_len))
    assert abs(s - s_svd) <= 1e-12 and abs(f - f_svd) <= 1e-12
    # the readout on every row and column, the appended row's and the
    # deflated ones included, is dlals0's
    _, _, order, rotations, secular, n_sites = merges[0]
    assert len(rotations) == n_rotations
    every = np.arange(order.size)
    factor = real_readout(every, every, order, rotations, secular, n_sites)
    assert np.abs(factor - reference[0]).max() <= 1e-14


def test_torn_sector_matches_whole_sector():
    # a random block before the tear, the clean rest of a mirror sector after it
    rng = np.random.default_rng(7)
    n, m = 40, 12
    diagonal, off_diagonal = np.zeros(n), -np.ones(n - 1)
    diagonal[:m], off_diagonal[:m - 1] = rng.normal(size=m), rng.normal(size=m - 1)
    diagonal[-1] = -1.0
    rows = np.array([11, 10, 3, 0, 5, 7, 11])
    energies, q_a = spectral._torn_sector(diagonal, off_diagonal, m, rows, 2 * n)
    e_ref, v_ref = np.linalg.eigh(np.diag(diagonal) + np.diag(off_diagonal, 1)
                                  + np.diag(off_diagonal, -1))
    assert np.abs(np.sort(energies) - e_ref).max() <= 1e-12
    ref = (v_ref[rows[0::2]] * np.sign(e_ref)) @ v_ref[rows[1::2]].T
    assert np.abs(q_a - ref).max() <= 1e-12


@pytest.mark.parametrize("routine", ["laed8", "laed9"])
def test_ring_merge_failure_names_routine_and_chain_size(routine, monkeypatch):
    # the region's three sites fall on the sector's first three rows of seven
    monkeypatch.setattr(spectral, f"_d{routine}", _lapack_fails)
    with pytest.raises(np.linalg.LinAlgError, match=f"{routine} failed on 14x14 chain"):
        half_filled_block(place_pattern(single_impurity(0.6, 3), 14, "periodic"), 3)


def test_ring_merge_checks_secular_vector_norms(monkeypatch):
    real = spectral._dlaed9
    for corrupt in (lambda s: s * (1.0 + 1e-9), lambda s: math.nan):

        def dlaed9_drifts(*pointers):
            real(*pointers)
            # the first argument is K, the eleventh points at S, K x K column-major
            k = pointers[0]._obj.value
            s = np.ctypeslib.as_array((ctypes.c_double * k).from_address(pointers[10]))
            s[:] = corrupt(s)

        monkeypatch.setattr(spectral, "_dlaed9", dlaed9_drifts)
        with pytest.raises(np.linalg.LinAlgError,
                           match="laed9 merge failed on 14x14 chain.*norm"):
            half_filled_block(place_pattern(single_impurity(0.6, 3), 14, "periodic"), 3)


def test_ring_merge_with_every_root_deflated(monkeypatch, capfd):
    # a bond of ratio 1e16 at the region's border lies in the region's block
    # of the torn sector, where |d|max ~ 1e16 lifts dlaed8's deflation
    # tolerance past every component: K = 0, no dlaed9, and the degenerate
    # Fermi level the dense route finds too
    spec = ChainSpec(202, "periodic", ((20, 1e16),))
    real, ks = spectral._dlaed8, []

    def dlaed8_counts(*pointers):
        real(*pointers)
        # the second argument points at K
        ks.append(ctypes.c_int.from_address(pointers[1]).value)

    monkeypatch.setattr(spectral, "_dlaed8", dlaed8_counts)
    with pytest.raises(DegenerateFermiLevelError):
        half_filled_block(spec, 20)
    assert ks == [0]
    with pytest.raises(DegenerateFermiLevelError):
        correlation_matrix(diagonalize(spec), half_filling(spec))
    assert "DLAED9" not in "".join(capfd.readouterr())


@pytest.mark.parametrize("spec, bond_axis", [
    pytest.param(place_pattern(single_impurity(0.6, 4), 14, "periodic"), True, id="single"),
    pytest.param(place_pattern(single_impurity(2.5, 14), 14, "periodic"), True,
                 id="single-on-wrap-bond"),
    pytest.param(homogeneous(14, "periodic"), True, id="clean"),
    pytest.param(place_pattern(alternating_block(0.3, 4, 3), 14, "periodic"), True,
                 id="centred-3-block"),
    # two opposite dots: an axis through two sites and one through two bonds
    pytest.param(place_pattern(dot_impurity(0.4, 1) + dot_impurity(0.4, 8), 14, "periodic"),
                 True, id="two-dots"),
    pytest.param(place_pattern(dot_impurity(0.4, 6), 14, "periodic"), False, id="dot"),
    pytest.param(ChainSpec(14, "periodic", ((2, 0.5), (5, 0.7))), False, id="no-axis"),
])
def test_half_filled_ring_route(spec, bond_axis, monkeypatch):
    # a bond-centred axis needs only the even mirror sector, never
    # diagonalize; a ring with none is refused
    axis = mirror_axis(spec.bond_ratios())
    assert (axis is not None and axis % 2 == 1) == bond_axis
    # G's odd-even block over all filled orbitals, both sectors
    g = correlation_matrix(diagonalize(spec), 7)
    expected = [-2.0 * g[:ell:2, 1:ell:2] for ell in (1, 6, 7, 14)]

    def no_diagonalize(spec):
        raise AssertionError("diagonalize reached")

    monkeypatch.setattr(spectral, "diagonalize", no_diagonalize)
    if not bond_axis:
        with pytest.raises(ValueError, match="ring of 14 sites has no mirror axis through "
                                             "two bonds"):
            half_filled_block(spec, 6)
        return
    for ell, q_a in zip((1, 6, 7, 14), expected):
        fast = half_filled_block(spec, ell)
        assert fast.shape == q_a.shape == ((ell + 1) // 2, ell // 2)
        assert np.abs(fast - q_a).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("n", [8, 12])
def test_half_filled_ring_rejects_degenerate_fermi_level(n, monkeypatch):
    # clean rings of 0 mod 4 sites have a zero level in each mirror sector
    monkeypatch.setattr(spectral, "diagonalize", None)
    with pytest.raises(DegenerateFermiLevelError, match=f"filling {n // 2} of {n}"):
        half_filled_block(homogeneous(n, "periodic"), 2)


def test_correlation_matrix_bounds():
    eigenpairs = diagonalize(homogeneous(6))
    assert not correlation_matrix(eigenpairs, 0).any()
    assert np.allclose(correlation_matrix(eigenpairs, 6), np.eye(6), atol=1e-13)
    with pytest.raises(ValueError):
        correlation_matrix(eigenpairs, -1)
    with pytest.raises(ValueError):
        correlation_matrix(eigenpairs, 7)


def test_half_filling():
    assert half_filling(homogeneous(10)) == 5
    with pytest.raises(ValueError):
        half_filling(homogeneous(7))
