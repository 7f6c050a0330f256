import math

import numpy as np
import pytest

from paritylab.chains import ChainSpec, alternating_block, build_hamiltonian, place_pattern
from paritylab.scattering import effective_strength, exterior_matching, phase_shift
from paritylab.spectral import sublattice_singular_values


def test_effective_strength():
    assert effective_strength([0.5]) == 0.5
    assert effective_strength([0.8, 0.6, 0.9]) == pytest.approx(0.432)
    with pytest.raises(ValueError):
        effective_strength([])
    with pytest.raises(ValueError):
        effective_strength([0.5, -1.0])


def test_phase_shift_values():
    data = phase_shift(0.8)
    assert data.transmission == pytest.approx(40.0 / 41.0, abs=1e-15)
    assert data.shift == pytest.approx(0.2213144423477912, abs=1e-12)
    assert math.cos(data.shift) == pytest.approx(data.transmission, abs=1e-14)
    # transparent bond scatters nothing
    assert phase_shift(1.0).shift == pytest.approx(0.0, abs=1e-15)
    # odd anchor flips the sign of the shift
    assert phase_shift(0.8, "odd").shift == pytest.approx(-0.2213144423477912, abs=1e-12)


def test_phase_shift_strength_symmetry():
    # strength and 1/strength scatter equally strongly
    for lam in (0.3, 0.7, 2.0):
        assert phase_shift(lam).transmission == pytest.approx(
            phase_shift(1.0 / lam).transmission, abs=1e-14)


def test_exterior_matching_entries():
    lam = 0.432
    s = 2 * lam / (1 + lam * lam)
    r = (1 - lam * lam) / (1 + lam * lam)
    m = exterior_matching(lam, "even")
    assert np.allclose(m, [[s, r], [-r, s]], atol=1e-14)
    assert np.allclose(m @ m.T, np.eye(2), atol=1e-14)
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)


def test_near_zero_modes_sublattice_polarized():
    # the in-gap pair of the block's edge modes is -+sigma_min of B
    spec = place_pattern(alternating_block(0.8, 31, 3), 66)
    sigma_min = sublattice_singular_values(spec)[0]
    assert 2.0 * sigma_min == pytest.approx(5.660777e-2, rel=1e-5)
    # the pair is the two levels nearest zero of the dense Hamiltonian
    dense = np.linalg.eigvalsh(build_hamiltonian(spec))
    nearest = np.sort(dense[np.argsort(np.abs(dense))[:2]])
    assert np.allclose((-sigma_min, sigma_min), nearest, rtol=0, atol=1e-12)


def test_near_zero_splitting_scales_with_block_size():
    # one extra unit cell multiplies the hybridization by the bond ratio^2
    splittings = {}
    for n_imp in (3, 5, 7):
        spec = place_pattern(alternating_block(0.8, 31, n_imp), 60 + 2 * n_imp)
        splittings[n_imp] = 2.0 * sublattice_singular_values(spec)[0]
    assert splittings[5] / splittings[3] == pytest.approx(0.64, rel=0.05)
    assert splittings[7] / splittings[5] == pytest.approx(0.64, rel=0.05)


@pytest.mark.parametrize("n_imp, splitting", [
    # 2 sigma_min of B by mpmath at 80 digits
    (31, 5.701974946625378667e-11),
    (61, 5.3103779876841033502e-20),
])
def test_near_zero_splitting_to_full_relative_accuracy(n_imp, splitting):
    # ratio 0.5 and leads of 30 sites, as the zero-modes scenario builds them:
    # the splitting lies far below the bandwidth's rounding, ~1e-16
    spec = place_pattern(alternating_block(0.5, 31, n_imp), 60 + 2 * n_imp)
    sigma_min = sublattice_singular_values(spec)[0]
    assert 2.0 * sigma_min == pytest.approx(splitting, rel=1e-12, abs=0)


def test_near_zero_modes_need_an_even_open_chain():
    for spec in (ChainSpec(66, "periodic"), ChainSpec(67)):
        with pytest.raises(ValueError):
            sublattice_singular_values(spec)
