import math

import numpy as np
import pytest

from paritylab.chains import alternating_block, place_pattern
from paritylab.scattering import (effective_strength, exterior_matching, near_zero_modes,
                                  phase_shift, solve_block)


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


def test_solve_block_satisfies_eigenvalue_equation():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n_imp = int(rng.integers(1, 5))
        ratios = rng.uniform(0.3, 2.5, size=n_imp)
        k = float(rng.uniform(0.2, math.pi - 0.2))
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        sol = solve_block(ratios, k, a, b)
        assert sol.residual < 1e-10


def test_solve_block_conserves_current():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ratios = rng.uniform(0.3, 2.0, size=int(rng.integers(1, 4)))
        k = float(rng.uniform(0.3, math.pi - 0.3))
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        sol = solve_block(ratios, k, a, b)
        lhs = abs(sol.a_left) ** 2 - abs(sol.b_left) ** 2
        rhs = abs(sol.c_right) ** 2 - abs(sol.d_right) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _fermi_transmission(ratios):
    # transfer matrix at k = pi/2 from two independent boundary conditions,
    # then the scattering solution with no incoming wave from the right
    k = math.pi / 2
    s1 = solve_block(ratios, k, 1.0, 0.0)
    s2 = solve_block(ratios, k, 0.0, 1.0)
    m = np.array([[s1.c_right, s2.c_right], [s1.d_right, s2.d_right]])
    b = -m[1, 0] / m[1, 1]
    t = m[0, 0] + m[0, 1] * b
    return abs(t) ** 2, abs(b) ** 2


def test_block_transmission_matches_effective_strength():
    for ratios in ([0.8], [0.8, 0.6, 0.9], [1.4, 0.5], [2.0, 2.0]):
        lam = effective_strength(ratios)
        t2, b2 = _fermi_transmission(ratios)
        s = 2 * lam / (1 + lam * lam)
        assert t2 == pytest.approx(s * s, abs=1e-12)
        assert b2 == pytest.approx(1 - s * s, abs=1e-12)
        assert phase_shift(lam).transmission == pytest.approx(s, abs=1e-15)


def test_solve_block_validation():
    with pytest.raises(ValueError):
        solve_block([], math.pi / 2)
    with pytest.raises(ValueError):
        solve_block([0.5], 0.0)
    with pytest.raises(ValueError):
        solve_block([-0.5], math.pi / 2)


def test_near_zero_modes_sublattice_polarized():
    spec = place_pattern(alternating_block(0.8, 31, 3), 66)
    zm = near_zero_modes(spec)
    assert zm.energies[0] == pytest.approx(-zm.energies[1], abs=1e-12)
    assert zm.splitting == pytest.approx(5.660777e-2, rel=1e-5)
    # hybridized edge pair: odd sublattice on the left flank, even on the right
    assert zm.left_weights[0, 0] > 0.99
    assert zm.right_weights[1, 1] > 0.99
    # each polarized mode carries most of its weight on its own side
    norm_left = float(zm.left_mode @ zm.left_mode)
    assert norm_left == pytest.approx(1.0, abs=1e-10)


def test_near_zero_splitting_scales_with_block_size():
    # one extra unit cell multiplies the hybridization by the bond ratio^2
    splittings = {}
    for n_imp in (3, 5, 7):
        spec = place_pattern(alternating_block(0.8, 31, n_imp), 60 + 2 * n_imp)
        splittings[n_imp] = near_zero_modes(spec).splitting
    assert splittings[5] / splittings[3] == pytest.approx(0.64, rel=0.05)
    assert splittings[7] / splittings[5] == pytest.approx(0.64, rel=0.05)
