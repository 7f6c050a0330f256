import math

import numpy as np
import pytest

from paritylab.chains import ChainSpec, homogeneous
from paritylab.observables import (Region, charge_fluctuation,
                                   entanglement_entropy, occupation_spectrum,
                                   region_observables, restrict)
from paritylab.spectral import correlation_matrix, diagonalize, half_filling


def _ground_state_g(spec):
    return correlation_matrix(diagonalize(spec), half_filling(spec))


def test_region_validation():
    r = Region(3, 4)
    assert r.last == 6
    assert r.slice() == slice(2, 6)
    with pytest.raises(ValueError):
        Region(0, 4)
    with pytest.raises(ValueError):
        Region(3, 0)


def test_restrict_shape():
    g = _ground_state_g(homogeneous(8))
    g_a = restrict(g, Region(2, 3))
    assert g_a.shape == (3, 3)
    assert np.array_equal(g_a, g[1:4, 1:4])


def test_single_site_entropy_is_binary():
    # a one-site region has S = H(G_ii)
    g = _ground_state_g(homogeneous(8))
    for first in (1, 3, 8):
        obs = region_observables(g, Region(first, 1))
        p = g[first - 1, first - 1]
        expected = -p * math.log(p) - (1 - p) * math.log(1 - p)
        assert obs.entropy == pytest.approx(expected, abs=1e-12)
        assert obs.fluctuation == pytest.approx(p * (1 - p), abs=1e-12)


def test_entropy_formula_oracle():
    assert entanglement_entropy(np.array([0.5])) == pytest.approx(math.log(2.0))
    assert entanglement_entropy(np.array([0.5, 0.5])) == pytest.approx(2 * math.log(2.0))
    # exact 0/1 occupations carry no entropy
    assert entanglement_entropy(np.array([0.0, 1.0])) == 0.0
    assert charge_fluctuation(np.array([0.5, 0.25])) == pytest.approx(0.25 + 0.1875)


def test_occupation_spectrum_bounds():
    g = _ground_state_g(ChainSpec(10, "open", ((3, 0.4),)))
    nu = occupation_spectrum(restrict(g, Region(1, 5)))
    assert np.all(nu >= 0.0) and np.all(nu <= 1.0)
    assert np.all(np.diff(nu) >= 0.0)
    with pytest.raises(ValueError):
        occupation_spectrum(np.diag([0.5, 1.5]))
    with pytest.raises(ValueError):
        occupation_spectrum(np.diag([-0.2, 0.5]))


def _charge_fluctuation_direct(g_a):
    # number variance straight from matrix elements, tr G_A - sum_ij (G_A)_ij^2,
    # without passing through the eigenvalues
    return float(np.trace(g_a) - np.sum(g_a * g_a))


def test_fluctuation_dual_routes_agree():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(6, 14))
        n_bonds = n - 1
        bond = int(rng.integers(1, n_bonds + 1))
        spec = ChainSpec(n, "open", ((bond, float(rng.uniform(0.3, 2.5))),))
        npart = int(rng.integers(1, n))
        g = correlation_matrix(diagonalize(spec), npart)
        first = int(rng.integers(1, n))
        length = int(rng.integers(1, n - first + 2))
        g_a = restrict(g, Region(first, length))
        via_spectrum = charge_fluctuation(occupation_spectrum(g_a))
        assert _charge_fluctuation_direct(g_a) == pytest.approx(via_spectrum, abs=1e-12)


def test_full_chain_region_is_sharp():
    # the whole chain holds exactly n/2 particles: no fluctuations, no entropy
    g = _ground_state_g(homogeneous(8))
    obs = region_observables(g, Region(1, 8))
    assert abs(obs.entropy) < 1e-10
    assert abs(obs.fluctuation) < 1e-12


def test_complement_entropy_equal():
    g = _ground_state_g(ChainSpec(10, "open", ((4, 0.5),)))
    left = region_observables(g, Region(1, 4))
    right = region_observables(g, Region(5, 6))
    assert left.entropy == pytest.approx(right.entropy, abs=1e-10)


def test_region_must_fit():
    g = _ground_state_g(homogeneous(8))
    with pytest.raises(ValueError):
        region_observables(g, Region(5, 6))
