import math

import numpy as np
import pytest

from paritylab.chains import ChainSpec, homogeneous
from paritylab.observables import (Region, charge_fluctuation, entanglement_entropy,
                                   region_observables, sublattice_occupations)
from paritylab.spectral import correlation_matrix, diagonalize, half_filling
from paritylab.sweeps import measure


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
    # exact 0/1 occupations carry no entropy, alone or beside a mixed mode
    assert entanglement_entropy(np.array([0.0, 1.0])) == 0.0
    assert entanglement_entropy(np.array([0.0, 0.5, 1.0])) \
        == entanglement_entropy(np.array([0.5]))
    # anything else outside [0, 1] is no occupation
    with np.errstate(invalid="ignore"):
        for nu in ([0.5, np.nan], [1.5], [-0.25, 1.0]):
            assert math.isnan(entanglement_entropy(np.array(nu)))
    assert charge_fluctuation(np.array([0.5, 0.25])) == pytest.approx(0.25 + 0.1875)


def test_sublattice_occupations_refuse_a_broken_block():
    # the occupations every sweep takes: NaN and values outside [0, 1]
    # raise before any entropy is taken from them
    assert list(sublattice_occupations(np.array([[1.0, 0.0], [0.0, 0.5]]))) \
        == [0.0, 0.25, 0.75, 1.0]
    for q_a in (np.array([[np.nan]]), np.array([[0.5, np.nan], [0.1, 0.2]]),
                np.array([[1.5, 0.0]]), np.array([[1.0 + 1e-6]])):
        with pytest.raises(ValueError):
            sublattice_occupations(q_a)


def test_region_observables_bounds():
    g = _ground_state_g(ChainSpec(10, "open", ((3, 0.4),)))
    obs = region_observables(g, Region(1, 5))
    assert 0.0 < obs.entropy <= 5 * math.log(2.0)
    assert 0.0 < obs.fluctuation <= 5 / 4
    with pytest.raises(ValueError, match="ends at site 11"):
        region_observables(g, Region(6, 6))
    with pytest.raises(ValueError, match="outside"):
        region_observables(np.diag([0.5, 1.5]), Region(1, 2))
    with pytest.raises(ValueError, match="outside"):
        region_observables(np.diag([-0.2, 0.5]), Region(1, 2))
    # eigvalsh takes this NaN block to occupations [0, -0], a pure region
    with pytest.raises(ValueError, match="not finite"):
        region_observables(np.diag([0.5, np.nan]), Region(1, 2))
    with pytest.raises(ValueError, match="not finite"):
        region_observables(np.array([[0.5, np.nan], [np.nan, 0.5]]), Region(1, 2))


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
        region = Region(first, length)
        g_a = g[region.slice(), region.slice()]
        via_spectrum = region_observables(g, region).fluctuation
        assert _charge_fluctuation_direct(g_a) == pytest.approx(via_spectrum, abs=1e-12)


def test_full_chain_region_is_sharp():
    # the whole chain holds exactly n/2 particles: no fluctuations, no entropy
    g = _ground_state_g(homogeneous(8))
    obs = region_observables(g, Region(1, 8))
    assert abs(obs.entropy) < 1e-13
    assert abs(obs.fluctuation) < 1e-13
    # the half-filled route's occupations are exactly 0 and 1 there
    assert measure(homogeneous(1000), 1000) == (0.0, 0.0)


def test_complement_entropy_equal():
    g = _ground_state_g(ChainSpec(10, "open", ((4, 0.5),)))
    left = region_observables(g, Region(1, 4))
    right = region_observables(g, Region(5, 6))
    assert left.entropy == pytest.approx(right.entropy, abs=1e-10)


def test_region_must_fit():
    g = _ground_state_g(homogeneous(8))
    with pytest.raises(ValueError):
        region_observables(g, Region(5, 6))
