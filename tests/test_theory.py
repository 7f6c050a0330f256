import math

import numpy as np
import pytest
from scipy import integrate

from paritylab.chains import place_pattern, single_impurity
from paritylab.observables import Region, region_observables
from paritylab.spectral import correlation_matrix, diagonalize, half_filling
from paritylab.theory import (ENTROPY_PLATEAU, FLUCT_PLATEAU,
                              FLUCT_SERIES_CONSTANT, dilog,
                              effective_central_charge,
                              effective_central_charge_alt,
                              entropy_parity_slope, entropy_slope_integral,
                              fluct_parity_slope, perturbative_fluct_slope,
                              tabulated_entropy_integral,
                              tabulated_fluct_integral,
                              transmission_coefficient)


def test_dilog_special_values():
    assert dilog(0.0) == 0.0
    assert dilog(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-14)
    assert dilog(-1.0) == pytest.approx(-math.pi**2 / 12.0, abs=1e-14)
    assert dilog(0.5) == pytest.approx(
        math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0, abs=1e-14)


def test_dilog_against_quadrature():
    # Li2(z) = -int_0^z ln(1-t)/t dt
    for z in (-1.0, -0.9, -0.3, 0.3, 0.7, 0.95):
        val, err = integrate.quad(lambda t: -math.log1p(-t) / t, 0.0, z,
                                  epsabs=1e-13, epsrel=1e-13, limit=200)
        assert err < 1e-12
        assert dilog(z) == pytest.approx(val, abs=1e-12)


def test_dilog_reflection_identity():
    for z in (0.1, 0.25, 0.5, 0.8, 0.99):
        lhs = dilog(z) + dilog(1.0 - z)
        rhs = math.pi**2 / 6.0 - math.log(z) * math.log(1.0 - z)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_transmission_coefficient():
    assert transmission_coefficient(1.0) == 1.0
    assert transmission_coefficient(0.8) == pytest.approx(40.0 / 41.0, abs=1e-15)
    for lam in (0.2, 0.6, 3.0):
        assert transmission_coefficient(lam) == pytest.approx(
            transmission_coefficient(1.0 / lam), abs=1e-15)
    with pytest.raises(ValueError):
        transmission_coefficient(0.0)


def test_effective_central_charge_limits():
    assert effective_central_charge(1.0) == pytest.approx(1.0, abs=1e-12)
    assert effective_central_charge(1e-8) < 1e-13
    with pytest.raises(ValueError):
        effective_central_charge(0.0)
    with pytest.raises(ValueError):
        effective_central_charge(1.1)


def test_central_charge_two_forms_agree():
    for s in np.linspace(0.01, 1.0, 100):
        a = effective_central_charge(float(s))
        b = effective_central_charge_alt(float(s))
        assert a == pytest.approx(b, abs=1e-10)


def test_central_charge_close_to_s_squared():
    # c_eff majorizes s^2 with a gap peaking just below 0.0965 near s = 0.594
    grid = np.linspace(1e-4, 1.0, 4001)
    gap = np.array([effective_central_charge(float(s)) - s * s for s in grid])
    assert gap.min() > -1e-12
    assert 0.0960 < gap.max() < 0.0970
    assert float(grid[gap.argmax()]) == pytest.approx(0.594, abs=0.01)


def test_tabulated_integrals():
    assert tabulated_entropy_integral() == pytest.approx(-math.pi / 6.0, abs=1e-10)
    assert tabulated_fluct_integral() == pytest.approx(
        4.0 * math.pi * math.log(2.0), abs=1e-10)


def test_entropy_slope_integral_anchors():
    # D(0) = pi/6 and D(1/2) = 1/2 in closed form; D(1/3) frozen from a
    # high-order quadrature of the same integral
    assert entropy_slope_integral(0.0) == pytest.approx(math.pi / 6.0, abs=1e-7)
    assert entropy_slope_integral(0.5) == pytest.approx(0.5, abs=1e-8)
    assert entropy_slope_integral(1.0 / 3.0) == pytest.approx(
        0.504325841235, abs=1e-8)
    with pytest.raises(ValueError):
        entropy_slope_integral(0.6)
    with pytest.raises(ValueError):
        entropy_slope_integral(-0.01)


def test_entropy_parity_slope_values():
    assert entropy_parity_slope(0.0) == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert entropy_parity_slope(0.5) == pytest.approx(2.0 / math.pi, abs=1e-6)
    # quoted reference values carry ~2e-4 of their own fit error
    assert entropy_parity_slope(0.5) == pytest.approx(0.636779, abs=1e-3)
    assert entropy_parity_slope(1.0 / 3.0) == pytest.approx(0.642128, abs=1e-3)


def test_fluct_parity_slope_values():
    assert fluct_parity_slope(0.0) == pytest.approx(
        4.0 * math.log(2.0) / math.pi**2, abs=1e-12)
    assert fluct_parity_slope(0.5) == pytest.approx(0.2713772572, abs=1e-9)
    assert fluct_parity_slope(1.0 / 3.0) == pytest.approx(0.2731469160, abs=1e-9)
    # the finite aspect suppresses the slope monotonically
    assert fluct_parity_slope(0.0) > fluct_parity_slope(1.0 / 3.0) \
        > fluct_parity_slope(0.5)
    with pytest.raises(ValueError):
        fluct_parity_slope(0.51)


def test_plateau_and_series_constants():
    assert ENTROPY_PLATEAU == pytest.approx(math.log(2.0), abs=1e-15)
    assert FLUCT_PLATEAU == 0.25
    gamma = 0.5772156649015329
    assert FLUCT_SERIES_CONSTANT == pytest.approx(
        (1.0 + gamma + math.log(2.0)) / math.pi**2, abs=1e-15)


def _fd_parity_slope(n_sites: int, cut: int, h: float = 1e-5) -> float:
    # exact lattice derivative of F_even - F_odd by central differences,
    # mirroring the cut convention: even cut at bond `cut`, odd at cut + 1
    def split(ratio):
        vals = []
        for bond, length in ((cut, cut), (cut + 1, cut + 1)):
            spec = place_pattern(single_impurity(ratio, bond), n_sites)
            g = correlation_matrix(diagonalize(spec), half_filling(spec))
            vals.append(region_observables(g, Region(1, length)).fluctuation)
        return vals[0] - vals[1]

    return (split(1.0 + h) - split(1.0 - h)) / (2.0 * h)


def test_perturbative_fluct_slope_frozen():
    assert perturbative_fluct_slope(96, 48) == pytest.approx(
        0.26606725522919966, abs=1e-12)
    assert perturbative_fluct_slope(48, 24) == pytest.approx(
        0.26066350931971505, abs=1e-12)
    with pytest.raises(ValueError):
        perturbative_fluct_slope(47, 24)
    with pytest.raises(ValueError):
        perturbative_fluct_slope(48, 23)


def test_perturbative_fluct_slope_matches_finite_difference():
    for n_sites, cut in ((24, 12), (40, 20), (40, 10)):
        assert perturbative_fluct_slope(n_sites, cut) == pytest.approx(
            _fd_parity_slope(n_sites, cut), abs=1e-6)
