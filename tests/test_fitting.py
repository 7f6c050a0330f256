import dataclasses
import math

import numpy as np
import pytest

from acceptance_tools import curve_sup_distance, power_law_exponent
from paritylab.fitting import (BulkScalingResult, FitRankError,
                               ParityScalingResult, ScalingSample,
                               boundary_part, delta_slope_at_unity,
                               dot_crossover, extrapolate_inverse,
                               fit_boundary_entropy, fit_boundary_fluct,
                               fit_bulk_entropy, fit_bulk_fluct, fit_line,
                               open_chord, periodic_chord)

SIZES = (96, 128, 176, 240, 320, 432, 576, 768)


def _samples(boundary, chord, slope, consts, invs, logs=(0.0, 0.0),
             fluct=False, noise=None, rng=None):
    out = []
    for n in SIZES:
        for parity, ell in (("even", n // 2), ("odd", n // 2 + 1)):
            i = 0 if parity == "even" else 1
            val = slope * chord(n, ell) + consts[i] + invs[i] / ell \
                + logs[i] * math.log(ell) / ell
            if noise is not None:
                val += noise * rng.normal()
            s = val if not fluct else 0.0
            f = val if fluct else 0.0
            out.append(ScalingSample(boundary, 0.8, n, ell, parity, s, f))
    return out


def test_sample_validation():
    with pytest.raises(ValueError):
        ScalingSample("twisted", 0.8, 100, 50, "even", 1.0, 1.0)
    with pytest.raises(ValueError):
        ScalingSample("open", 0.8, 100, 50, "both", 1.0, 1.0)
    with pytest.raises(ValueError):
        ScalingSample("open", 0.8, 100, 100, "even", 1.0, 1.0)


def test_boundary_entropy_exact_recovery():
    fit = fit_boundary_entropy(_samples(
        "open", open_chord, 1.0 / 6.0, (0.42, 0.17), (0.3, -0.2)))
    assert fit.slope == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert fit.const_even == pytest.approx(0.42, abs=1e-9)
    assert fit.const_odd == pytest.approx(0.17, abs=1e-9)
    assert fit.inv_even == pytest.approx(0.3, abs=1e-6)
    assert fit.inv_odd == pytest.approx(-0.2, abs=1e-6)
    assert fit.delta == pytest.approx(0.25, abs=1e-9)
    assert fit.residual_rms < 1e-12
    assert fit.log_even is None and fit.log_odd is None
    assert fit.n_samples == 2 * len(SIZES)


def test_boundary_fluct_exact_recovery():
    fit = fit_boundary_fluct(_samples(
        "open", open_chord, 0.04, (0.1, 0.06), (0.2, 0.1), logs=(0.5, -0.3),
        fluct=True))
    assert fit.slope == pytest.approx(0.04, abs=1e-8)
    assert fit.delta == pytest.approx(0.04, abs=1e-8)
    assert fit.log_even == pytest.approx(0.5, abs=1e-4)
    assert fit.log_odd == pytest.approx(-0.3, abs=1e-4)
    assert fit.residual_rms < 1e-12


def test_bulk_exact_recovery():
    fit = fit_bulk_entropy(_samples(
        "periodic", periodic_chord, 1.0 / 3.0, (0.5, 0.5), (0.4, -0.1)))
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert fit.const == pytest.approx(0.5, abs=1e-9)
    assert fit.inv_even == pytest.approx(0.4, abs=1e-6)
    assert fit.inv_odd == pytest.approx(-0.1, abs=1e-6)
    fit = fit_bulk_fluct(_samples(
        "periodic", periodic_chord, 0.08, (0.2, 0.2), (0.1, 0.3),
        logs=(-0.2, 0.4), fluct=True))
    assert fit.slope == pytest.approx(0.08, abs=1e-8)
    assert fit.const == pytest.approx(0.2, abs=1e-8)
    assert fit.log_odd == pytest.approx(0.4, abs=1e-4)


def _single_parity_slope(samples, parity):
    rows = [s for s in samples if s.parity == parity]
    design = np.array([[open_chord(s.n_sites, s.region_len), 1.0,
                        1.0 / s.region_len] for s in rows])
    target = np.array([s.entropy for s in rows])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(coef[0])


def test_joint_slope_between_single_parity_slopes():
    # every non-chord column is parity-specific, so the shared slope is a
    # convex combination of the two per-parity slopes
    rng = np.random.default_rng(11)
    for _ in range(8):
        samples = _samples("open", open_chord, 0.15, (0.4, 0.2), (0.5, -0.4),
                           noise=1e-3, rng=rng)
        joint = fit_boundary_entropy(samples).slope
        slopes = sorted(_single_parity_slope(samples, p) for p in ("even", "odd"))
        assert slopes[0] - 1e-12 <= joint <= slopes[1] + 1e-12


def test_delta_ignores_contaminant_in_fit_span():
    # adding a parity-blind alpha*chord + beta + gamma/ell to every sample
    # moves both constants identically and leaves delta untouched
    rng = np.random.default_rng(23)
    base = _samples("open", open_chord, 1.0 / 6.0, (0.42, 0.17), (0.3, -0.2),
                    noise=1e-4, rng=rng)
    contaminated = [
        dataclasses.replace(s, entropy=s.entropy
                            + 0.07 * open_chord(s.n_sites, s.region_len)
                            + 0.9 + 0.55 / s.region_len)
        for s in base
    ]
    d0 = fit_boundary_entropy(base).delta
    d1 = fit_boundary_entropy(contaminated).delta
    assert d1 == pytest.approx(d0, abs=1e-10)


def test_fit_validation_errors():
    good = _samples("open", open_chord, 0.1, (0.3, 0.1), (0.0, 0.0))
    with pytest.raises(ValueError):
        fit_boundary_entropy([])
    mixed = good[:8] + [dataclasses.replace(good[8], ratio=0.5)]
    with pytest.raises(ValueError):
        fit_boundary_entropy(mixed)
    with pytest.raises(ValueError):
        fit_bulk_entropy(good)  # open samples to the ring fit
    few = [s for s in good if s.parity == "even"][:4] \
        + [s for s in good if s.parity == "odd"][:3]
    with pytest.raises(ValueError):
        fit_boundary_entropy(few)
    mislabel = good[:15] + [dataclasses.replace(good[15], parity="even")]
    with pytest.raises(ValueError):
        fit_boundary_entropy(mislabel)


def test_degenerate_grid_raises_rank_error():
    one_even = ScalingSample("open", 0.8, 100, 50, "even", 1.0, 0.0)
    one_odd = ScalingSample("open", 0.8, 100, 51, "odd", 0.9, 0.0)
    with pytest.raises(FitRankError):
        fit_boundary_entropy([one_even] * 4 + [one_odd] * 4)


def test_boundary_part_algebra():
    parity = ParityScalingResult(slope=0.1, const_even=1.0, const_odd=0.7,
                                 inv_even=0.0, inv_odd=0.0, log_even=None,
                                 log_odd=None, residual_rms=0.0, n_samples=8)
    bulk = BulkScalingResult(slope=0.2, const=0.9, inv_even=0.0, inv_odd=0.0,
                             log_even=None, log_odd=None, residual_rms=0.0,
                             n_samples=8)
    clean = BulkScalingResult(slope=0.2, const=0.5, inv_even=0.0, inv_odd=0.0,
                              log_even=None, log_odd=None, residual_rms=0.0,
                              n_samples=8)
    assert boundary_part(parity, bulk, clean) == pytest.approx((0.35, 0.05))
    assert boundary_part(parity, bulk) == pytest.approx((0.1, -0.2))
    # even - odd difference is independent of the clean-cut convention
    for pair in (boundary_part(parity, bulk, clean), boundary_part(parity, bulk)):
        assert pair[0] - pair[1] == pytest.approx(0.3, abs=1e-14)


def test_fit_line_and_power_law():
    a, b = fit_line([1.0, 2.0, 3.0, 5.0], [4.0 - 2.0 * x for x in (1, 2, 3, 5)])
    assert (a, b) == pytest.approx((4.0, -2.0), abs=1e-12)
    with pytest.raises(ValueError):
        fit_line([1.0], [2.0])
    x = np.array([10.0, 20.0, 40.0, 80.0])
    assert power_law_exponent(x, 3.0 * x**-2.5) == pytest.approx(-2.5, abs=1e-12)
    assert power_law_exponent(x, -3.0 * x**1.5) == pytest.approx(1.5, abs=1e-12)


def test_extrapolate_inverse():
    n = [64, 128, 256, 512]
    vals = [0.7 + 3.0 / L for L in n]
    assert extrapolate_inverse(n, vals) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(ValueError):
        extrapolate_inverse([100], [1.0])


def test_delta_slope_at_unity_linear_data():
    lams = (0.90, 0.925, 0.95, 0.975, 1.0)
    sizes = (100, 200)
    deltas = {(lam, L): (0.64 + 5.0 / L) * (lam - 1.0)
              for lam in lams for L in sizes}
    for eps, slope in delta_slope_at_unity(deltas, [0.1, 0.05]):
        assert slope == pytest.approx(0.64, abs=1e-10)


def test_delta_slope_window_shrink_reduces_curvature_bias():
    lams = tuple(0.86 + 0.01 * i for i in range(15))
    sizes = (100, 200)
    curv = 2.0
    deltas = {(lam, L): 0.64 * (lam - 1.0) + curv * (lam - 1.0) ** 2
              for lam in lams for L in sizes}
    fits = dict(delta_slope_at_unity(deltas, [0.12, 0.06]))
    err_wide = abs(fits[0.12] - 0.64)
    err_narrow = abs(fits[0.06] - 0.64)
    assert err_narrow < err_wide
    richardson = 2.0 * fits[0.06] - fits[0.12]
    assert abs(richardson - 0.64) < err_narrow


def test_delta_slope_requires_two_sizes_in_window():
    deltas = {(1.0, 100): 0.0, (1.0, 200): 0.0, (0.9, 100): -0.064}
    with pytest.raises(ValueError):
        delta_slope_at_unity(deltas, [0.1])


def test_dot_crossover_centered_differences():
    t = np.log([50.0, 100.0, 200.0, 400.0])
    even = 0.3 * t * t
    odd = 0.1 * t
    curve = dot_crossover(t, even, odd, ratio=0.2)
    assert np.allclose(curve.x, np.exp(t[1:-1]) * 0.04, atol=1e-12)
    # centered differences are exact for quadratics on these nodes
    assert np.allclose(curve.delta_slope, 0.6 * t[1:-1] - 0.1, atol=1e-10)
    with pytest.raises(ValueError):
        dot_crossover(t, even[:-1], odd, 0.2)
    with pytest.raises(ValueError):
        dot_crossover(t[:2], even[:2], odd[:2], 0.2)
    with pytest.raises(ValueError):
        dot_crossover(t[::-1], even, odd, 0.2)


def test_curve_sup_distance():
    t = np.linspace(math.log(30.0), math.log(3000.0), 12)
    values = np.tanh(np.exp(t) * 1e-3)
    a = dot_crossover(t, values, np.zeros_like(t), 0.1)
    b = dot_crossover(t, values, np.zeros_like(t), 0.1)
    assert curve_sup_distance(a, b) == 0.0
    shifted = dot_crossover(t, values + 0.01 * t, np.zeros_like(t), 0.1)
    assert curve_sup_distance(a, shifted) == pytest.approx(0.01, abs=1e-10)
    far = dot_crossover(t + 50.0, values, np.zeros_like(t), 0.1)
    with pytest.raises(ValueError):
        curve_sup_distance(a, far)
