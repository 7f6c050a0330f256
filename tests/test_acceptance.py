"""End-to-end gate: one test per headline result, at production grids.

Each test prints the measured margins before asserting, so a red line
carries its own diagnosis.  The full module takes several minutes on one
core; everything heavy is shared through module-scoped fixtures.
"""

import itertools
import math

import numpy as np
import pytest

from acceptance_tools import (curve_sup_distance, perturbative_fluct_slope,
                              power_law_exponent)
from paritylab.chains import (alternating_block, dot_impurity, place_pattern,
                              single_impurity)
from paritylab.fitting import (ScalingSample, boundary_part,
                               delta_slope_at_unity, dot_crossover,
                               extrapolate_inverse, fit_boundary_entropy,
                               fit_boundary_fluct, fit_bulk_entropy,
                               fit_bulk_fluct)
from paritylab.fock import fock_region_observables
from paritylab.observables import Region, region_observables
from paritylab.scattering import near_zero_modes
from paritylab.spectral import correlation_matrix, diagonalize, half_filling
from paritylab.sweeps import (aspect_region, dot_pair, ladder_region, measure,
                              pair_specs, size_ladder)
from paritylab.theory import (FLUCT_SERIES_CONSTANT, dilog,
                              effective_central_charge,
                              effective_central_charge_alt,
                              entropy_slope_integral,
                              tabulated_entropy_integral,
                              tabulated_fluct_integral,
                              transmission_coefficient)

OBC_SIZES = size_ladder(120, 2400, 20)
# The plateau drifts as ~6.25/L, so a top octave flat within 1e-3 needs
# chains past ~6250 sites; the rungs up to 2400 are those of OBC_SIZES.
C02_SIZES = size_ladder(120, 7000, 20)
PBC_SIZES = size_ladder(122, 1562, 4, offset=2)
LAMBDAS = (0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 2.0, 4.0)
CEFF_LAMBDAS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
INVERSES = {0.25: 4.0, 0.5: 2.0, 0.8: 1.25}


# The grids below are the `pair_specs` / `dot_pair` chains and `measure`
# calls that `lab run` plans for the same configs.

def _pair(chains, ell):
    """S and F of an even chain at l sites, then of its odd partner at l + 1."""
    return measure(chains[0], ell), measure(chains[1], ell + 1)


def _border_samples(ratio, sizes, boundary="open"):
    """Even then odd sample of a border bond per size, at l ~ L/10."""
    samples = []
    for n in sizes:
        ell = ladder_region(n, 10)
        for length, parity, (s, f) in zip((ell, ell + 1), ("even", "odd"),
                                          _pair(pair_specs(ratio, n, ell, boundary), ell)):
            samples.append(ScalingSample(boundary, ratio, n, length, parity, s, f))
    return samples


def _splitting_table(ratios, sizes, aspect_den, n_imp=1):
    """(delta S, delta F), even minus odd, of an open-chain block at aspect
    1/aspect_den, keyed by (ratio, n_sites)."""
    table = {}
    for ratio, n in itertools.product(ratios, sizes):
        ell = aspect_region(n, 1, aspect_den)
        (s_even, f_even), (s_odd, f_odd) = _pair(pair_specs(ratio, n, ell, "open", n_imp), ell)
        table[(ratio, n)] = (s_even - s_odd, f_even - f_odd)
    return table


def _dot_series(ratio, sizes):
    """ln(L + 1) and the even and odd S and F of a half-chain dot per size."""
    even, odd = zip(*[_pair(dot_pair(ratio, n), n // 2) for n in sizes])
    (se, fe), (so, fo) = zip(*even), zip(*odd)
    return np.log(np.asarray(sizes, dtype=float) + 1.0), se, so, fe, fo


@pytest.fixture(scope="module")
def obc_samples():
    return {lam: _border_samples(lam, OBC_SIZES)
            for lam in LAMBDAS}


@pytest.fixture(scope="module")
def obc_fits(obc_samples):
    return {lam: (fit_boundary_entropy(s), fit_boundary_fluct(s))
            for lam, s in obc_samples.items()}


@pytest.fixture(scope="module")
def pbc_fits():
    out = {}
    for lam in LAMBDAS:
        samples = _border_samples(lam, PBC_SIZES, "periodic")
        out[lam] = (fit_bulk_entropy(samples), fit_bulk_fluct(samples))
    return out


@pytest.fixture(scope="module")
def slope_tables():
    ratios = (0.90, 0.925, 0.95, 0.975, 1.0)
    sizes = (240, 480, 960)
    return {den: _splitting_table(ratios, sizes, den)
            for den in (2, 3)}


def _richardson(table, index):
    deltas = {key: val[index] for key, val in table.items()}
    (w1, s1), (w2, s2) = delta_slope_at_unity(deltas, [0.1, 0.05])
    return (s2 * w1 - s1 * w2) / (w1 - w2)


def test_c01_effective_central_charge(obc_fits, pbc_fits):
    worst = {"obc_s": 0.0, "obc_f": 0.0, "pbc_s": 0.0}
    for lam in CEFF_LAMBDAS:
        s = transmission_coefficient(lam)
        ceff = effective_central_charge(s)
        ent, flu = obc_fits[lam]
        worst["obc_s"] = max(worst["obc_s"], abs(6.0 * ent.slope - ceff))
        worst["obc_f"] = max(worst["obc_f"],
                             abs(2.0 * math.pi**2 * flu.slope - s * s))
        bulk_ent, _ = pbc_fits[lam]
        worst["pbc_s"] = max(worst["pbc_s"],
                             abs(6.0 * bulk_ent.slope - (1.0 + ceff)))
    print(f"c01: max |6*slope - c_eff| open {worst['obc_s']:.2e}, "
          f"ring {worst['pbc_s']:.2e}; max |2pi^2*slope - s^2| {worst['obc_f']:.2e}")
    assert worst["obc_s"] <= 0.02
    assert worst["pbc_s"] <= 0.02
    assert worst["obc_f"] <= 0.02


def test_c02_parity_plateau_and_clean_decay(obc_samples):
    assert C02_SIZES[:len(OBC_SIZES)] == OBC_SIZES
    added = C02_SIZES[len(OBC_SIZES):]

    def abs_deltas(lam):
        pairs = {}
        for s in obc_samples[lam] + _border_samples(lam, added):
            pairs.setdefault(s.n_sites, {})[s.parity] = s.entropy
        return {n: abs(v["even"] - v["odd"]) for n, v in sorted(pairs.items())}

    clean = abs_deltas(1.0)
    slope = power_law_exponent(list(clean), list(clean.values()))
    print(f"c02: clean |S_e - S_o| decays with log-log slope {slope:.3f}")
    assert -1.15 <= slope <= -0.85

    defect = abs_deltas(0.8)
    top = {n: d for n, d in defect.items() if n >= C02_SIZES[-1] // 2}
    variation = max(top.values()) - min(top.values())
    plateau = extrapolate_inverse(list(defect), list(defect.values()))
    drift = variation * min(top) * max(top) / (max(top) - min(top))
    # a top set spanning the same size ratio varies by less than 1e-3 once
    # its largest rung exceeds drift * (ratio - 1) / 1e-3
    needed = drift * (max(top) / min(top) - 1.0) / 1e-3
    print(f"c02: defect plateau extrapolates to {plateau:.4f}; top-octave "
          f"sizes {min(top)}..{max(top)} vary by {variation:.2e} "
          f"(~{drift:.2f}/L residual drift; < 1e-3 needs L ~ {needed:.0f})")
    assert variation < 1e-3


def test_c03_antisymmetry_and_boundary_swap(obc_fits, pbc_fits):
    worst = {"ds": 0.0, "df": 0.0, "swap_s": 0.0, "swap_f": 0.0}
    clean_ent, clean_flu = pbc_fits[1.0]
    for lam, inv in INVERSES.items():
        for idx, key in ((0, "ds"), (1, "df")):
            d_lam = obc_fits[lam][idx].delta
            d_inv = obc_fits[inv][idx].delta
            worst[key] = max(worst[key], abs(d_lam + d_inv))
        for idx, clean, key in ((0, clean_ent, "swap_s"), (1, clean_flu, "swap_f")):
            parts = {x: boundary_part(obc_fits[x][idx], pbc_fits[x][idx], clean)
                     for x in (lam, inv)}
            worst[key] = max(worst[key], abs(parts[lam][0] - parts[inv][1]),
                             abs(parts[lam][1] - parts[inv][0]))
    print(f"c03: antisymmetry residuals dS {worst['ds']:.2e}, dF {worst['df']:.2e}; "
          f"boundary swap S {worst['swap_s']:.2e}, F {worst['swap_f']:.2e}")
    assert worst["ds"] <= 0.01
    assert worst["df"] <= 0.005
    assert worst["swap_s"] <= 0.01
    assert worst["swap_f"] <= 0.005


def test_c04_slope_at_unity(slope_tables):
    targets = {2: (0.636779, 0.271377), 3: (0.642286, 0.273147)}
    measured = {}
    for den, (s_ref, f_ref) in targets.items():
        s_fit = _richardson(slope_tables[den], 0)
        f_fit = _richardson(slope_tables[den], 1)
        measured[den] = (s_fit, f_fit)
        print(f"c04: aspect 1/{den} slopes S {s_fit:.6f} (ref {s_ref}), "
              f"F {f_fit:.6f} (ref {f_ref})")
    for den, (s_ref, f_ref) in targets.items():
        s_fit, f_fit = measured[den]
        assert abs(s_fit - s_ref) <= 0.01 * s_ref
        assert abs(f_fit - f_ref) <= 0.01 * f_ref


def test_c05_quadrature_targets():
    ent = tabulated_entropy_integral()
    flu = tabulated_fluct_integral()
    thin = entropy_slope_integral(0.0)
    half = entropy_slope_integral(0.5)
    print(f"c05: residuals entropy {abs(ent + math.pi / 6):.1e}, "
          f"fluct {abs(flu - 4 * math.pi * math.log(2)):.1e}, "
          f"thin {abs(thin - math.pi / 6):.1e}, half {abs(half - 0.500125):.1e}")
    assert ent == pytest.approx(-math.pi / 6.0, abs=1e-8)
    assert flu == pytest.approx(4.0 * math.pi * math.log(2.0), abs=1e-6)
    assert thin == pytest.approx(math.pi / 6.0, abs=1e-4)
    assert half == pytest.approx(0.500125, abs=5e-4)


def test_c06_special_function_identities():
    grid = np.linspace(0.02, 0.98, 97)
    refl = max(abs(dilog(z) + dilog(1.0 - z) - math.pi**2 / 6.0
                   + math.log(z) * math.log(1.0 - z)) for z in grid)
    forms = max(abs(effective_central_charge(s) - effective_central_charge_alt(s))
                for s in grid)
    unity = abs(effective_central_charge(1.0) - 1.0)
    print(f"c06: reflection {refl:.1e}, two forms {forms:.1e}, c_eff(1)-1 {unity:.1e}")
    assert refl <= 1e-11
    assert forms <= 1e-10
    assert unity <= 1e-12


def test_c07_block_collapse_and_plateaus():
    ratios = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    sizes = (400, 800, 1600)

    def extrapolated(table, ratio_grid):
        out = {}
        for r in ratio_grid:
            out[r] = tuple(
                extrapolate_inverse(sizes, [table[(r, n)][i] for n in sizes])
                for i in (0, 1))
        return out

    worst_s = worst_f = 0.0
    plateau_s = plateau_f = 0.0
    for n_imp in (3, 5):
        block = extrapolated(
            _splitting_table(ratios, sizes, 2, n_imp),
            ratios)
        strengths = [r**n_imp for r in ratios]
        single = extrapolated(
            _splitting_table(strengths, sizes, 2), strengths)
        for r in ratios:
            ds, df = block[r]
            ds1, df1 = single[r**n_imp]
            worst_s = max(worst_s, abs(ds - ds1))
            worst_f = max(worst_f, abs(df - df1))
            if r**n_imp <= 0.1:
                plateau_s = max(plateau_s, abs(abs(ds) - math.log(2.0)))
                plateau_f = max(plateau_f, abs(abs(df) - 0.25))
    print(f"c07: collapse residuals S {worst_s:.2e}, F {worst_f:.2e}; "
          f"plateau deficits S {plateau_s:.2e}, F {plateau_f:.2e}")
    assert worst_s <= 0.02
    assert worst_f <= 0.01
    assert plateau_s <= 0.02
    assert plateau_f <= 0.02


def test_c08_fock_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst_s = worst_f = 0.0
    for _ in range(50):
        n = int(rng.choice([6, 8, 10]))
        boundary = "open" if rng.random() < 0.7 or n % 4 == 0 else "periodic"
        bond = int(rng.integers(1, n - 2))
        ratio = float(rng.uniform(0.2, 2.0))
        kind = rng.integers(3)
        if kind == 0:
            pattern = alternating_block(ratio, 1, 2)
        elif kind == 1:
            pattern = dot_impurity(ratio, bond)
        else:
            pattern = single_impurity(ratio, bond)
        spec = place_pattern(pattern, n, boundary)
        first = int(rng.integers(1, n - 1))
        length = int(rng.integers(1, n - first + 1))
        region = Region(first, length)
        filling = half_filling(spec)
        s_fock, f_fock = fock_region_observables(spec, filling, region)
        g = correlation_matrix(diagonalize(spec), filling)
        obs = region_observables(g, region)
        worst_s = max(worst_s, abs(s_fock - obs.entropy))
        worst_f = max(worst_f, abs(f_fock - obs.fluctuation))
    print(f"c08: route differences S {worst_s:.2e}, F {worst_f:.2e} over 50 specs")
    assert worst_s <= 1e-9
    assert worst_f <= 1e-10


def _crossover(ratio):
    lo = max(8, 4 * round(0.3 / ratio**2 / 4.0))
    hi = int(6.0 / ratio**2)
    sizes = size_ladder(lo, hi, 4, factor=1.25)
    nodes, se, so, fe, fo = _dot_series(ratio, sizes)
    return (dot_crossover(nodes, se, so, ratio),
            dot_crossover(nodes, fe, fo, ratio))


def _single_interior_peak(curve):
    d = curve.delta_slope
    peaks = [i for i in range(1, len(d) - 1)
             if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    return peaks, float(curve.x[d.argmax()])


def test_c09_dot_crossover_collapse():
    ratios = (0.05, 0.1, 0.2)
    curves = {r: _crossover(r) for r in ratios}
    sup = {"S": 0.0, "F": 0.0}
    for a, b in ((0.05, 0.1), (0.1, 0.2), (0.05, 0.2)):
        sup["S"] = max(sup["S"], curve_sup_distance(curves[a][0], curves[b][0]))
        sup["F"] = max(sup["F"], curve_sup_distance(curves[a][1], curves[b][1]))
    peaks = {}
    for r in ratios:
        for label, idx in (("S", 0), ("F", 1)):
            where, x_max = _single_interior_peak(curves[r][idx])
            peaks[(r, label)] = (len(where), x_max)
    print(f"c09: sup distances S {sup['S']:.2e}, F {sup['F']:.2e}; "
          f"peaks {sorted(peaks.items())}")
    assert sup["S"] <= 0.02
    assert sup["F"] <= 0.02
    for (r, label), (count, x_max) in peaks.items():
        assert count == 1, f"ratio {r} {label}: {count} interior maxima"
        # the healing maximum sits at x ~ 1.7 for the entropy rate; the
        # fluctuation rate peaks later (x ~ 3.5, flat top) and is only
        # held to the same qualitative single-peak collapse
        if label == "S":
            assert 0.3 <= x_max <= 3.0, f"ratio {r}: peak at x = {x_max:.2f}"


def test_c10_perturbative_slope(slope_tables):
    sizes = (48, 96, 192, 384)
    half = extrapolate_inverse(
        sizes, [perturbative_fluct_slope(n, n // 2) for n in sizes])
    third = extrapolate_inverse(
        sizes, [perturbative_fluct_slope(n, n // 3) for n in sizes])
    lattice = _richardson(slope_tables[2], 1)
    print(f"c10: first-order slopes {half:.6f} (ref 0.27138), "
          f"{third:.6f} (ref 0.27315); lattice extrapolation {lattice:.6f}")
    assert abs(half - 0.27138) <= 1e-3
    assert abs(third - 0.27315) <= 1e-3
    assert abs(half - lattice) <= 1e-2


def test_c11_homogeneous_fluct_constant(obc_fits):
    target = FLUCT_SERIES_CONSTANT / 2.0
    _, flu = obc_fits[1.0]
    print(f"c11: fitted constants even {flu.const_even:.6f}, "
          f"odd {flu.const_odd:.6f}, series value {target:.6f}")
    assert flu.const_even == pytest.approx(target, abs=1e-3)
    assert flu.const_odd == pytest.approx(target, abs=1e-3)


def test_c12_zero_mode_scaling():
    lam, lead = 0.8, 30
    splittings = {}
    for n_imp in (3, 5, 7):
        spec = place_pattern(alternating_block(lam, lead + 1, n_imp),
                             2 * lead + 2 * n_imp)
        splittings[n_imp] = near_zero_modes(spec).splitting
    r53 = splittings[5] / splittings[3]
    r75 = splittings[7] / splittings[5]
    print(f"c12: splitting ratios {r53:.4f}, {r75:.4f} vs ratio^2 {lam**2}")
    assert abs(r53 / lam**2 - 1.0) <= 0.2
    assert abs(r75 / lam**2 - 1.0) <= 0.2
