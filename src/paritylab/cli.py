"""Command line front end: scenario sweeps to CSV, CSV comparison, self-checks.

Every scenario is driven by a JSON config with embedded defaults
(``lab run --print-config NAME`` prints them).  Output CSVs are
deterministic: rows are sorted, floats carry 17 significant digits, and
line endings are LF regardless of platform, so reruns are byte-identical
and diffable.

Exit codes: 0 success, 1 comparison mismatch, 2 config/usage error,
3 numerical failure (the offending grid point goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .chains import BOUNDARIES, alternating_block, place_pattern
from .fitting import (delta_slope_at_unity, dot_crossover, extrapolate_inverse,
                      window_ratios)
from .scattering import exterior_matching, near_zero_modes, phase_shift
from .spectral import DegenerateFermiLevelError
from .sweeps import (aspect_region, boundary_sweep, bulk_sweep, dot_series,
                     ladder_region, pair_specs, resolve_parallelism, size_ladder,
                     splitting_table)
from .theory import (dilog, effective_central_charge,
                     effective_central_charge_alt, entropy_slope_integral,
                     tabulated_entropy_integral, tabulated_fluct_integral)

SCENARIOS = ("impurity-sweep", "ssh-collapse", "dot-crossover",
             "slope-at-unity", "theory-check", "zero-modes")

DEFAULTS = {
    "impurity-sweep": {
        "scenario": "impurity-sweep",
        "kind": "both",
        "boundary": "open",
        "ratios": [0.2, 0.4, 0.6, 0.8, 1.0],
        "sizes": {"lo": 120, "hi": 1200, "step": 20, "offset": 0},
        "aspect_den": 10,
        "output": "impurity_sweep.csv",
        "parallelism": 1,
    },
    "ssh-collapse": {
        "scenario": "ssh-collapse",
        "kind": "both",
        "n_imps": [1, 3, 5],
        "ratios": [0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "sizes": [400, 800, 1600],
        "aspect_den": 2,
        "output": "ssh_collapse.csv",
        "parallelism": 1,
    },
    "dot-crossover": {
        "scenario": "dot-crossover",
        "kind": "both",
        "ratios": [0.05, 0.1, 0.2],
        "x_lo": 0.3,
        "x_hi": 6.0,
        "ladder_factor": 1.25,
        "output": "dot_crossover.csv",
        "parallelism": 1,
    },
    "slope-at-unity": {
        "scenario": "slope-at-unity",
        "kind": "both",
        "ratios": [0.9, 0.925, 0.95, 0.975, 1.0],
        "sizes": [240, 480, 960],
        "aspect_num": 1,
        "aspect_den": 2,
        "windows": [0.1, 0.05],
        "output": "slope_at_unity.csv",
        "parallelism": 1,
    },
    "theory-check": {
        "scenario": "theory-check",
        "output": "theory_check.csv",
    },
    "zero-modes": {
        "scenario": "zero-modes",
        "ratio": 0.8,
        "lead": 30,
        "n_imps": [3, 5, 7],
        "output": "zero_modes.csv",
    },
}


class ConfigError(ValueError):
    """Invalid scenario configuration (exit code 2)."""


class ScenarioError(RuntimeError):
    """Numerical failure at a named grid point (exit code 3)."""


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in sorted(rows):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; pick from {', '.join(SCENARIOS)}")
    merged = dict(DEFAULTS[scenario])
    unknown = set(config) - set(merged)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged.update(config)
    return merged


def _number(cast, config, key):
    try:
        return cast(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {config[key]!r}") from exc


def _number_list(cast, config, key) -> list:
    values = config[key]
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    try:
        return [cast(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {values!r}") from exc


def _sizes_from(config) -> list[int]:
    sizes = config["sizes"]
    if isinstance(sizes, dict):
        try:
            sizes = size_ladder(sizes["lo"], sizes["hi"], sizes["step"],
                                sizes.get("offset", 0), sizes.get("factor", 1.15))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad sizes ladder: {exc}") from exc
    else:
        sizes = _number_list(int, config, "sizes")
    if not sizes:
        raise ConfigError("empty size ladder")
    return sizes


def _check_ratios(config) -> list[float]:
    ratios = _number_list(float, config, "ratios")
    if not ratios:
        raise ConfigError("empty ratio grid")
    if not all(0 < r < math.inf for r in ratios):
        raise ConfigError("ratios must be positive and finite")
    return ratios


def _check_pairs(kind: str, sizes, region_len, boundary: str = "open",
                 n_imp: int = 1) -> None:
    """Config error unless every size places its even/odd pair.

    region_len maps a size to its even subsystem length.  Only the chains
    are built, so a bad geometry is reported before any solve.
    """
    for n_sites in sizes:
        try:
            pair_specs(kind, 1.0, n_sites, region_len(n_sites), boundary, n_imp)
        except ValueError as exc:
            raise ConfigError(f"n_sites={n_sites}: {exc}") from exc


def _parallelism(config) -> int:
    try:
        return resolve_parallelism(_number(int, config, "parallelism"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _value_columns(kind: str) -> list[str]:
    if kind not in ("entropy", "fluctuation", "both"):
        raise ConfigError(f"kind must be entropy, fluctuation or both, got {kind!r}")
    return ["entropy", "fluctuation"] if kind == "both" else [kind]


def _run_impurity_sweep(config) -> tuple[list[str], list[tuple]]:
    ratios = _check_ratios(config)
    sizes = _sizes_from(config)
    aspect_den = _number(int, config, "aspect_den")
    if aspect_den < 2:
        raise ConfigError(f"aspect_den must be at least 2, got {aspect_den}")
    boundary = config["boundary"]
    if boundary not in BOUNDARIES:
        raise ConfigError(f"boundary must be open or periodic, got {boundary!r}")
    if boundary == "periodic" and any(n % 4 != 2 for n in sizes):
        raise ConfigError("periodic sizes must be 2 mod 4")
    _check_pairs("single", sizes, lambda n: ladder_region(n, aspect_den), boundary)
    value_cols = _value_columns(config["kind"])
    parallelism = _parallelism(config)

    rows = []
    for ratio in ratios:
        try:
            if boundary == "open":
                samples = boundary_sweep("single", ratio, sizes, aspect_den,
                                         parallelism=parallelism)
            else:
                samples = bulk_sweep(ratio, sizes, aspect_den, parallelism=parallelism)
        except (DegenerateFermiLevelError, np.linalg.LinAlgError) as exc:
            raise ScenarioError(f"ratio={ratio:g} sizes={sizes[0]}..{sizes[-1]}: {exc}") from exc
        for s in samples:
            values = tuple(getattr(s, c) for c in value_cols)
            rows.append(("impurity-sweep", s.ratio, s.n_sites, s.region_len,
                         s.parity) + values)
    return ["scenario", "ratio", "n_sites", "region_len", "parity"] + value_cols, rows


def _run_ssh_collapse(config) -> tuple[list[str], list[tuple]]:
    ratios = _check_ratios(config)
    sizes = _sizes_from(config)
    aspect_den = _number(int, config, "aspect_den")
    if aspect_den < 2:
        raise ConfigError(f"aspect_den must be at least 2, got {aspect_den}")
    n_imps = _number_list(int, config, "n_imps")
    if not n_imps or any(n < 1 or n % 2 == 0 for n in n_imps):
        raise ConfigError("n_imps must be odd positive integers")
    parallelism = _parallelism(config)
    blocks = [("single" if n_imp == 1 else "alternating", n_imp) for n_imp in n_imps]
    for kind, n_imp in blocks:
        _check_pairs(kind, sizes, lambda n: aspect_region(n, 1, aspect_den), n_imp=n_imp)

    rows = []
    for kind, n_imp in blocks:
        try:
            table = splitting_table(kind, ratios, sizes, 1, aspect_den,
                                    n_imp=n_imp, parallelism=parallelism)
        except (DegenerateFermiLevelError, ValueError) as exc:
            raise ScenarioError(f"n_imp={n_imp} sizes={sizes}: {exc}") from exc
        for ratio in ratios:
            d_s = extrapolate_inverse(sizes, [table[(ratio, n)][0] for n in sizes])
            d_f = extrapolate_inverse(sizes, [table[(ratio, n)][1] for n in sizes])
            rows.append(("ssh-collapse", n_imp, ratio, ratio**n_imp, d_s, d_f))
    return (["scenario", "n_imp", "ratio", "strength", "delta_entropy",
             "delta_fluct"], rows)


def _dot_ladder(ratio: float, x_lo: float, x_hi: float, factor: float) -> list[int]:
    if not all(math.isfinite(v) for v in (x_lo, x_hi, factor)):
        raise ConfigError(f"x_lo, x_hi and ladder_factor must be finite, "
                          f"got {x_lo}, {x_hi}, {factor}")
    if not 0 < x_lo < x_hi:
        raise ConfigError(f"need 0 < x_lo < x_hi, got {x_lo}, {x_hi}")
    if factor <= 1.0 or factor > 1.5:
        raise ConfigError(f"ladder_factor must be in (1, 1.5], got {factor}")
    sizes = []
    # 8 sites is the smallest chain whose shifted dot still fits
    x = max(x_lo / ratio**2, 8.0)
    while x <= x_hi / ratio**2:
        n = max(8, 4 * round(x / 4))
        if not sizes or n > sizes[-1]:
            sizes.append(int(n))
        x *= factor
    if len(sizes) < 5:
        raise ConfigError(f"ratio={ratio:g}: x window too narrow for a ladder")
    return sizes


def _run_dot_crossover(config) -> tuple[list[str], list[tuple]]:
    ratios = _check_ratios(config)
    parallelism = _parallelism(config)
    rows = []
    for ratio in ratios:
        sizes = _dot_ladder(ratio, _number(float, config, "x_lo"),
                            _number(float, config, "x_hi"),
                            _number(float, config, "ladder_factor"))
        try:
            nodes, s_even, s_odd, f_even, f_odd = dot_series(ratio, sizes,
                                                             parallelism=parallelism)
        except (DegenerateFermiLevelError, np.linalg.LinAlgError) as exc:
            raise ScenarioError(f"ratio={ratio:g} sizes={sizes[0]}..{sizes[-1]}: {exc}") from exc
        curve_s = dot_crossover(nodes, s_even, s_odd, ratio)
        curve_f = dot_crossover(nodes, f_even, f_odd, ratio)
        for n, x, ds, df in zip(sizes[1:-1], curve_s.x, curve_s.delta_slope,
                                curve_f.delta_slope):
            rows.append(("dot-crossover", ratio, n, x, ds, df))
    return (["scenario", "ratio", "n_sites", "x", "dslope_entropy",
             "dslope_fluct"], rows)


def _run_slope_at_unity(config) -> tuple[list[str], list[tuple]]:
    ratios = _check_ratios(config)
    sizes = _sizes_from(config)
    windows = _number_list(float, config, "windows")
    if len(windows) < 2 or not all(0 < w < math.inf for w in windows):
        raise ConfigError("need at least two positive finite fit windows")
    if windows[0] == windows[-1]:
        raise ConfigError("first and last fit windows must differ")
    for w in windows:
        if len(window_ratios(set(ratios), w)) < 2:
            raise ConfigError(f"fit window {w:g} holds fewer than two ratios in [{1 - w:g}, 1]")
    if len(set(sizes)) < 2:
        raise ConfigError("need at least two sizes to extrapolate the slopes")
    aspect_num = _number(int, config, "aspect_num")
    aspect_den = _number(int, config, "aspect_den")
    if aspect_num < 1 or aspect_den < 1:
        raise ConfigError(f"aspect must be positive, got {aspect_num}/{aspect_den}")
    _check_pairs("single", sizes, lambda n: aspect_region(n, aspect_num, aspect_den))
    parallelism = _parallelism(config)
    kinds = _value_columns(config["kind"])

    try:
        table = splitting_table("single", ratios, sizes, aspect_num, aspect_den,
                                parallelism=parallelism)
    except (DegenerateFermiLevelError, ValueError) as exc:
        raise ScenarioError(f"ratios={ratios} sizes={sizes}: {exc}") from exc
    rows = []
    for idx, kind in ((0, "entropy"), (1, "fluctuation")):
        if kind not in kinds:
            continue
        deltas = {key: val[idx] for key, val in table.items()}
        try:
            slopes = delta_slope_at_unity(deltas, windows)
        except ValueError as exc:
            raise ScenarioError(f"kind={kind}: {exc}") from exc
        for eps, slope in slopes:
            rows.append(("slope-at-unity", kind, eps, slope))
        (w1, s1), (w2, s2) = slopes[0], slopes[-1]
        rows.append(("slope-at-unity", kind, 0.0, (s2 * w1 - s1 * w2) / (w1 - w2)))
    return ["scenario", "kind", "window", "slope"], rows


def _run_zero_modes(config) -> tuple[list[str], list[tuple]]:
    ratio = _number(float, config, "ratio")
    if not 0 < ratio < math.inf:
        raise ConfigError("ratio must be positive and finite")
    lead = _number(int, config, "lead")
    if lead < 2:
        raise ConfigError(f"lead must be at least 2 sites, got {lead}")
    n_imps = _number_list(int, config, "n_imps")
    if not n_imps or any(n < 1 or n % 2 == 0 for n in n_imps):
        raise ConfigError("n_imps must be odd positive integers")
    rows = []
    for n_imp in n_imps:
        n_sites = 2 * lead + 2 * n_imp
        spec = place_pattern(alternating_block(ratio, lead + 1, n_imp), n_sites)
        try:
            modes = near_zero_modes(spec)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise ScenarioError(f"n_imp={n_imp} n_sites={n_sites}: {exc}") from exc
        rows.append(("zero-modes", n_imp, n_sites, ratio, modes.splitting))
    return ["scenario", "n_imp", "n_sites", "ratio", "splitting"], rows


def theory_check_rows() -> tuple[list[str], list[tuple]]:
    """Closed-form identity residuals, their tolerances and an ok/fail status."""
    checks = []

    s_grid = np.linspace(0.05, 0.95, 19)
    refl = max(abs(dilog(s * s) + dilog(1.0 - s * s)
                   - math.pi**2 / 6.0 + math.log(s * s) * math.log(1.0 - s * s))
               for s in s_grid)
    checks.append(("dilog-reflection", refl, 0.0, 1e-11))

    two_forms = max(abs(effective_central_charge(s) - effective_central_charge_alt(s))
                    for s in s_grid)
    checks.append(("ceff-two-forms", two_forms, 0.0, 1e-10))
    checks.append(("ceff-at-unity", effective_central_charge(1.0), 1.0, 1e-12))

    checks.append(("entropy-quadrature", tabulated_entropy_integral(),
                   -math.pi / 6.0, 1e-8))
    checks.append(("fluct-quadrature", tabulated_fluct_integral(),
                   4.0 * math.pi * math.log(2.0), 1e-6))
    checks.append(("entropy-slope-thin", entropy_slope_integral(0.0),
                   math.pi / 6.0, 1e-4))
    checks.append(("entropy-slope-half", entropy_slope_integral(0.5),
                   0.500125, 5e-4))

    shift = phase_shift(0.8)
    checks.append(("phase-shift-cosine", math.cos(shift.shift),
                   shift.transmission, 1e-12))
    rot = exterior_matching(0.8, "even")
    checks.append(("matching-orthogonal",
                   float(np.abs(rot @ rot.T - np.eye(2)).max()), 0.0, 1e-12))

    rows = []
    for name, value, reference, tol in checks:
        residual = abs(value - reference)
        status = "ok" if residual <= tol else "fail"
        rows.append((name, float(value), float(reference), residual, tol, status))
    return ["check", "value", "reference", "residual", "tolerance", "status"], rows


def _check_exit_code(rows: list[tuple]) -> int:
    """3 if any theory-check row failed, each failure named on stderr; else 0."""
    failed = [row for row in rows if row[-1] == "fail"]
    for name, _, _, residual, tol, _ in failed:
        print(f"check {name} failed: residual {residual:.3e} > {tol:.0e}",
              file=sys.stderr)
    return 3 if failed else 0


_RUNNERS = {
    "impurity-sweep": _run_impurity_sweep,
    "ssh-collapse": _run_ssh_collapse,
    "dot-crossover": _run_dot_crossover,
    "slope-at-unity": _run_slope_at_unity,
    "theory-check": lambda config: theory_check_rows(),
    "zero-modes": _run_zero_modes,
}


def cmd_run(args) -> int:
    if args.print_config:
        if args.print_config not in SCENARIOS:
            print(f"unknown scenario {args.print_config!r}", file=sys.stderr)
            return 2
        print(json.dumps(DEFAULTS[args.print_config], indent=2))
        return 0
    if not args.config:
        print("either a config path or --print-config is required", file=sys.stderr)
        return 2
    try:
        config = _load_config(args.config)
        header, rows = _RUNNERS[config["scenario"]](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"numerical failure at {exc}", file=sys.stderr)
        return 3
    path = config["output"]
    write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return _check_exit_code(rows) if config["scenario"] == "theory-check" else 0


def cmd_theory_check(args) -> int:
    _, rows = theory_check_rows()
    width = max(len(r[0]) for r in rows)
    for name, value, reference, residual, tol, status in rows:
        print(f"{name:<{width}}  value={value: .12e}  ref={reference: .12e}  "
              f"residual={residual:.3e}  tol={tol:.0e}  {status}")
    code = _check_exit_code(rows)
    if code == 0:
        print("all identity checks passed")
    return code


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise ConfigError(f"{path} is empty")
    return header, rows


def cmd_compare(args) -> int:
    try:
        header_a, rows_a = _read_csv(args.a)
        header_b, rows_b = _read_csv(args.b)
        if header_a != header_b:
            raise ConfigError(f"schema mismatch: {header_a} vs {header_b}")
        keys = args.keys.split(",")
        missing = [k for k in keys if k not in header_a]
        if missing:
            raise ConfigError(f"key columns not in schema: {', '.join(missing)}")
        if args.values:
            value_cols = args.values.split(",")
            missing = [c for c in value_cols if c not in header_a]
            if missing:
                raise ConfigError(f"value columns not in schema: {', '.join(missing)}")
        else:
            value_cols = [c for c in header_a if c not in keys]
        key_idx = [header_a.index(k) for k in keys]
        val_idx = [header_a.index(c) for c in value_cols]

        def index(rows, path):
            table = {}
            for row in rows:
                key = tuple(row[i] for i in key_idx)
                if key in table:
                    raise ConfigError(f"{path}: duplicate key {key}")
                table[key] = row
            return table

        table_a = index(rows_a, args.a)
        table_b = index(rows_b, args.b)
    except ConfigError as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return 2

    shared = sorted(set(table_a) & set(table_b))
    if not shared:
        print("no shared keys", file=sys.stderr)
        return 1
    bad = 0
    for key in shared:
        for col, i in zip(value_cols, val_idx):
            va, vb = table_a[key][i], table_b[key][i]
            try:
                ok = abs(float(va) - float(vb)) <= args.tol
            except ValueError:
                ok = va == vb
            if not ok:
                bad += 1
                if bad <= 20:
                    print(f"key {key} column {col}: {va} vs {vb}", file=sys.stderr)
    print(f"compared {len(shared)} shared keys, {bad} mismatches")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Parity-effect sweeps for defect chains: run scenarios, "
                    "compare CSVs, self-check theory identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config", nargs="?", help="path to scenario config")
    p_run.add_argument("--print-config", metavar="SCENARIO",
                       help="print the default config for a scenario and exit")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two scenario CSVs")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--keys", required=True,
                       help="comma-separated key columns matching rows across files")
    p_cmp.add_argument("--values", default=None,
                       help="comma-separated value columns (default: all non-key)")
    p_cmp.add_argument("--tol", type=float, default=1e-12,
                       help="absolute tolerance on numeric columns")
    p_cmp.set_defaults(fn=cmd_compare)

    p_check = sub.add_parser("theory-check",
                             help="verify closed-form identities and quadratures")
    p_check.set_defaults(fn=cmd_theory_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
