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
import functools
import json
import math
import os
import sys

import numpy as np

from .chains import BOUNDARIES, PARITIES, alternating_block, place_pattern
from .fitting import (delta_slope_at_unity, dot_crossover, extrapolate_inverse,
                      window_ratios)
from .scattering import exterior_matching, phase_shift
from .spectral import sublattice_singular_values
from .sweeps import aspect_region, dot_pair, ladder_region, measure, pair_specs, size_ladder
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


# Largest chain a plan may hold.  One solve's peak memory above the
# imported interpreter (~60 MB), in bytes per L^2, by the route the plan
# takes, the largest over region lengths (ru_maxrss of one `sweeps.measure`):
# - "open": half-filled open chains, torn at the border of the region or of
#   its complement, whichever is shorter (`spectral.half_filled_block`);
#   the peak grows with that side, to 77.7 MiB (1.71 L^2) at l = L/2 for
#   6900 sites;
# - "periodic": bond-centred rings, every ring a sweep plans, which solve
#   one mirror sector of L/2 sites, torn after the region's last row while
#   that row lies in the sector's first half: 143 MB above the interpreter
#   for 6002 sites at l = L/10, 161 MB at l = L/4, the largest torn region,
#   and 170 MB (4.7 L^2) at l = L/2, where the whole sector takes `stevd`.
# The zero-modes scan takes B's singular values alone, in O(L) memory.
PEAK_BYTES = {"open": 1.8, "periodic": 4.7}
MAX_SITES = 10_000


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
    """The scenario's defaults overlaid by the config file, every value parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    defaults = DEFAULTS[_parse("scenario", config.get("scenario"))]
    unknown = set(config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return {key: _parse(key, config.get(key, value)) for key, value in defaults.items()}


def _list(cast, merge=False):
    """Parser of a JSON list; merge drops repeated grid values, first-seen order kept."""
    def parse(values):
        if not isinstance(values, list):
            raise TypeError("not a list")
        items = tuple(cast(v) for v in values)
        return tuple(dict.fromkeys(items)) if merge else items
    return parse


def _integer(value) -> int:
    """A JSON integer as it stands: a float, string or boolean is refused,
    not rounded or parsed into one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def _real(value) -> float:
    """A JSON number as a float: a string or boolean is refused, not parsed
    into one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    return float(value)


def _sizes(value):
    if isinstance(value, dict):
        return tuple(size_ladder(**{key: _real(v) if key == "factor" else _integer(v)
                                    for key, v in value.items()}))
    return _list(_integer, merge=True)(value)


def resolve_parallelism(parallelism: int) -> int:
    """Worker count, overridable through the LAB_THREADS variable."""
    env = os.environ.get("LAB_THREADS")
    try:
        parallelism = parallelism if env is None else int(env)
    except ValueError as err:
        raise ValueError(f"LAB_THREADS must be an integer, got {env!r}") from err
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    return parallelism


def _positive(x) -> bool:
    return 0 < x < math.inf


def _writable(path) -> bool:
    return (isinstance(path, str) and path != "" and not os.path.isdir(path)
            and os.path.isdir(os.path.dirname(path) or "."))


# One entry per config key: (cast, ok, need).  cast turns the JSON value
# into the parsed one and may raise; ok checks the result against need.
_KEYS = {
    "scenario": (str, SCENARIOS.__contains__, "one of " + ", ".join(SCENARIOS)),
    "kind": (str, ("entropy", "fluctuation", "both").__contains__,
             "entropy, fluctuation or both"),
    "boundary": (str, BOUNDARIES.__contains__, "open or periodic"),
    "ratio": (_real, _positive, "positive and finite"),
    "ratios": (_list(_real, merge=True), lambda rs: rs and all(map(_positive, rs)),
               "a non-empty list of positive and finite ratios"),
    "sizes": (_sizes, bool, "a non-empty list or ladder of sizes"),
    "n_imps": (_list(_integer, merge=True), lambda ns: ns and all(n > 0 and n % 2 for n in ns),
               "a non-empty list of odd positive integers"),
    "aspect_num": (_integer, lambda n: n >= 1, "at least 1"),
    "aspect_den": (_integer, lambda n: n >= 2, "at least 2"),
    "lead": (_integer, lambda n: n >= 2, "at least 2 sites"),
    "x_lo": (_real, _positive, "positive and finite"),
    "x_hi": (_real, _positive, "positive and finite"),
    "ladder_factor": (_real, lambda f: 1.0 < f <= 1.5, "in (1, 1.5]"),
    # not a grid: the first and last windows set the extrapolation
    "windows": (_list(_real), lambda ws: len(ws) >= 2 and all(map(_positive, ws))
                and ws[0] != ws[-1], "two or more positive and finite fit windows, "
                "the first and last different"),
    "output": (lambda path: path, _writable, "a file path in an existing directory"),
    # LAB_THREADS may override the configured count, so resolve before checking
    "parallelism": (lambda n: resolve_parallelism(_integer(n)),
                    lambda n: n <= (os.cpu_count() or 1),
                    "at most os.cpu_count() after any LAB_THREADS override"),
}


def _parse(key: str, value):
    cast, ok, need = _KEYS[key]
    try:
        parsed = cast(value)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    if not ok(parsed):
        raise ConfigError(f"{key} must be {need}, got {value!r}")
    return parsed


def _pick(kind: str, pair: tuple) -> tuple:
    """The entropy and/or fluctuation member of a pair, as kind selects."""
    return {"entropy": pair[:1], "fluctuation": pair[1:], "both": pair}[kind]


def _check_size(n_sites, route: str | None, where: str = "") -> None:
    """Config error if a chain of n_sites is above MAX_SITES, quoting the
    memory that route ("open" or "periodic") would take, if any."""
    if n_sites > MAX_SITES:
        n = n_sites if n_sites < 1e150 else math.inf  # no float overflow on huge ints
        memory = f" (~{PEAK_BYTES[route] * 1e-9 * n * n:.3g} GB to solve)" if route else ""
        raise ConfigError(f"{where}n_sites={n:.6g} is above MAX_SITES={MAX_SITES}{memory}")


# Planners: each takes a parsed config, checks what its scenario needs across
# keys, builds every chain it will solve and returns (header, jobs, rows).
# jobs holds (grid-point label, function, args); a sweep's jobs are
# sweeps.measure on (chain, region_len), two per grid point, its even chain
# and then its odd chain, which share the point's label.  rows(results) turns
# the result of every job, in job order, into CSV rows.  A planner raises
# only ConfigError and never solves.

def _pair_jobs(label: str, route: str, place, n_sites: int, *args) -> list:
    """The jobs of one grid point: place(n_sites, *args) returns l and the
    (even, odd) chains, measured on l and l + 1 sites.  What place refuses is
    a config error naming the grid point; every chain is held to MAX_SITES."""
    _check_size(n_sites, route)
    try:
        region_len, (even, odd) = place(n_sites, *args)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    _check_size(max(even.n_sites, odd.n_sites), route)
    return [(label, measure, (even, region_len)), (label, measure, (odd, region_len + 1))]


def _splittings(results) -> list[tuple[float, float]]:
    """(delta S, delta F), even minus odd, of each grid point's two results."""
    return [(s_even - s_odd, f_even - f_odd)
            for (s_even, f_even), (s_odd, f_odd) in zip(results[::2], results[1::2])]


def _plan_impurity_sweep(c):
    aspect_den, boundary = c["aspect_den"], c["boundary"]

    def place(n, ratio):
        region_len = ladder_region(n, aspect_den)
        return region_len, pair_specs(ratio, n, region_len, boundary)
    jobs = [job for r in c["ratios"] for n in c["sizes"]
            for job in _pair_jobs(f"ratio={r:g} n_sites={n}", boundary, place, n, r)]
    keys = [(r, parity) for r in c["ratios"] for _ in c["sizes"] for parity in PARITIES]

    def rows(results):
        return [("impurity-sweep", r, spec.n_sites, ell, parity) + _pick(c["kind"], values)
                for (r, parity), (_, _, (spec, ell)), values in zip(keys, jobs, results)]
    return (["scenario", "ratio", "n_sites", "region_len", "parity",
             *_pick(c["kind"], ("entropy", "fluctuation"))], jobs, rows)


def _splitting_jobs(c, n_imps, aspect_num: int) -> list:
    """Jobs of an n_imp-bond block at fixed aspect, per (n_imp, ratio, size),
    for fits over sizes."""
    sizes, aspect_den = c["sizes"], c["aspect_den"]
    if len(sizes) < 2:
        raise ConfigError("need at least two distinct sizes to extrapolate")

    def place(n, ratio, n_imp):
        region_len = aspect_region(n, aspect_num, aspect_den)
        return region_len, pair_specs(ratio, n, region_len, "open", n_imp)
    return [job for n_imp in n_imps for r in c["ratios"] for n in sizes
            for job in _pair_jobs(f"n_imp={n_imp} ratio={r:g} n_sites={n}", "open",
                                  place, n, r, n_imp)]


def _plan_ssh_collapse(c):
    ratios, sizes, n_imps = c["ratios"], c["sizes"], c["n_imps"]

    def rows(results):
        out, deltas = [], iter(_splittings(results))
        for n_imp in n_imps:
            for ratio in ratios:
                d_s, d_f = zip(*[next(deltas) for _ in sizes])
                out.append(("ssh-collapse", n_imp, ratio, ratio**n_imp)
                           + _pick(c["kind"], (extrapolate_inverse(sizes, d_s),
                                               extrapolate_inverse(sizes, d_f))))
        return out
    return (["scenario", "n_imp", "ratio", "strength",
             *_pick(c["kind"], ("delta_entropy", "delta_fluct"))],
            _splitting_jobs(c, n_imps, 1), rows)


def _dot_ladder(ratio: float, x_lo: float, x_hi: float, factor: float) -> list[int]:
    r2 = ratio * ratio  # saturates to inf where ratio**2 would raise
    if x_hi > MAX_SITES * r2:  # before dividing: r2 underflows to 0 below ratio ~1e-162
        _check_size(x_hi / ratio / ratio, "open", f"ratio={ratio:g} x_hi={x_hi:g}: ")
    sizes = []
    # 8 sites is the smallest chain whose shifted dot still fits
    x = max(x_lo / r2, 8.0)
    while x <= x_hi / r2:
        n = max(8, 4 * round(x / 4))
        if not sizes or n > sizes[-1]:
            sizes.append(int(n))
        x *= factor
    if len(sizes) < 5:
        raise ConfigError(f"ratio={ratio:g}: x window too narrow for a ladder")
    return sizes


def _plan_dot_crossover(c):
    x_lo, x_hi = c["x_lo"], c["x_hi"]
    if not x_lo < x_hi:
        raise ConfigError(f"need x_lo < x_hi, got {x_lo}, {x_hi}")
    ladders = {r: tuple(_dot_ladder(r, x_lo, x_hi, c["ladder_factor"])) for r in c["ratios"]}
    jobs = [job for r, sizes in ladders.items() for n in sizes
            for job in _pair_jobs(f"ratio={r:g} n_sites={n}", "open",
                                  lambda n, ratio: (n // 2, dot_pair(ratio, n)), n, r)]

    def rows(results):
        out, pairs = [], iter(zip(results[::2], results[1::2]))
        for ratio, sizes in ladders.items():
            even, odd = zip(*[next(pairs) for _ in sizes])
            (s_even, f_even), (s_odd, f_odd) = zip(*even), zip(*odd)
            nodes = np.log(np.asarray(sizes, dtype=float) + 1.0)
            curve_s = dot_crossover(nodes, s_even, s_odd, ratio)
            curve_f = dot_crossover(nodes, f_even, f_odd, ratio)
            for n, x, ds, df in zip(sizes[1:-1], curve_s.x, curve_s.delta_slope,
                                    curve_f.delta_slope):
                out.append(("dot-crossover", ratio, n, x) + _pick(c["kind"], (ds, df)))
        return out
    return (["scenario", "ratio", "n_sites", "x",
             *_pick(c["kind"], ("dslope_entropy", "dslope_fluct"))], jobs, rows)


def _plan_slope_at_unity(c):
    windows = c["windows"]
    for w in windows:
        if len(window_ratios(c["ratios"], w)) < 2:
            raise ConfigError(f"fit window {w:g} holds fewer than two ratios in [{1 - w:g}, 1]")

    keys = [(r, n) for r in c["ratios"] for n in c["sizes"]]

    def rows(results):
        out, deltas = [], _splittings(results)
        for idx, kind in _pick(c["kind"], ((0, "entropy"), (1, "fluctuation"))):
            table = {key: d[idx] for key, d in zip(keys, deltas)}
            slopes = delta_slope_at_unity(table, windows)
            out.extend(("slope-at-unity", kind, eps, slope) for eps, slope in slopes)
            (w1, s1), (w2, s2) = slopes[0], slopes[-1]
            out.append(("slope-at-unity", kind, 0.0, (s2 * w1 - s1 * w2) / (w1 - w2)))
        return out
    return (["scenario", "kind", "window", "slope"],
            _splitting_jobs(c, [1], c["aspect_num"]), rows)


def _plan_zero_modes(c):
    ratio, lead = c["ratio"], c["lead"]
    chains = {n_imp: 2 * lead + 2 * n_imp for n_imp in c["n_imps"]}
    _check_size(max(chains.values()), None)
    jobs = tuple((f"n_imp={n_imp} n_sites={n_sites}", sublattice_singular_values,
                  (place_pattern(alternating_block(ratio, lead + 1, n_imp), n_sites),))
                 for n_imp, n_sites in chains.items())
    # the in-gap pair is -+sigma_min, so its splitting is 2 sigma_min
    return (["scenario", "n_imp", "n_sites", "ratio", "splitting"], jobs,
            lambda sigmas: [("zero-modes", n_imp, n_sites, ratio, 2.0 * sigma[0])
                            for (n_imp, n_sites), sigma in zip(chains.items(), sigmas)])


_CHECK_HEADER = ("check", "value", "reference", "residual", "tolerance", "status")


def _plan_theory_check(c):
    jobs = (("theory-check", theory_check_rows, ()),)
    return list(_CHECK_HEADER), jobs, lambda results: results[0]


def theory_check_rows() -> list[tuple]:
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
                   -math.pi / 6.0, 1e-13))
    checks.append(("fluct-quadrature", tabulated_fluct_integral(),
                   4.0 * math.pi * math.log(2.0), 1e-12))
    checks.append(("entropy-slope-thin", entropy_slope_integral(0.0),
                   math.pi / 6.0, 1e-13))
    checks.append(("entropy-slope-half", entropy_slope_integral(0.5), 0.5, 1e-13))

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
    return rows


def _check_exit_code(rows: list[tuple]) -> int:
    """3 if any theory-check row failed, each failure named on stderr; else 0."""
    failed = [row for row in rows if row[-1] == "fail"]
    for name, _, _, residual, tol, _ in failed:
        print(f"check {name} failed: residual {residual:.3e} > {tol:.0e}",
              file=sys.stderr)
    return 3 if failed else 0


_PLANNERS = {
    "impurity-sweep": _plan_impurity_sweep,
    "ssh-collapse": _plan_ssh_collapse,
    "dot-crossover": _plan_dot_crossover,
    "slope-at-unity": _plan_slope_at_unity,
    "theory-check": _plan_theory_check,
    "zero-modes": _plan_zero_modes,
}


def _execute(jobs, rows, parallelism: int = 1) -> list[tuple]:
    """Run every job, serially or on one pool of at most parallelism workers,
    then rows on the results in job order.  A failure names the grid point of
    the first failing job in job order; the pool drops the jobs still pending."""
    pool = None
    if parallelism > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~20 ms on every `lab` start
        # the pool starts every worker at once, so start no idle ones
        pool = ProcessPoolExecutor(max_workers=min(parallelism, len(jobs)))
        calls = [pool.submit(fn, *args).result for _, fn, args in jobs]
    else:
        calls = [functools.partial(fn, *args) for _, fn, args in jobs]
    results = []
    try:
        for (label, _, _), call in zip(jobs, calls):
            results.append(call())
        label = "fits"
        return rows(results)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ScenarioError(f"{label}: {exc}") from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def cmd_run(args) -> int:
    try:
        if args.print_config:
            print(json.dumps(DEFAULTS[_parse("scenario", args.print_config)], indent=2))
            return 0
        if not args.config:
            raise ConfigError("either a config path or --print-config is required")
        config = _load_config(args.config)
        header, jobs, rows = _PLANNERS[config["scenario"]](config)
        rows = _execute(jobs, rows, config.get("parallelism", 1))
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
    rows = theory_check_rows()
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
    for row in rows:
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {row} does not have the header's {len(header)} cells")
    return header, rows


def cmd_compare(args) -> int:
    try:
        if not args.tol >= 0:  # NaN too
            raise ConfigError(f"--tol must be a non-negative number, got {args.tol}")
        header_a, rows_a = _read_csv(args.a)
        header_b, rows_b = _read_csv(args.b)
        if header_a != header_b:
            raise ConfigError(f"schema mismatch: {header_a} vs {header_b}")
        keys = args.keys.split(",")
        value_cols = (args.values.split(",") if args.values
                      else [c for c in header_a if c not in keys])
        for kind, columns in (("key", keys), ("value", value_cols)):
            missing = [c for c in columns if c not in header_a]
            if missing:
                raise ConfigError(f"{kind} columns not in schema: {', '.join(missing)}")
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
    bad = [f"key {key} only in {args.a if key in table_a else args.b}"
           for key in sorted(set(table_a) ^ set(table_b))]
    for key in shared:
        for col, i in zip(value_cols, val_idx):
            va, vb = table_a[key][i], table_b[key][i]
            # equal text matches even where the difference is NaN (nan, inf)
            try:
                ok = va == vb or abs(float(va) - float(vb)) <= args.tol
            except ValueError:
                ok = False
            if not ok:
                bad.append(f"key {key} column {col}: {va} vs {vb}")
    for line in bad[:20]:
        print(line, file=sys.stderr)
    print(f"compared {len(shared)} shared keys, {len(bad)} mismatches")
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
                       help="absolute tolerance (>= 0) on numeric columns")
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
