"""The benchmark's four workloads: seeded inputs, one timed pass, and the checks.

Each workload has a generator that turns a seed into `lab run` configs and
chain specs (plain JSON-able dicts), a pass that feeds them through
paritylab's public entry points, and an untimed check of the pass's outputs
against the dense reference in `oracle`.  The seed picks only ratios,
defect positions and regions; the sizes and the number of chains at each
size are fixed, so every seed does the same amount of work.

paritylab functions are always called through their module attribute
(``cli.main``, ``fitting.fit_boundary_entropy``) so that a `spans.Tracer`
installed on the package sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys
import traceback
from collections.abc import Callable

import numpy as np

import oracle
from paritylab import (chains, cli, fitting, fock, observables, scattering,
                       spectral, theory)

# Every second rung of the acceptance ladders size_ladder(120, 2400, 20) and
# size_ladder(122, 1562, 4, offset=2), cut so that one pass takes ~2.5 s on
# one core with seven ratios.
OBC_RUNGS = [120, 160, 200, 280, 360, 480, 640]
PBC_RUNGS = [122, 162, 214, 282, 374, 494, 654]
# Seeded ratios per class.  The dense solve's cost varies by up to ~10%
# with the ratio, so three draws per class keep seeds from spreading wall_s.
RATIOS_PER_CLASS = 3
SSH_SIZES = [400, 800]
SLOPE_SIZES = [240, 480, 800]
# Brute-force chains per size; 14 sites (a 3432-state sector) takes seconds
# per chain and is left out.
FOCK_COUNTS = {6: 6, 8: 6, 10: 6, 12: 10}
# Program rows the dense reference recomputes per run (all when fewer).
ORACLE_SAMPLE = 5


class Mismatch(RuntimeError):
    """Program output disagrees with a reference."""


class Run:
    """State shared by the passes of one run: scratch directory, the
    operation tally, and the first pass's CSVs and values for the checks."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.first_csv: dict[str, bytes] = {}
        self.rows: dict[str, list[dict]] = {}
        self.fock_fast: dict[int, tuple[float, float]] = {}
        self.notes: dict[str, float] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one operation; an exception inside it is a failure, not a crash."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def note(self, key: str, value: float) -> None:
        """Keep the largest value seen, for the run's record."""
        self.notes[key] = max(self.notes.get(key, 0.0), float(value))

    def lab_run(self, name: str, config: dict) -> list[dict]:
        """`lab run` one config; check its exit code and that reruns are byte-identical."""
        cfg_path = os.path.join(self.workdir, f"{name}.json")
        out_path = os.path.join(self.workdir, f"{name}.csv")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**config, "output": out_path}, fh)
        data = None
        with self.operation(f"lab run {name}"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", cfg_path])
            if code != 0:
                raise Mismatch(f"exit code {code}")
            with open(out_path, "rb") as fh:
                data = fh.read()
        if data is None:
            return []
        if name not in self.first_csv:
            self.first_csv[name] = data
        else:
            with self.operation(f"rerun {name}"):
                if data != self.first_csv[name]:
                    raise Mismatch("CSV differs from the first pass")
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        self.rows.setdefault(name, rows)
        return rows


# ---------------------------------------------------------------- chain specs

def chain(n_sites, boundary, pattern, ratio, anchor, n_imp, first, length) -> dict:
    return {"n_sites": n_sites, "boundary": boundary, "pattern": pattern,
            "ratio": ratio, "anchor": anchor, "n_imp": n_imp,
            "first": first, "length": length}


def bonds_of(c: dict) -> dict[int, float]:
    """Modified bonds of a chain dict, worked out here rather than by paritylab."""
    if c["pattern"] == "single":
        idx = [c["anchor"]]
    elif c["pattern"] == "dot":
        idx = [c["anchor"], c["anchor"] + 1]
    else:
        idx = [c["anchor"] + 2 * i for i in range(c["n_imp"])]
    return {b: c["ratio"] for b in idx}


def _spec(c: dict):
    if c["pattern"] == "single":
        pattern = chains.single_impurity(c["ratio"], c["anchor"])
    elif c["pattern"] == "dot":
        pattern = chains.dot_impurity(c["ratio"], c["anchor"])
    else:
        pattern = chains.alternating_block(c["ratio"], c["anchor"], c["n_imp"])
    return chains.place_pattern(pattern, c["n_sites"], c["boundary"])


def _border_pair(n_sites, boundary, pattern, ratio, ell, n_imp=1) -> list[dict]:
    """Even/odd chains with the pattern at the border of [1, ell] / [1, ell + 1]."""
    anchor = ell - (n_imp - 1) if pattern == "alternating" else ell
    return [chain(n_sites, boundary, pattern, ratio, anchor + shift, n_imp, 1, ell + shift)
            for shift in (0, 1)]


def fock_compare(chain_dicts: list[dict], run: Run) -> int:
    """Fast route (as in the c08 acceptance test) against the Fock oracle."""
    for i, c in enumerate(chain_dicts):
        with run.operation(f"fock vs fast chain {i}"):
            spec = _spec(c)
            region = observables.Region(c["first"], c["length"])
            filling = spectral.half_filling(spec)
            g = spectral.correlation_matrix(spectral.diagonalize(spec), filling)
            obs = observables.region_observables(g, region)
            ref = fock.fock_region_observables(spec, filling, region)
            run.fock_fast.setdefault(i, (obs.entropy, obs.fluctuation))
            gap = max(abs(obs.entropy - ref[0]), abs(obs.fluctuation - ref[1]))
            run.note("fock_gap", gap)
            if gap > oracle.TOL:
                raise Mismatch(f"fock and fast differ by {gap:.3e}")
    return len(chain_dicts)


def check_fock_chains(chain_dicts: list[dict], run: Run) -> None:
    for i, c in enumerate(chain_dicts):
        with run.operation(f"oracle fock chain {i}"):
            ref = oracle.region_values(c["n_sites"], c["boundary"], bonds_of(c),
                                       c["first"], c["length"])
            _expect(run.fock_fast[i], ref, f"chain {i}")


def _expect(program, reference, what: str) -> None:
    for p, r in zip(program, reference):
        if not oracle.agree(p, r):
            raise Mismatch(f"{what}: program {p!r} vs reference {r!r}")


def _sample(rows: list, rng: np.random.Generator, k: int = ORACLE_SAMPLE) -> list:
    if len(rows) <= k:
        return list(rows)
    return [rows[i] for i in sorted(rng.choice(len(rows), size=k, replace=False))]


def _ratio_classes(rng: np.random.Generator) -> list[float]:
    """Weak bonds, the transparent one, and strong bonds (>1, with bound states)."""
    weak = rng.uniform(0.25, 0.9, RATIOS_PER_CLASS)
    strong = rng.uniform(1.25, 4.0, RATIOS_PER_CLASS)
    return [float(r) for r in weak] + [1.0] + [float(r) for r in strong]


# ------------------------------------------------------- open- and ring-ladder

def _ladder_inputs(seed: int, boundary: str, sizes: list[int], spot_sites: int) -> dict:
    rng = np.random.default_rng(seed)
    ratios = _ratio_classes(rng)
    spot_ell = 2 * int(rng.integers(1, spot_sites // 4 + 1))
    # one weak and one strong bond against the Fock oracle
    spot = [c for r in (ratios[0], ratios[-1])
            for c in _border_pair(spot_sites, boundary, "single", r, spot_ell)]
    return {
        "sweep": {"scenario": "impurity-sweep", "kind": "both", "boundary": boundary,
                  "ratios": ratios, "sizes": sizes, "aspect_den": 10, "parallelism": 1},
        "spot": spot,
        "regions": 2 * len(ratios) * len(sizes),
    }


def generate_open_ladder(seed: int) -> dict:
    """Open chains, one bond at the border of l = L/10, ratios weak / 1 / strong.

    Why: the dense L x L solve of large open chains is >=95% of the time
    and l is small, so this is the workload the lead-mode solver, the
    eigh_tridiagonal route and dropping the full-G path all aim at.
    """
    return _ladder_inputs(seed, "open", OBC_RUNGS, spot_sites=8)


def generate_ring_ladder(seed: int) -> dict:
    """Rings of 2 mod 4 sites, one bond bounding l = L/10.

    Why: the same layers on a matrix that is not tridiagonal, the
    fallback side of any geometry dispatch; a change that speeds open
    chains but slows rings shows only here.
    """
    return _ladder_inputs(seed, "periodic", PBC_RUNGS, spot_sites=6)


def _ladder_pass(inp: dict, run: Run) -> int:
    rows = run.lab_run("sweep", inp["sweep"])
    boundary = inp["sweep"]["boundary"]
    by_ratio: dict[float, list] = {}
    for r in rows:
        by_ratio.setdefault(float(r["ratio"]), []).append(fitting.ScalingSample(
            boundary=boundary, ratio=float(r["ratio"]), n_sites=int(r["n_sites"]),
            region_len=int(r["region_len"]), parity=r["parity"],
            entropy=float(r["entropy"]), fluctuation=float(r["fluctuation"])))
    for ratio, samples in sorted(by_ratio.items()):
        with run.operation(f"{boundary} fits ratio={ratio:g}"):
            s = scattering.phase_shift(ratio).transmission
            ceff = theory.effective_central_charge(s)
            if boundary == "open":
                ent = fitting.fit_boundary_entropy(samples)
                flu = fitting.fit_boundary_fluct(samples)
                run.note("theory_gap_entropy", abs(6.0 * ent.slope - ceff))
                run.note("theory_gap_fluct", abs(2.0 * math.pi**2 * flu.slope - s * s))
            else:
                ent = fitting.fit_bulk_entropy(samples)
                flu = fitting.fit_bulk_fluct(samples)
                run.note("theory_gap_entropy", abs(6.0 * ent.slope - (1.0 + ceff)))
                run.note("theory_gap_fluct",
                         abs(2.0 * math.pi**2 * flu.slope - (1.0 + s * s)))
    return inp["regions"] + fock_compare(inp["spot"], run)


def _check_ladder(inp: dict, run: Run, rng: np.random.Generator) -> None:
    boundary = inp["sweep"]["boundary"]
    for r in _sample(run.rows.get("sweep", []), rng):
        n, ell = int(r["n_sites"]), int(r["region_len"])
        with run.operation(f"oracle {boundary} L={n} l={ell}"):
            # the defect sits on the region's border bond for both parities
            ref = oracle.region_values(n, boundary, {ell: float(r["ratio"])}, 1, ell)
            _expect((float(r["entropy"]), float(r["fluctuation"])), ref, f"L={n} l={ell}")
    check_fock_chains(inp["spot"], run)


# ------------------------------------------------------------------- half-cut

def generate_half_cut(seed: int) -> dict:
    """Blocks of 3 and 5 bonds against single bonds, and slopes at unity, at l = L/2.

    Why: l = L/2 makes the l x l occupation spectrum a visible share now
    and the dominant one once the solve is O(L^2); the block straddles
    the border, the interior-recursion path of a lead-mode solver.
    """
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(0.5, 0.9))
    near = [1.0 - float(rng.uniform(0.06, 0.1)), 1.0 - float(rng.uniform(0.01, 0.05)), 1.0]
    ssh = {"scenario": "ssh-collapse", "kind": "both", "sizes": SSH_SIZES,
           "aspect_den": 2, "parallelism": 1}
    return {
        "block": {**ssh, "n_imps": [3, 5], "ratios": [r]},
        "single": {**ssh, "n_imps": [1], "ratios": [r**3, r**5]},
        "slope": {"scenario": "slope-at-unity", "kind": "both", "ratios": near,
                  "sizes": SLOPE_SIZES, "aspect_num": 1, "aspect_den": 2,
                  "windows": [0.1, 0.05], "parallelism": 1},
        "spot": _border_pair(8, "open", "alternating", r, 4, n_imp=3),
        "regions": 2 * (4 * len(SSH_SIZES) + len(near) * len(SLOPE_SIZES)),
    }


def _half_cut_pass(inp: dict, run: Run) -> int:
    block = run.lab_run("block", inp["block"])
    single = {float(r["ratio"]): r for r in run.lab_run("single", inp["single"])}
    slope = run.lab_run("slope", inp["slope"])
    for r in block:
        with run.operation(f"block {r['n_imp']} vs single"):
            strength = scattering.effective_strength([float(r["ratio"])] * int(r["n_imp"]))
            match = single[min(single, key=lambda x: abs(x - strength))]
            run.note("collapse_gap", abs(float(r["delta_entropy"])
                                         - float(match["delta_entropy"])))
    with run.operation("slopes against theory"):
        targets = {"entropy": theory.entropy_parity_slope(0.5),
                   "fluctuation": theory.fluct_parity_slope(0.5)}
        for r in slope:
            if float(r["window"]) == 0.0:
                run.note("theory_gap_slope", abs(float(r["slope"]) - targets[r["kind"]]))
    return inp["regions"] + fock_compare(inp["spot"], run)


def _half_cut_delta(pattern: str, ratio: float, n_sites: int, n_imp: int):
    even, odd = (oracle.region_values(c["n_sites"], "open", bonds_of(c), 1, c["length"])
                 for c in _border_pair(n_sites, "open", pattern, ratio, n_sites // 2, n_imp))
    return even[0] - odd[0], even[1] - odd[1]


def _check_half_cut(inp: dict, run: Run, rng: np.random.Generator) -> None:
    ssh_rows = run.rows.get("block", []) + run.rows.get("single", [])
    for r in _sample(ssh_rows, rng, 2):
        n_imp, ratio = int(r["n_imp"]), float(r["ratio"])
        with run.operation(f"oracle ssh n_imp={n_imp}"):
            pattern = "single" if n_imp == 1 else "alternating"
            deltas = [_half_cut_delta(pattern, ratio, n, n_imp) for n in SSH_SIZES]
            ref = [oracle.extrapolate_inverse(SSH_SIZES, [d[i] for d in deltas])
                   for i in (0, 1)]
            _expect((float(r["delta_entropy"]), float(r["delta_fluct"])), ref, "ssh row")
    slope_rows = run.rows.get("slope", [])
    if slope_rows:
        with run.operation("oracle slope-at-unity"):
            cfg = inp["slope"]
            table = {(lam, n): _half_cut_delta("single", lam, n, 1)
                     for lam in cfg["ratios"] for n in cfg["sizes"]}
            for idx, kind in ((0, "entropy"), (1, "fluctuation")):
                per_window = []
                for eps in cfg["windows"]:
                    lams = [lam for lam in cfg["ratios"] if 1.0 - eps - 1e-12 <= lam <= 1.0]
                    slopes = [oracle.line_slope([lam - 1.0 for lam in lams],
                                                [table[(lam, n)][idx] for lam in lams])
                              for n in cfg["sizes"]]
                    per_window.append((eps, oracle.extrapolate_inverse(cfg["sizes"], slopes)))
                (w1, s1), (w2, s2) = per_window[0], per_window[-1]
                per_window.append((0.0, (s2 * w1 - s1 * w2) / (w1 - w2)))
                expected = dict(per_window)
                for r in slope_rows:
                    if r["kind"] == kind:
                        _expect([float(r["slope"])], [expected[float(r["window"])]],
                                f"slope {kind} window {r['window']}")
    check_fock_chains(inp["spot"], run)


# ---------------------------------------------------------------- fock-oracle

def generate_fock_oracle(seed: int) -> dict:
    """Small open and ring chains with single, dot and alternating patterns and
    random regions, each compared Fock against fast; plus dot-healing series
    at ratios 0.2 and 0.1, theory-check and zero-modes.

    Why: fock does most of the work and spectral little, so spectral
    optimisations should show no change here; it is the only workload
    where fock dominates and where the dot series' four-for-two
    measurements and per-call overhead are visible.
    """
    rng = np.random.default_rng(seed)
    chain_dicts = []
    for n, count in FOCK_COUNTS.items():
        for _ in range(count):
            boundary = "periodic" if n % 4 == 2 and rng.random() < 0.5 else "open"
            n_bonds = n if boundary == "periodic" else n - 1
            pattern = ("single", "dot", "alternating")[int(rng.integers(3))]
            ratio = float(rng.uniform(0.2, 2.0))
            n_imp = {"single": 1, "dot": 2}.get(pattern) or int(rng.integers(2, 4))
            span = 2 * (n_imp - 1) if pattern == "alternating" else n_imp - 1
            anchor = int(rng.integers(1, n_bonds - span + 1))
            first = int(rng.integers(1, n - 1))
            length = int(rng.integers(1, n - first + 1))
            chain_dicts.append(chain(n, boundary, pattern, ratio, anchor, n_imp,
                                     first, length))
    return {
        "chains": chain_dicts,
        "dot": {"scenario": "dot-crossover", "kind": "both", "ratios": [0.2, 0.1],
                "parallelism": 1},
        "theory": {"scenario": "theory-check"},
        "zero": {"scenario": "zero-modes", "ratio": float(rng.uniform(0.6, 0.9)),
                 "lead": 30, "n_imps": [3, 5, 7]},
    }


def _fock_oracle_pass(inp: dict, run: Run) -> int:
    points = fock_compare(inp["chains"], run)
    dot = run.lab_run("dot", inp["dot"])
    run.lab_run("theory", inp["theory"])
    run.lab_run("zero", inp["zero"])
    # two regions (even, odd) per rung; the CSV omits each ladder's end rungs
    rungs = len(dot) + 2 * len({r["ratio"] for r in dot})
    return points + 2 * rungs


def _check_fock_oracle(inp: dict, run: Run, rng: np.random.Generator) -> None:
    check_fock_chains(inp["chains"], run)
    dot = run.rows.get("dot", [])
    # rows whose neighbouring rungs are rows too, so the nodes are known
    inner = [i for i in range(1, len(dot) - 1)
             if dot[i - 1]["ratio"] == dot[i]["ratio"] == dot[i + 1]["ratio"]]
    for i in _sample(inner, rng, 2):
        ratio = float(dot[i]["ratio"])
        with run.operation(f"oracle dot L={dot[i]['n_sites']}"):
            values = {}
            for m in (int(dot[i - 1]["n_sites"]), int(dot[i + 1]["n_sites"])):
                ell = m // 2
                even = oracle.region_values(m, "open", {ell: ratio, ell + 1: ratio}, 1, ell)
                odd = oracle.region_values(m + 2, "open", {ell + 1: ratio, ell + 2: ratio},
                                           1, ell + 1)
                values[m] = (math.log(m + 1.0), even, odd)
            (t0, e0, o0), (t1, e1, o1) = values.values()
            ref = [(e1[k] - e0[k]) / (t1 - t0) - (o1[k] - o0[k]) / (t1 - t0) for k in (0, 1)]
            _expect((float(dot[i]["dslope_entropy"]), float(dot[i]["dslope_fluct"])), ref,
                    f"dot row L={dot[i]['n_sites']}")
    for r in run.rows.get("theory", []):
        with run.operation(f"theory-check {r['check']}"):
            if r["status"] != "ok":
                raise Mismatch(f"status {r['status']}")
    for r in run.rows.get("zero", []):
        n_imp, n_sites = int(r["n_imp"]), int(r["n_sites"])
        with run.operation(f"oracle zero-modes n_imp={n_imp}"):
            lead = (n_sites - 2 * n_imp) // 2
            bonds = {lead + 1 + 2 * k: float(r["ratio"]) for k in range(n_imp)}
            _expect([float(r["splitting"])], [oracle.zero_mode_splitting(n_sites, bonds)],
                    f"zero-modes n_imp={n_imp}")


@dataclasses.dataclass(frozen=True)
class Workload:
    generate: Callable[[int], dict]
    run_pass: Callable[[dict, Run], int]
    check: Callable[[dict, Run, np.random.Generator], None]


WORKLOADS = {
    "open-ladder": Workload(generate_open_ladder, _ladder_pass, _check_ladder),
    "ring-ladder": Workload(generate_ring_ladder, _ladder_pass, _check_ladder),
    "half-cut": Workload(generate_half_cut, _half_cut_pass, _check_half_cut),
    "fock-oracle": Workload(generate_fock_oracle, _fock_oracle_pass, _check_fock_oracle),
}
