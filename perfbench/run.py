"""paritylab benchmark: one workload, one seed, metrics as JSON on the last line.

    python3 perfbench/run.py --workload open-ladder --seed 1 --seconds 25 --trace 0

Run from the root of a paritylab source tree; the package is imported from
its ``src`` directory.  Every paritylab process gets one BLAS thread and
``LAB_THREADS=1``, and only one runs at a time.  Set-up is timed in
SETUP_PROBES extra processes that stop after set-up, plus the measuring
process itself, and reported as their median.

With ``--trace 0`` the metrics are the end-to-end ones (see README.md);
with ``--trace 1`` the per-layer ones from spans around paritylab's public
functions.  The full record of a run (every pass, provenance, the failed
operations) goes to ``.perfbench_out/`` under the tree's root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("open-ladder", "ring-ladder", "half-cut", "fock-oracle")
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "LAB_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer")."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _source_identity(root: str, src: str) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(src, "paritylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _start(cmd: list[str], env: dict, deadline: float):
    """Start a worker and wait for READY; returns (process, watchdog, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.wait()
        watchdog.cancel()
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, watchdog, setup


def _finish(proc, watchdog) -> None:
    proc.stdout.read()
    code = proc.wait()
    watchdog.cancel()
    if code != 0:
        raise BenchError(f"worker exited with {code}")


def _metrics(result: dict, setups: list[float], trace: int) -> dict:
    plain = [p for p in result["passes"] if not p["traced"]]
    if not trace:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "points_per_s": statistics.median(p["points"] / p["wall_s"] for p in plain),
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = _units("end_to_end")
    else:
        traced = [p for p in result["passes"] if p["traced"]]
        values = {key: statistics.median(p["layers"][key] for p in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        units = _units("per_layer")
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no value for metrics {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paritylab", "__init__.py")):
        print(f"no paritylab source under {src}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".perfbench_out")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = {**os.environ, **PINNED, "PYTHONPATH": src}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", src, "--workdir", workdir]
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            proc, watchdog, setup = _start(cmd + ["--setup-only"], env, deadline)
            _finish(proc, watchdog)
            setups.append(setup)
        spans_path = os.path.join(out, f"{stem}.spans.jsonl")
        proc, watchdog, setup = _start(cmd + ["--spans", spans_path], env, deadline)
        setups.append(setup)
        _finish(proc, watchdog)
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        metrics = _metrics(result, setups, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    provenance = {**result["provenance"], **_source_identity(root, src),
                  "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "setup_samples_s": setups,
                  "failed_frac": failed / attempted if attempted else 1.0}
    record = {"provenance": provenance, "metrics": metrics, "passes": result["passes"],
              "notes": result["notes"], "failures": result["failures"],
              "inputs": result["inputs"]}
    with open(os.path.join(out, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in result["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
