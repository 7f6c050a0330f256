"""One benchmark process: set up, run timed passes, check, write a JSON record.

Started by run.py with BLAS threads pinned through the environment.  Set-up
is importing paritylab and generating the inputs; the line ``READY`` on
standard output marks its end, so the parent can time it from process
start.  With ``--setup-only`` the process exits there.

Plain passes are timed with no tracer installed.  With ``--trace 1``
plain and traced passes alternate, so the traced run measures its own
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

MIN_PASSES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True, help="directory holding the paritylab package")
    p.add_argument("--workdir", required=True, help="scratch directory for configs and CSVs")
    p.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in os.environ.items()
               if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS")) or k == "LAB_THREADS"}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": threads}


def _timed_pass(workload, inputs, run) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    points = workload.run_pass(inputs, run)
    wall = time.perf_counter() - wall0
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu0, "points": points}


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import paritylab

    if not os.path.realpath(paritylab.__file__).startswith(src + os.sep):
        print(f"paritylab imported from {paritylab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy as np

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # lab prints a line per run; keep the parent's pipe quiet
    sys.stdout = open(os.devnull, "w")

    run = workloads.Run(args.workdir)
    passes, all_spans = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            with spans.Tracer(paritylab) as tracer:
                record = _timed_pass(workload, inputs, run)
            record["layers"] = spans.layer_metrics(tracer.spans)
            all_spans.append(tracer.spans)
        else:
            record = _timed_pass(workload, inputs, run)
        record["traced"] = traced
        passes.append(record)
        elapsed = time.perf_counter() - start
        plain = sum(not p["traced"] for p in passes)
        if plain >= MIN_PASSES and len(passes) % (1 + args.trace) == 0 \
                and elapsed + statistics.median(p["wall_s"] for p in passes) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.check(inputs, run, np.random.default_rng(args.seed + 1))

    if args.spans and all_spans:
        spans.write_spans(args.spans, all_spans)

    result = {"passes": passes, "peak_rss_mb": peak_rss_mb,
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures[:20], "notes": run.notes,
              "inputs": inputs, "provenance": _provenance()}
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    sys.stdout.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
