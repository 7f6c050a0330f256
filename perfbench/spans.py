"""Spans around paritylab's public functions, and the per-layer sums drawn from them.

`Tracer` replaces every public function of each paritylab module by a
wrapper that records a span (name, layer, start, end, parent).  It patches
the function under every name a paritylab namespace holds it by, so a call
through a sibling's import (``sweeps.diagonalize``) is traced as well.  The
layer of a span is the module that defines the function.  Spans stay in
memory; `layer_metrics` reduces them, `write_spans` dumps them.

Nothing in paritylab itself changes: the wrappers are installed from here
and removed again by `Tracer.uninstall`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import time
from collections.abc import Iterable

LAYERS = ("chains", "spectral", "observables", "fock", "scattering", "theory",
          "sweeps", "fitting", "cli")

# Regions each sweeps entry point hands back to its caller, by function name.
# A region is one (entropy, fluctuation) value; a (delta S, delta F) pair
# carries two.  Functions not listed return no regions.
_SWEEPS_RETURNED = {
    "measure": lambda r: 1,
    "pair_samples": lambda r: 2,
    "delta_pair": lambda r: 2,
    "boundary_sweep": len,
    "bulk_sweep": len,
    "splitting_table": lambda r: 2 * len(r),
    "dot_series": lambda r: 2 * len(r[0]),
}


@dataclasses.dataclass(slots=True)
class Span:
    """One call of a traced function; ``parent`` indexes the enclosing span, or -1."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    counters: dict | None = None


def _nbytes(obj, depth: int = 0) -> int:
    """Bytes of the numpy arrays reachable from a return value."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if depth > 2:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x, depth + 1) for x in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f), depth + 1) for f in obj.__dataclass_fields__)
    return 0


def _first(args, attr):
    return next((a for a in args if hasattr(a, attr)), None)


def _counters(layer: str, fn_name: str, args, kwargs, result) -> dict | None:
    """Work counts of one entry into a layer, taken from its arguments and result."""
    args = tuple(args) + tuple(kwargs.values())
    if layer == "spectral":
        # a solve takes a chain and returns arrays; half_filling(spec) is no solve
        out = _nbytes(result)
        spec = _first(args, "modified_bonds")
        return {"dim": spec.n_sites if spec is not None and out else 0,
                "out_bytes": out}
    if layer == "chains":
        return {"out_bytes": _nbytes(result)}
    if layer == "observables":
        region = _first(args, "length")
        return {"block_dim": region.length if region is not None else 0}
    if layer == "fock":
        spec = _first(args, "n_sites")
        filling = next((a for a in args if isinstance(a, int)), None)
        if spec is None or filling is None:
            return None
        return {"sector_dim": math.comb(spec.n_sites, filling)}
    if layer == "sweeps":
        count = _SWEEPS_RETURNED.get(fn_name)
        return {"returned": count(result) if count else 0}
    return None


class Tracer:
    """Installs span-recording wrappers on a paritylab package.

    Use as ``with Tracer(paritylab) as tracer: ...``; `spans` keeps every
    span recorded while installed, in start order.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _modules(self):
        name = self.package.__name__
        return [self.package] + [importlib.import_module(f"{name}.{layer}")
                                 for layer in LAYERS]

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack
        name = f"{layer}.{fn.__name__}"
        fn_name = fn.__name__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            entry = parent < 0 or spans[parent].layer != layer
            span = Span(name, layer, clock(), 0.0, parent)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if entry:
                span.counters = _counters(layer, fn_name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        prefix = self.package.__name__ + "."
        wrappers = {}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                layer = obj.__module__[len(prefix):]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, layer)
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    Summing self time over the spans of a layer counts a layer nested in
    itself once, since the inner span's time is taken off the outer one.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        out[s.layer] += (s.end - s.start) - child[i]
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named ``<layer>.<metric>``.

    ``calls`` counts entries into a layer (a span whose parent belongs to
    another layer or to no span); counters are summed over entries only.
    """
    out = {}
    for layer, value in self_times(spans).items():
        out[f"{layer}.self_s"] = value
        out[f"{layer}.calls"] = 0
    sums = {}
    measured = 0
    for s in spans:
        if s.name == "sweeps.measure":
            measured += 1
        if s.parent >= 0 and spans[s.parent].layer == s.layer:
            continue
        out[f"{s.layer}.calls"] += 1
        for key, value in (s.counters or {}).items():
            sums[(s.layer, key)] = sums.get((s.layer, key), 0) + value
    out["spectral.dim_sum"] = sums.get(("spectral", "dim"), 0)
    out["spectral.out_mb"] = sums.get(("spectral", "out_bytes"), 0) / 1e6
    out["chains.out_mb"] = sums.get(("chains", "out_bytes"), 0) / 1e6
    out["observables.block_dim_sum"] = sums.get(("observables", "block_dim"), 0)
    out["fock.sector_dim_sum"] = sums.get(("fock", "sector_dim"), 0)
    returned = sums.get(("sweeps", "returned"), 0)
    out["sweeps.kept_ratio"] = returned / measured if measured else 0.0
    return out


def write_spans(path: str, passes: list[list[Span]]) -> None:
    """One JSON object per line and span; ``parent`` indexes spans of the same pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({"pass": number, **dataclasses.asdict(s)}) + "\n")
