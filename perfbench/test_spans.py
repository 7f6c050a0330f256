"""Self-time arithmetic of `spans.layer_metrics` on hand-built nested spans.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Span, layer_metrics, self_times  # noqa: E402


def _tree():
    # sweeps [0, 10]
    #   spectral [1, 7]
    #     chains   [1.5, 2.5]
    #     spectral [3, 6]       nested in its own layer
    #       chains [4, 4.5]
    #   observables [7, 9]
    # fitting [11, 12]          a second root
    return [
        Span("sweeps.measure", "sweeps", 0.0, 10.0, -1, {"returned": 1}),
        Span("spectral.diagonalize", "spectral", 1.0, 7.0, 0,
             {"dim": 8, "out_bytes": 2_000_000}),
        Span("chains.build_hamiltonian", "chains", 1.5, 2.5, 1, {"out_bytes": 512}),
        Span("spectral.occupy", "spectral", 3.0, 6.0, 1, {"dim": 8, "out_bytes": 9}),
        Span("chains.build_hamiltonian", "chains", 4.0, 4.5, 3, {"out_bytes": 512}),
        Span("observables.region_observables", "observables", 7.0, 9.0, 0,
             {"block_dim": 3}),
        Span("fitting.fit_line", "fitting", 11.0, 12.0, -1),
    ]


def test_self_time_subtracts_children_and_counts_nested_layer_once():
    t = self_times(_tree())
    assert t["sweeps"] == pytest.approx(10.0 - 6.0 - 2.0)
    # outer spectral: 6 - 1 (chains) - 3 (inner spectral); inner: 3 - 0.5
    assert t["spectral"] == pytest.approx(2.0 + 2.5)
    assert t["chains"] == pytest.approx(1.0 + 0.5)
    assert t["observables"] == pytest.approx(2.0)
    assert t["fitting"] == pytest.approx(1.0)
    assert t["fock"] == 0.0
    # self times of all layers add up to the time covered by root spans
    assert sum(t.values()) == pytest.approx(10.0 + 1.0)


def test_calls_and_counters_come_from_layer_entries_only():
    m = layer_metrics(_tree())
    assert m["spectral.calls"] == 1
    assert m["chains.calls"] == 2
    assert m["spectral.dim_sum"] == 8
    assert m["spectral.out_mb"] == pytest.approx(2.0)
    assert m["chains.out_mb"] == pytest.approx(1024 / 1e6)
    assert m["observables.block_dim_sum"] == 3
    assert m["sweeps.kept_ratio"] == pytest.approx(1.0)
    assert m["fock.calls"] == 0


def test_tracer_wraps_sibling_imports_and_restores_them():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import paritylab
    from paritylab import chains, spectral, sweeps
    from spans import Tracer

    original = sweeps.diagonalize
    spec = chains.place_pattern(chains.single_impurity(0.5, 4), 12)
    with Tracer(paritylab) as tracer:
        assert sweeps.diagonalize is not original
        sweeps.measure(spec, 4)
    assert sweeps.diagonalize is original
    assert spectral.diagonalize is original
    by_name = {s.name: s for s in tracer.spans}
    spans = tracer.spans
    assert spans[by_name["spectral.diagonalize"].parent].name == "sweeps.measure"
    assert spans[by_name["chains.build_hamiltonian"].parent].name == "spectral.diagonalize"
    m = layer_metrics(spans)
    assert m["spectral.dim_sum"] == 12
    assert m["chains.out_mb"] == pytest.approx(12 * 12 * 8 / 1e6)
    assert m["observables.block_dim_sum"] == 4
