import numpy as np
import pytest

from paritylab.chains import dot_impurity, place_pattern, single_impurity
from paritylab.sweeps import (border_pattern, boundary_sweep, bulk_sweep,
                              dot_series, measure, pair_samples,
                              resolve_parallelism, size_ladder,
                              splitting_table)


def test_border_pattern_layouts():
    assert border_pattern("single", 0.5, 12).bond_indices() == (12,)
    assert border_pattern("dot", 0.5, 12).bond_indices() == (12, 13)
    assert border_pattern("alternating", 0.5, 12, n_imp=3).bond_indices() == (10, 12, 14)
    with pytest.raises(ValueError):
        border_pattern("alternating", 0.5, 12, n_imp=2)
    with pytest.raises(ValueError):
        border_pattern("alternating", 0.5, 3, n_imp=5)
    with pytest.raises(ValueError):
        border_pattern("staggered", 0.5, 12)


def test_pair_samples_against_direct_measurement():
    even, odd = pair_samples("single", 0.7, 40, 12)
    assert (even.parity, odd.parity) == ("even", "odd")
    assert (even.region_len, odd.region_len) == (12, 13)
    assert even.n_sites == odd.n_sites == 40
    s, f = measure(place_pattern(single_impurity(0.7, 12), 40), 12)
    assert (even.entropy, even.fluctuation) == (s, f)
    # odd member: pattern and border both shifted one site right
    s, f = measure(place_pattern(single_impurity(0.7, 13), 40), 13)
    assert (odd.entropy, odd.fluctuation) == (s, f)
    with pytest.raises(ValueError):
        pair_samples("single", 0.7, 40, 13)


def test_size_ladder():
    assert size_ladder(100, 200, 10) == [100, 110, 130, 150, 170]
    ring = size_ladder(122, 300, 4, offset=2)
    assert ring == [122, 142, 162, 186, 214, 246, 282]
    assert all(n % 4 == 2 for n in ring)
    desk = size_ladder(120, 2400, 20)
    assert desk[0] == 120 and desk[-1] == 2260 and len(desk) == 22
    assert all(b > a for a, b in zip(desk, desk[1:]))
    assert all(n % 20 == 0 for n in desk)
    with pytest.raises(ValueError):
        size_ladder(1, 100, 10)
    with pytest.raises(ValueError):
        size_ladder(100, 50, 10)
    for factor in (1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            size_ladder(100, 200, 10, factor=factor)
    with pytest.raises(ValueError):
        size_ladder(100, 200, 0)


def test_boundary_sweep_layout():
    samples = boundary_sweep("single", 0.6, [40, 60], aspect_den=5)
    assert [s.parity for s in samples] == ["even", "odd", "even", "odd"]
    assert [s.n_sites for s in samples] == [40, 40, 60, 60]
    assert [s.region_len for s in samples] == [8, 9, 12, 13]
    assert all(s.boundary == "open" and s.ratio == 0.6 for s in samples)


def test_bulk_sweep_ring_constraint():
    samples = bulk_sweep(0.6, [42], aspect_den=3)
    assert [s.region_len for s in samples] == [14, 15]
    assert all(s.boundary == "periodic" for s in samples)
    with pytest.raises(ValueError):
        bulk_sweep(0.6, [40])


def test_splitting_table():
    table = splitting_table("single", [0.5, 0.8], [24, 32], aspect_num=1,
                            aspect_den=2)
    assert set(table) == {(0.5, 24), (0.5, 32), (0.8, 24), (0.8, 32)}
    # each entry is the even-minus-odd difference of one measured pair
    for (ratio, n_sites), deltas in table.items():
        even, odd = pair_samples("single", ratio, n_sites, n_sites // 2)
        assert deltas == (even.entropy - odd.entropy,
                          even.fluctuation - odd.fluctuation)
    # splitting shrinks toward the transparent point
    assert abs(table[(0.8, 32)][0]) < abs(table[(0.5, 32)][0])
    with pytest.raises(ValueError):
        splitting_table("single", [0.5], [25], aspect_num=1, aspect_den=2)
    with pytest.raises(ValueError):
        splitting_table("single", [0.5], [100], aspect_num=1, aspect_den=3)


def test_dot_series_geometry():
    nodes, se, so, fe, fo = dot_series(0.3, [16, 24])
    assert np.allclose(nodes, np.log([17.0, 25.0]))
    s, f = measure(place_pattern(dot_impurity(0.3, 8), 16), 8)
    assert (se[0], fe[0]) == (s, f)
    # odd member re-centers the dot on a chain two sites longer
    s, f = measure(place_pattern(dot_impurity(0.3, 9), 18), 9)
    assert (so[0], fo[0]) == (s, f)
    with pytest.raises(ValueError):
        dot_series(0.3, [18])


def test_resolve_parallelism(monkeypatch):
    monkeypatch.delenv("LAB_THREADS", raising=False)
    assert resolve_parallelism(3) == 3
    monkeypatch.setenv("LAB_THREADS", "2")
    assert resolve_parallelism(7) == 2
    monkeypatch.setenv("LAB_THREADS", "zero")
    with pytest.raises(ValueError):
        resolve_parallelism(1)
    monkeypatch.setenv("LAB_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_parallelism(1)


def test_parallel_results_match_serial(monkeypatch):
    monkeypatch.delenv("LAB_THREADS", raising=False)
    serial = boundary_sweep("single", 0.8, [24, 32], aspect_den=4)
    parallel = boundary_sweep("single", 0.8, [24, 32], aspect_den=4,
                              parallelism=2)
    assert parallel == serial
