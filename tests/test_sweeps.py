import numpy as np
import pytest

from paritylab.chains import (ChainSpec, dot_impurity, place_pattern,
                              single_impurity)
from paritylab.observables import Region, region_observables
from paritylab.spectral import correlation_matrix, diagonalize
from paritylab.sweeps import (boundary_sweep, dot_pair, dot_series, measure,
                              pair_samples, pair_specs, size_ladder,
                              splitting_table)


def test_pair_specs_layouts():
    # a single defect is a block of one bond on the border bond
    even, odd = pair_specs(0.5, 40, 12)
    assert even == place_pattern(single_impurity(0.5, 12), 40)
    assert odd == place_pattern(single_impurity(0.5, 13), 40)
    # a 3-bond block is centred on the border bond; the odd chain shifts it
    even, odd = pair_specs(0.5, 40, 12, n_imp=3)
    assert even.modified_bonds == ((10, 0.5), (12, 0.5), (14, 0.5))
    assert odd.modified_bonds == ((11, 0.5), (13, 0.5), (15, 0.5))
    with pytest.raises(ValueError, match="odd n_imp"):
        pair_specs(0.5, 40, 12, n_imp=2)
    with pytest.raises(ValueError, match="does not fit"):
        pair_specs(0.5, 40, 4, n_imp=5)
    with pytest.raises(ValueError, match="must be even"):
        pair_specs(0.5, 40, 13)
    # rings of 0 mod 4 sites have a degenerate Fermi level
    assert pair_specs(0.5, 42, 12, "periodic")[0].boundary == "periodic"
    with pytest.raises(ValueError, match="2 mod 4"):
        pair_specs(0.5, 40, 12, "periodic")


def test_pair_samples_against_direct_measurement():
    even, odd = pair_samples(0.7, 40, 12)
    assert (even.parity, odd.parity) == ("even", "odd")
    assert (even.region_len, odd.region_len) == (12, 13)
    assert even.n_sites == odd.n_sites == 40
    s, f = measure(place_pattern(single_impurity(0.7, 12), 40), 12)
    assert (even.entropy, even.fluctuation) == (s, f)
    # odd member: pattern and border both shifted one site right
    s, f = measure(place_pattern(single_impurity(0.7, 13), 40), 13)
    assert (odd.entropy, odd.fluctuation) == (s, f)
    with pytest.raises(ValueError):
        pair_samples(0.7, 40, 13)


def test_measure_open_chain_regions():
    # the sublattice route against the orbital route, any region length
    spec = place_pattern(dot_impurity(0.4, 20), 46)
    g = correlation_matrix(diagonalize(spec), 23)
    for length in (1, 2, 19, 20, 21, 45, 46):
        ref = region_observables(g, Region(1, length))
        s, f = measure(spec, length)
        assert s == pytest.approx(ref.entropy, abs=1e-12), length
        assert f == pytest.approx(ref.fluctuation, abs=1e-12), length
    for length in (0, 47):
        with pytest.raises(ValueError):
            measure(spec, length)
    with pytest.raises(ValueError, match="even n_sites"):
        measure(ChainSpec(45), 10)


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
    # one ulp above 1 would step ~1e16 times from 100 to 10000
    with pytest.raises(ValueError, match="steps"):
        size_ladder(100, 10_000, 2, factor=1.0000000000000002)
    with pytest.raises(ValueError):
        size_ladder(100, 200, 0)


def test_boundary_sweep_layout():
    samples = boundary_sweep(0.6, [40, 60], aspect_den=5)
    assert [s.parity for s in samples] == ["even", "odd", "even", "odd"]
    assert [s.n_sites for s in samples] == [40, 40, 60, 60]
    assert [s.region_len for s in samples] == [8, 9, 12, 13]
    assert all(s.boundary == "open" and s.ratio == 0.6 for s in samples)


def test_bulk_sweep_ring_constraint():
    samples = boundary_sweep(0.6, [42], aspect_den=3, boundary="periodic")
    assert [s.region_len for s in samples] == [14, 15]
    assert all(s.boundary == "periodic" for s in samples)
    with pytest.raises(ValueError):
        boundary_sweep(0.6, [40], boundary="periodic")


def test_splitting_table():
    table = splitting_table([0.5, 0.8], [24, 32], aspect_num=1,
                            aspect_den=2)
    assert set(table) == {(0.5, 24), (0.5, 32), (0.8, 24), (0.8, 32)}
    # each entry is the even-minus-odd difference of one measured pair
    for (ratio, n_sites), deltas in table.items():
        even, odd = pair_samples(ratio, n_sites, n_sites // 2)
        assert deltas == (even.entropy - odd.entropy,
                          even.fluctuation - odd.fluctuation)
    # splitting shrinks toward the transparent point
    assert abs(table[(0.8, 32)][0]) < abs(table[(0.5, 32)][0])
    with pytest.raises(ValueError):
        splitting_table([0.5], [25], aspect_num=1, aspect_den=2)
    with pytest.raises(ValueError):
        splitting_table([0.5], [100], aspect_num=1, aspect_den=3)


def test_dot_series_geometry():
    assert dot_pair(0.3, 16) == (place_pattern(dot_impurity(0.3, 8), 16),
                                 place_pattern(dot_impurity(0.3, 9), 18))
    nodes, se, so, fe, fo = dot_series(0.3, [16, 24])
    assert np.allclose(nodes, np.log([17.0, 25.0]))
    s, f = measure(place_pattern(dot_impurity(0.3, 8), 16), 8)
    assert (se[0], fe[0]) == (s, f)
    # odd member re-centers the dot on a chain two sites longer
    s, f = measure(place_pattern(dot_impurity(0.3, 9), 18), 9)
    assert (so[0], fo[0]) == (s, f)
    with pytest.raises(ValueError, match="0 mod 4"):
        dot_series(0.3, [18])

