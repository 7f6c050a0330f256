import pytest

from paritylab.chains import (ChainSpec, dot_impurity, place_pattern,
                              single_impurity)
from paritylab.observables import Region, region_observables
from paritylab.spectral import correlation_matrix, diagonalize
from paritylab.sweeps import dot_pair, measure, pair_specs, size_ladder


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


def test_dot_series_geometry():
    # the odd member re-centres the dot on a chain two sites longer
    assert dot_pair(0.3, 16) == (place_pattern(dot_impurity(0.3, 8), 16),
                                 place_pattern(dot_impurity(0.3, 9), 18))
    with pytest.raises(ValueError, match="0 mod 4"):
        dot_pair(0.3, 18)
