import math

import numpy as np
import pytest

from paritylab.chains import (ChainSpec, alternating_block, build_hamiltonian,
                              dot_impurity, homogeneous, place_pattern,
                              single_impurity)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1, "open", ())
    with pytest.raises(ValueError):
        ChainSpec(8, "twisted", ())
    with pytest.raises(ValueError):
        ChainSpec(8, "open", ((2, -0.5),))
    with pytest.raises(ValueError):
        ChainSpec(8, "open", ((9, 0.5),))  # open chain has 7 bonds
    with pytest.raises(ValueError):
        ChainSpec(8, "open", ((2, 0.5), (2, 0.7)))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(8, "open", ((2, bad),))


def test_bond_counts():
    assert ChainSpec(8, "open", ()).n_bonds == 7
    assert ChainSpec(8, "periodic", ()).n_bonds == 8
    # wrap bond is addressable on a ring
    ChainSpec(8, "periodic", ((8, 0.5),))


def test_bond_ratios_layout():
    spec = ChainSpec(6, "open", ((2, 0.5), (4, 2.0)))
    assert np.allclose(spec.bond_ratios(), [1.0, 0.5, 1.0, 2.0, 1.0])


def test_hamiltonian_open_explicit():
    spec = ChainSpec(4, "open", ((2, 0.5),))
    h = build_hamiltonian(spec)
    expected = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [-1.0, 0.0, -0.5, 0.0],
        [0.0, -0.5, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    assert np.array_equal(h, expected)


def test_hamiltonian_periodic_wrap():
    spec = ChainSpec(4, "periodic", ((4, 0.3),))
    h = build_hamiltonian(spec)
    assert h[3, 0] == pytest.approx(-0.3)
    assert h[0, 3] == pytest.approx(-0.3)
    assert h[0, 1] == pytest.approx(-1.0)


def test_hamiltonian_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        boundary = "periodic" if rng.random() < 0.5 else "open"
        n_bonds = n if boundary == "periodic" else n - 1
        bonds = rng.choice(np.arange(1, n_bonds + 1),
                           size=int(rng.integers(0, 3)), replace=False)
        mods = tuple((int(b), float(rng.uniform(0.2, 3.0))) for b in bonds)
        spec = ChainSpec(n, boundary, mods)
        h = build_hamiltonian(spec)
        assert np.array_equal(h, h.T)
        assert np.all(np.diag(h) == 0.0)
        # total hopping weight equals the sum of bond strengths
        assert np.sum(np.abs(np.triu(h))) == pytest.approx(spec.bond_ratios().sum())


def test_patterns():
    assert single_impurity(0.5, 7) == ((7, 0.5),)
    assert dot_impurity(0.5, 7) == ((7, 0.5), (8, 0.5))
    assert alternating_block(0.5, 7, 3) == ((7, 0.5), (9, 0.5), (11, 0.5))
    with pytest.raises(ValueError):
        alternating_block(0.5, 7, 0)


def test_place_pattern():
    spec = place_pattern(alternating_block(0.4, 3, 2), 10)
    assert spec.modified_bonds == ((3, 0.4), (5, 0.4))
    with pytest.raises(ValueError):
        place_pattern(alternating_block(0.4, 8, 2), 10)  # bond 10 off the chain


def test_homogeneous():
    spec = homogeneous(6)
    assert spec.modified_bonds == ()
    assert np.allclose(spec.bond_ratios(), 1.0)
