"""Tight-binding chain specifications with bond defects.

Single-particle Hamiltonians for spinless fermions hopping on a chain,

    H = -sum_b t_b (|b><b+1| + |b+1><b|),

where t_b = 1 on plain bonds and t_b = lambda on modified ones: the plain
hopping J = 1 is the energy unit of every energy here.  Bonds and sites are
indexed from 1; bond b couples sites (b, b+1), and on a ring the last bond
couples (n_sites, 1).  A defect pattern (a single weak/strong bond, a
two-bond dot, or an alternating block) is its (bond, ratio) pairs, placed by
bond index so that a pattern can sit exactly at the border of a subsystem.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

BOUNDARIES = ("open", "periodic")
# Subsystem parities of a parity pair, even member first.
PARITIES = ("even", "odd")
# (bond, ratio) pairs of a defect pattern.
Pattern = tuple[tuple[int, float], ...]


@dataclasses.dataclass(frozen=True)
class ChainSpec:
    """Immutable description of one chain realization.

    Parameters
    ----------
    n_sites : int
        Number of lattice sites, at least 2.
    boundary : str
        Either ``"open"`` or ``"periodic"``.
    modified_bonds : tuple of (int, float)
        Pairs ``(bond_index, ratio)``; the hopping on that bond is
        ``ratio``.  Ratios must be positive and finite, indices unique and
        within range.
    """

    n_sites: int
    boundary: str = "open"
    modified_bonds: Pattern = ()

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        seen = set()
        for bond, ratio in self.modified_bonds:
            if not 1 <= bond <= self.n_bonds:
                raise ValueError(f"bond {bond} outside 1..{self.n_bonds}")
            if bond in seen:
                raise ValueError(f"bond {bond} modified twice")
            # LAPACK's bidiagonal SVD never returns on an infinite entry
            if not 0 < ratio < math.inf:
                raise ValueError(f"bond ratio must be positive and finite, got {ratio}")
            seen.add(bond)

    @property
    def n_bonds(self) -> int:
        return self.n_sites if self.boundary == "periodic" else self.n_sites - 1

    def bond_ratios(self) -> np.ndarray:
        """Per-bond hopping ratios t_b, index b-1 holding bond b."""
        t = np.ones(self.n_bonds)
        for bond, ratio in self.modified_bonds:
            t[bond - 1] = ratio
        return t


def single_impurity(ratio: float, bond: int) -> Pattern:
    """One modified bond of hopping ratio at the given bond index."""
    return ((bond, float(ratio)),)


def dot_impurity(ratio: float, bond: int) -> Pattern:
    """Two equal modified bonds at (bond, bond+1), weakly coupling site bond+1."""
    return ((bond, float(ratio)), (bond + 1, float(ratio)))


def alternating_block(ratio: float, anchor: int, n_imp: int) -> Pattern:
    """n_imp equal modified bonds at anchor, anchor+2, ..., every other bond."""
    if n_imp < 1:
        raise ValueError(f"need at least one modified bond, got {n_imp}")
    return tuple((anchor + 2 * i, float(ratio)) for i in range(n_imp))


def place_pattern(pattern: Pattern, n_sites: int, boundary: str = "open") -> ChainSpec:
    """Place a defect pattern on a chain of n_sites sites.

    Returns
    -------
    ChainSpec
        Chain with the pattern's bonds modified.  Raises ``ValueError``
        if any pattern bond falls outside the chain.
    """
    return ChainSpec(n_sites=n_sites, boundary=boundary, modified_bonds=tuple(pattern))


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense single-particle Hamiltonian of a chain.

    Parameters
    ----------
    spec : ChainSpec

    Returns
    -------
    ndarray, shape (n_sites, n_sites)
        Real symmetric matrix with H[i, i+1] = -t_{i+1} in 0-based
        storage; site j of the spec is row j-1.
    """
    n = spec.n_sites
    t = spec.bond_ratios()
    h = np.zeros((n, n))
    for b in range(n - 1):
        h[b, b + 1] = -t[b]
        h[b + 1, b] = -t[b]
    if spec.boundary == "periodic":
        # bond n couples the last site back to the first
        h[n - 1, 0] += -t[n - 1]
        h[0, n - 1] += -t[n - 1]
    return h

