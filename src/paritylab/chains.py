"""Tight-binding chain specifications with bond defects.

Single-particle Hamiltonians for spinless fermions hopping on a chain,

    H = -J sum_b t_b (|b><b+1| + |b+1><b|),

where t_b = 1 on plain bonds and t_b = lambda on modified ones.  Bonds and
sites are indexed from 1; bond b couples sites (b, b+1), and on a ring the
last bond couples (n_sites, 1).  Defect patterns (a single weak/strong bond,
a two-bond dot, or an alternating block) are placed by bond index so that a
pattern can sit exactly at the border of a subsystem.
"""

from __future__ import annotations

import dataclasses

import numpy as np

BOUNDARIES = ("open", "periodic")
PATTERN_KINDS = ("single", "dot", "alternating")
# Subsystem parities of a parity pair, even member first.
PARITIES = ("even", "odd")


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
        ``ratio * J``.  Ratios must be strictly positive, indices unique
        and within range.
    hopping : float
        Overall hopping scale J (energy unit), default 1.
    """

    n_sites: int
    boundary: str = "open"
    modified_bonds: tuple[tuple[int, float], ...] = ()
    hopping: float = 1.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.hopping <= 0:
            raise ValueError("hopping scale must be positive")
        seen = set()
        for bond, ratio in self.modified_bonds:
            if not 1 <= bond <= self.n_bonds:
                raise ValueError(f"bond {bond} outside 1..{self.n_bonds}")
            if bond in seen:
                raise ValueError(f"bond {bond} modified twice")
            if ratio <= 0:
                raise ValueError(f"bond ratio must be positive, got {ratio}")
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


@dataclasses.dataclass(frozen=True)
class ImpurityPattern:
    """A defect pattern before placement on a concrete chain.

    kind "single" is one modified bond; "dot" is two successive bonds of
    equal ratio isolating the site between them; "alternating" modifies
    bonds anchor, anchor+2, ... leaving plain bonds in between.
    ``ratios`` holds one value per modified bond.
    """

    kind: str
    anchor: int
    ratios: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"kind must be one of {PATTERN_KINDS}, got {self.kind!r}")
        if self.anchor < 1:
            raise ValueError(f"anchor bond must be >= 1, got {self.anchor}")
        if not self.ratios:
            raise ValueError("pattern needs at least one bond ratio")
        if any(r <= 0 for r in self.ratios):
            raise ValueError("bond ratios must be positive")
        if self.kind == "single" and len(self.ratios) != 1:
            raise ValueError("single-bond pattern takes exactly one ratio")
        if self.kind == "dot":
            if len(self.ratios) != 2:
                raise ValueError("dot pattern takes exactly two ratios")
            if self.ratios[0] != self.ratios[1]:
                raise ValueError("dot pattern requires equal ratios on both bonds")

    @property
    def n_imp(self) -> int:
        return len(self.ratios)

    def bond_indices(self) -> tuple[int, ...]:
        """Bond indices the pattern occupies, in increasing order."""
        if self.kind == "single":
            return (self.anchor,)
        if self.kind == "dot":
            return (self.anchor, self.anchor + 1)
        return tuple(self.anchor + 2 * i for i in range(len(self.ratios)))


def single_impurity(ratio: float, bond: int) -> ImpurityPattern:
    """One modified bond of strength ratio*J at the given bond index."""
    return ImpurityPattern("single", bond, (float(ratio),))


def dot_impurity(ratio: float, bond: int) -> ImpurityPattern:
    """Two equal modified bonds at (bond, bond+1), weakly coupling site bond+1."""
    return ImpurityPattern("dot", bond, (float(ratio), float(ratio)))


def alternating_block(ratio: float, anchor: int, n_imp: int) -> ImpurityPattern:
    """n_imp equal modified bonds at anchor, anchor+2, ..., every other bond."""
    if n_imp < 1:
        raise ValueError(f"need at least one modified bond, got {n_imp}")
    return ImpurityPattern("alternating", anchor, (float(ratio),) * n_imp)


def place_pattern(pattern: ImpurityPattern, n_sites: int, boundary: str = "open",
                  hopping: float = 1.0) -> ChainSpec:
    """Place a defect pattern on a chain of n_sites sites.

    Returns
    -------
    ChainSpec
        Chain with the pattern's bonds modified.  Raises ``ValueError``
        if any pattern bond falls outside the chain.
    """
    bonds = pattern.bond_indices()
    spec = ChainSpec(n_sites=n_sites, boundary=boundary,
                     modified_bonds=tuple(zip(bonds, pattern.ratios)),
                     hopping=hopping)
    return spec


def homogeneous(n_sites: int, boundary: str = "open", hopping: float = 1.0) -> ChainSpec:
    """Defect-free chain."""
    return ChainSpec(n_sites=n_sites, boundary=boundary, hopping=hopping)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense single-particle Hamiltonian of a chain.

    Parameters
    ----------
    spec : ChainSpec

    Returns
    -------
    ndarray, shape (n_sites, n_sites)
        Real symmetric matrix with H[i, i+1] = -J t_{i+1} in 0-based
        storage; site j of the spec is row j-1.
    """
    n = spec.n_sites
    t = spec.bond_ratios() * spec.hopping
    h = np.zeros((n, n))
    for b in range(n - 1):
        h[b, b + 1] = -t[b]
        h[b + 1, b] = -t[b]
    if spec.boundary == "periodic":
        # bond n couples the last site back to the first
        h[n - 1, 0] += -t[n - 1]
        h[0, n - 1] += -t[n - 1]
    return h


def parity_pair(spec: ChainSpec, region_len: int) -> tuple[ChainSpec, ChainSpec]:
    """Even/odd partner chains for a defect anchored at the subsystem border.

    The even member is the input chain itself with a subsystem of
    ``region_len`` sites (region_len must be even and its border bond must
    carry part of the defect).  The odd member shifts every modified bond
    one site to the right, to be paired with a subsystem of region_len+1
    sites: defect and cut move together, so the defect stays pinned at the
    border while the subsystem parity flips.

    Returns
    -------
    (ChainSpec, ChainSpec)
        Even-parity and odd-parity chains; subsystem lengths are
        region_len and region_len+1 respectively.
    """
    if region_len % 2 != 0:
        raise ValueError(f"region_len must be even, got {region_len}")
    bonds = {b for b, _ in spec.modified_bonds}
    if region_len not in bonds:
        raise ValueError(f"no modified bond at the region border {region_len}")
    shifted = tuple((b + 1, r) for b, r in spec.modified_bonds)
    odd = dataclasses.replace(spec, modified_bonds=shifted)
    return spec, odd
