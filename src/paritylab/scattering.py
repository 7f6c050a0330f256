"""Scattering description of bond-defect blocks at the Fermi point.

An alternating block of weakened bonds acts on half-filled chains like a
single defect of effective strength equal to the product of its bond
ratios (`effective_strength`).  At the Fermi momentum the exterior
plane-wave amplitudes on the two sides are related by a rotation
(`exterior_matching`) whose angle is the scattering phase shift
(`phase_shift`); its sign flips with the sublattice the block is anchored
on, which is what turns a microscopic one-site shift of the defect into
the macroscopic even/odd splitting of subsystem observables.  A gapped
alternating chain binds one edge mode on each side of the block instead;
`near_zero_modes` returns their pair of levels, split by tunnelling
through the block.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .chains import PARITIES, ChainSpec
from .spectral import sublattice_singular_values
from .theory import transmission_coefficient


def effective_strength(ratios: Sequence[float]) -> float:
    """Product of the bond ratios of an alternating block.

    A block of n equal ratios r behaves at half filling like a single
    modified bond of ratio r**n.
    """
    if len(ratios) == 0:
        raise ValueError("need at least one bond ratio")
    if any(r <= 0 for r in ratios):
        raise ValueError("bond ratios must be positive")
    return float(np.prod(np.asarray(ratios, dtype=float)))


@dataclasses.dataclass(frozen=True)
class PhaseShiftData:
    """Fermi-point scattering data of a defect block.

    Attributes
    ----------
    transmission : float
        Amplitude s = 2*strength/(1 + strength^2) = cos(shift).
    shift : float
        Signed phase shift; positive for an even anchor bond, and the
        anchor parity flips its sign.
    """

    transmission: float
    shift: float


def phase_shift(strength: float, anchor_parity: str = "even") -> PhaseShiftData:
    """Fermi-point phase shift of a defect block of given effective strength.

    The magnitude is pi/2 - 2 arctan(strength), vanishing at strength 1
    and saturating at pi/2 for an opaque block; the sign alternates with
    the anchor-bond parity, with the even anchor taken positive.
    """
    if strength <= 0:
        raise ValueError(f"strength must be positive, got {strength}")
    if anchor_parity not in PARITIES:
        raise ValueError(f"anchor_parity must be 'even' or 'odd', got {anchor_parity!r}")
    magnitude = math.pi / 2.0 - 2.0 * math.atan(strength)
    sign = 1.0 if anchor_parity == "even" else -1.0
    return PhaseShiftData(
        transmission=transmission_coefficient(strength),
        shift=sign * magnitude,
    )


def exterior_matching(strength: float, anchor_parity: str = "even") -> np.ndarray:
    """Rotation relating exterior plane-wave amplitudes across a block.

    For the half-filled chain the outgoing amplitudes (B, C) follow from
    the incoming ones (D, A) by an orthogonal matrix [[s, r], [-r, s]]
    with s the transmission and r = (1 - strength^2)/(1 + strength^2);
    this is a rotation by the signed phase shift.
    """
    data = phase_shift(strength, anchor_parity)
    c, s = math.cos(data.shift), math.sin(data.shift)
    return np.array([[c, s], [-s, c]])


@dataclasses.dataclass(frozen=True)
class NearZeroModes:
    """The two single-particle levels closest to zero energy, ascending."""

    energies: tuple[float, float]

    @property
    def splitting(self) -> float:
        return self.energies[1] - self.energies[0]


def near_zero_modes(spec: ChainSpec) -> NearZeroModes:
    """The in-gap pair of an open chain of even length with a defect block.

    The two levels nearest zero energy are -+sigma_min of the sublattice
    block (`sublattice_singular_values`); for a gapped alternating chain
    these are the hybridized edge modes, and their splitting measures the
    tunnelling through the block.
    """
    sigma_min = float(sublattice_singular_values(spec)[0])
    return NearZeroModes(energies=(-sigma_min, sigma_min))
