"""Scattering description of bond-defect blocks at the Fermi point.

An alternating block of weakened bonds acts on half-filled chains like a
single defect of effective strength equal to the product of its bond
ratios.  At the Fermi momentum the exterior plane-wave amplitudes on the
two sides are related by a rotation whose angle is the scattering phase
shift; its sign flips with the sublattice the block is anchored on, which
is what turns a microscopic one-site shift of the defect into the
macroscopic even/odd splitting of subsystem observables.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .chains import PARITIES, ChainSpec
from .spectral import diagonalize
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
    strength : float
        Effective bond ratio of the block.
    transmission : float
        Amplitude s = 2*strength/(1 + strength^2) = cos(shift).
    shift : float
        Signed phase shift; positive for an even anchor bond, and the
        anchor parity flips its sign.
    anchor_parity : str
        "even" or "odd", parity of the bond the block is anchored on.
    """

    strength: float
    transmission: float
    shift: float
    anchor_parity: str


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
        strength=strength,
        transmission=transmission_coefficient(strength),
        shift=sign * magnitude,
        anchor_parity=anchor_parity,
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
class BlockWaveSolution:
    """Scattering eigenstate of an alternating block embedded in leads.

    The wave is a*e^(ikn) + b*e^(-ikn) on sites n <= -1 left of the
    block (n counted from the anchor), the interior amplitudes on sites
    n = 0 .. 2*n_imp - 1, and c*e^(ikn) + d*e^(-ikn) on n >= 2*n_imp.
    ``residual`` is the largest violation of the lattice eigenvalue
    equation over the assembled window.
    """

    ratios: tuple[float, ...]
    momentum: float
    a_left: complex
    b_left: complex
    c_right: complex
    d_right: complex
    interior: np.ndarray
    residual: float


def solve_block(ratios: Sequence[float], momentum: float,
                a_left: complex = 1.0, b_left: complex = 0.0) -> BlockWaveSolution:
    """Propagate a plane wave through an alternating defect block.

    Bonds (0,1), (2,3), ... carry the given ratios, the bonds in between
    stay plain.  Interior amplitudes follow the three-term recursion of
    the eigenvalue equation at energy -2 cos(k); the two rightmost
    equations then fix the transmitted amplitudes.

    Parameters
    ----------
    ratios : sequence of float
        One ratio per modified bond, all positive.
    momentum : float
        Wave number k in (0, pi), away from the band edges.
    a_left, b_left : complex
        Right- and left-moving amplitudes in the left lead.
    """
    lam = [float(r) for r in ratios]
    if not lam:
        raise ValueError("need at least one bond ratio")
    if any(r <= 0 for r in lam):
        raise ValueError("bond ratios must be positive")
    k = float(momentum)
    if not 0.0 < k < math.pi:
        raise ValueError(f"momentum must lie inside (0, pi), got {k}")
    n_imp = len(lam)
    n_int = 2 * n_imp
    cos2 = 2.0 * math.cos(k)
    a, b = complex(a_left), complex(b_left)

    c = np.zeros(n_int, dtype=complex)
    c[0] = a + b
    c[1] = (a * np.exp(1j * k) + b * np.exp(-1j * k)) / lam[0]
    for n in range(2, n_int):
        if n % 2 == 0:
            # plain bond on the right of site n-1, modified on its left
            c[n] = cos2 * c[n - 1] - lam[n // 2 - 1] * c[n - 2]
        else:
            c[n] = (cos2 * c[n - 1] - c[n - 2]) / lam[n // 2]

    # eigenvalue equations at sites 2n-1 and 2n fix (C, D)
    rhs1 = cos2 * c[-1] - lam[-1] * c[-2]
    rhs2 = c[-1]
    e1 = np.exp(1j * k * n_int)
    e2 = np.exp(1j * k * (n_int - 1))
    m = np.array([[e1, np.conj(e1)], [e2, np.conj(e2)]])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12:
        raise ValueError(f"singular exterior matching at k={k}")
    cd = np.linalg.solve(m, np.array([rhs1, rhs2]))

    sol = BlockWaveSolution(
        ratios=tuple(lam), momentum=k, a_left=a, b_left=b,
        c_right=complex(cd[0]), d_right=complex(cd[1]),
        interior=c, residual=0.0,
    )
    return dataclasses.replace(sol, residual=_wave_residual(sol))


def _wave_residual(sol: BlockWaveSolution, pad: int = 6) -> float:
    # assemble the wave on a window around the block and check the
    # eigenvalue equation on every interior site of the window
    n_int = sol.interior.size
    k = sol.momentum
    sites = np.arange(-pad, n_int + pad)
    psi = np.empty(sites.size, dtype=complex)
    for idx, n in enumerate(sites):
        if n < 0:
            psi[idx] = sol.a_left * np.exp(1j * k * n) + sol.b_left * np.exp(-1j * k * n)
        elif n < n_int:
            psi[idx] = sol.interior[n]
        else:
            psi[idx] = sol.c_right * np.exp(1j * k * n) + sol.d_right * np.exp(-1j * k * n)

    def bond(n):  # hopping ratio on bond (n, n+1)
        if 0 <= n < n_int - 1 and n % 2 == 0:
            return sol.ratios[n // 2]
        return 1.0

    energy = -2.0 * math.cos(k)
    worst = 0.0
    for idx in range(1, sites.size - 1):
        n = sites[idx]
        lhs = -bond(n - 1) * psi[idx - 1] - bond(n) * psi[idx + 1]
        worst = max(worst, abs(lhs - energy * psi[idx]))
    return worst


@dataclasses.dataclass(frozen=True)
class NearZeroModes:
    """The two single-particle levels closest to zero energy.

    ``left_mode``/``right_mode`` are the orthogonal combinations of the
    two eigenvectors with maximal weight left/right of the defect block.
    ``left_weights``/``right_weights`` are (side, sublattice) arrays:
    row 0 the left side, row 1 the right side, column 0 the odd-site
    sublattice, column 1 the even-site one, each row normalized by the
    mode weight on that side.
    """

    energies: tuple[float, float]
    left_mode: np.ndarray
    right_mode: np.ndarray
    left_weights: np.ndarray
    right_weights: np.ndarray

    @property
    def splitting(self) -> float:
        return self.energies[1] - self.energies[0]


def near_zero_modes(spec: ChainSpec) -> NearZeroModes:
    """Locate and polarize the in-gap pair of a chain with a defect block.

    Diagonalizes the chain, takes the two levels nearest zero energy and
    rotates their span into the combination localized left of the block
    center and its orthogonal partner.  For a gapped alternating chain
    these are the edge modes, each polarized on one sublattice.
    """
    data = diagonalize(spec)
    order = np.argsort(np.abs(data.energies))
    i, j = sorted(order[:2])
    pair = (float(data.energies[i]), float(data.energies[j]))
    v = data.orbitals[:, [i, j]]

    if spec.modified_bonds:
        bonds = sorted(b for b, _ in spec.modified_bonds)
        center = (bonds[0] + bonds[-1] + 1) / 2.0
    else:
        center = (1 + spec.n_sites) / 2.0
    site = np.arange(1, spec.n_sites + 1)
    left_side = site <= center

    # rotate the 2d span to extremize the weight on the left side
    w = v[left_side].T @ v[left_side]
    _, rot = np.linalg.eigh(w)
    right_mode = v @ rot[:, 0]  # smallest left weight
    left_mode = v @ rot[:, 1]

    def side_weights(mode):
        out = np.zeros((2, 2))
        for row, mask in enumerate((left_side, ~left_side)):
            dens = mode[mask] ** 2
            total = dens.sum()
            odd_sites = site[mask] % 2 == 1
            if total > 0:
                out[row, 0] = dens[odd_sites].sum() / total
                out[row, 1] = dens[~odd_sites].sum() / total
        return out

    return NearZeroModes(
        energies=pair,
        left_mode=left_mode,
        right_mode=right_mode,
        left_weights=side_weights(left_mode),
        right_weights=side_weights(right_mode),
    )
