"""Single-particle diagonalization and ground-state correlation matrices.

The many-body ground state at fixed particle number fills the lowest
single-particle orbitals; every observable used here derives from the
two-point function G_ij = <c_i^dag c_j> restricted to a subsystem.  The
Fermi level must sit in a gap for the filled sea to be unique, so filling
a degenerate level is treated as an error rather than resolved by an
arbitrary tie-break.

The solver takes one of three routes, picked from the chain alone:

- open chains are tridiagonal and go straight to LAPACK's tridiagonal
  divide-and-conquer eigensolver on the bond hoppings;
- a ring with a mirror axis (one that maps the bond pattern onto itself,
  as every placed defect pattern and every clean ring has) splits into an
  even and an odd sector under the reflection.  Each sector is an open
  tridiagonal chain of about L/2 sites and goes to the same solver;
- a ring without such an axis carries a corner element that no
  reflection removes, and takes the dense symmetric solver.

No route forms the dense matrix except the last, which stays the exact
reference for the other two.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chains import ChainSpec, build_hamiltonian

# Relative gap below which the Fermi level counts as degenerate.
DEGENERACY_RTOL = 1e-12


class DegenerateFermiLevelError(ValueError):
    """Requested filling would cut through a degenerate single-particle level."""


@dataclasses.dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of one chain Hamiltonian.

    Attributes
    ----------
    spec : ChainSpec
        The chain that was diagonalized.
    energies : ndarray, shape (n,)
        Eigenvalues in ascending order.
    orbitals : ndarray, shape (n, n)
        Orthonormal eigenvectors, column k belonging to energies[k].
    """

    spec: ChainSpec
    energies: np.ndarray
    orbitals: np.ndarray


def diagonalize(spec: ChainSpec) -> SpectralData:
    """Diagonalize the single-particle Hamiltonian of a chain.

    Three routes, all exact:

    - open chains: the tridiagonal divide-and-conquer solver (LAPACK
      ``stevd``) with zero diagonal and off-diagonal -J t_b;
    - rings with a mirror axis (`mirror_axis`): the same solver on the
      even and odd sectors of the reflection, about L/2 sites each, whose
      eigenvectors unfold onto the ring with weights +-1/sqrt(2); the
      dense L x L problem costs several times more already at L ~ 10^2;
    - rings without one: ``numpy.linalg.eigh`` of `build_hamiltonian`,
      the only exact route there and the reference for the other two.

    ``stevd`` rather than the faster MRRR ``stemr``: MRRR orbitals are
    orthogonal only to ~1e-13 at L ~ 10^3, against ~1e-15 here, which
    moves entropies by up to ~4e-10 and slopes taken from near-equal pairs
    by far more.

    Returns
    -------
    SpectralData
        Ascending eigenvalues and orthonormal orbitals.

    Raises
    ------
    numpy.linalg.LinAlgError
        If LAPACK fails; the message names the chain size.
    """
    ratios = spec.bond_ratios()
    try:
        if spec.boundary == "open":
            energies, orbitals = _tridiagonal(np.zeros(spec.n_sites), -spec.hopping * ratios)
        elif (axis := mirror_axis(ratios)) is not None:
            energies, orbitals = _mirror_ring(spec.hopping * ratios, axis)
        else:
            energies, orbitals = np.linalg.eigh(build_hamiltonian(spec))
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"eigensolver failed on {spec.n_sites}x{spec.n_sites} chain Hamiltonian: {err}"
        ) from err
    return SpectralData(spec=spec, energies=energies, orbitals=orbitals)


def mirror_axis(ratios: np.ndarray) -> int | None:
    """Reflection of a ring that leaves its bond ratios unchanged, if any.

    In 0-based storage the reflection with axis c maps site j to
    (c - j) mod L and bond b to (c - 1 - b) mod L; it is a symmetry when
    ratios[b] == ratios[(c - 1 - b) mod L] for every bond.  A symmetry
    must map the first modified bond onto a modified bond, so only those
    |M| axes are tried, each with one O(L) comparison; a clean ring takes
    c = 1.  Rings of fewer than three sites, whose two bonds join the
    same pair of sites, have none.

    Returns
    -------
    int or None
        The axis c in 0..L-1, or None if the ring has no mirror axis.
    """
    n = ratios.size
    if n < 3:
        return None
    modified = np.flatnonzero(ratios != 1.0)
    if modified.size == 0:
        return 1
    for target in modified:
        axis = int(modified[0] + target + 1) % n
        if np.array_equal(ratios, ratios[(axis - 1 - np.arange(n)) % n]):
            return axis
    return None


def _tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray):
    return eigh_tridiagonal(diagonal, off_diagonal, lapack_driver="stevd")


def _mirror_ring(hoppings: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a ring symmetric under j -> (axis - j) mod L.

    Sites lying at half-positions axis..axis+L (site j at 2j, bond b's
    midpoint at 2b+1) hold one site of each orbit {j, axis - j}, ordered
    by distance from the axis; the ends of that half-arc are either
    on-axis sites, their own mirror images, or the midpoints of on-axis
    bonds.  An on-axis bond joins a site to its image and enters the even
    and odd sector as the diagonal entry -t and +t.  An on-axis site has
    even amplitude only and couples to its neighbour orbit with weight
    sqrt(2); the odd sector leaves it out.
    """
    n = hoppings.size
    sites = np.arange((axis + 1) // 2, (axis + n) // 2 + 1)
    mirror = (axis - sites) % n
    sites %= n
    on_axis_site = sites == mirror
    pair = ~on_axis_site
    on_axis_bond = np.zeros(sites.size)
    if axis % 2:
        on_axis_bond[0] = hoppings[mirror[0]]
    if (axis + n) % 2:
        on_axis_bond[-1] = hoppings[sites[-1]]
    bonds = hoppings[sites[:-1]]

    even_energies, even = _tridiagonal(
        -on_axis_bond,
        -bonds * np.where(on_axis_site[:-1] | on_axis_site[1:], np.sqrt(2.0), 1.0))
    odd_energies, odd = _tridiagonal(on_axis_bond[pair], -bonds[pair[:-1] & pair[1:]])

    n_even = even_energies.size
    orbitals = np.zeros((n, n))
    even *= np.where(on_axis_site, 1.0, np.sqrt(0.5))[:, None]
    orbitals[sites, :n_even] = even
    orbitals[mirror, :n_even] = even
    odd *= np.sqrt(0.5)
    orbitals[sites[pair], n_even:] = odd
    orbitals[mirror[pair], n_even:] = -odd
    energies = np.concatenate([even_energies, odd_energies])
    order = np.argsort(energies, kind="stable")
    return energies[order], orbitals[:, order]


def occupy(spectral: SpectralData, n_particles: int) -> np.ndarray:
    """Columns of the filled Fermi sea at fixed particle number.

    Raises
    ------
    DegenerateFermiLevelError
        If the gap between the highest filled and lowest empty level is
        below DEGENERACY_RTOL times the spectral bandwidth, in which case
        the filled sea is not unique.
    """
    n = spectral.energies.size
    if not 0 <= n_particles <= n:
        raise ValueError(f"n_particles must be in 0..{n}, got {n_particles}")
    if 0 < n_particles < n:
        gap = spectral.energies[n_particles] - spectral.energies[n_particles - 1]
        bandwidth = spectral.energies[-1] - spectral.energies[0]
        if gap < DEGENERACY_RTOL * max(bandwidth, 1.0):
            raise DegenerateFermiLevelError(
                f"levels {n_particles - 1} and {n_particles} degenerate "
                f"(gap {gap:.3e}); filling {n_particles} of {n} is ambiguous"
            )
    return spectral.orbitals[:, :n_particles]


def correlation_matrix(spectral: SpectralData, n_particles: int) -> np.ndarray:
    """Ground-state two-point function G_ij = <c_i^dag c_j>.

    With real orthonormal orbitals phi_k this is the projector
    G = sum_{k filled} phi_k phi_k^T onto the Fermi sea; G is symmetric
    with eigenvalues 0 and 1.

    Returns
    -------
    ndarray, shape (n, n)
    """
    filled = occupy(spectral, n_particles)
    return filled @ filled.T


def half_filling(spec: ChainSpec) -> int:
    """Particle number at half filling; requires an even number of sites."""
    if spec.n_sites % 2 != 0:
        raise ValueError(f"half filling needs even n_sites, got {spec.n_sites}")
    return spec.n_sites // 2
