"""Single-particle diagonalization and ground-state correlation matrices.

The many-body ground state at fixed particle number fills the lowest
single-particle orbitals; every observable used here derives from the
two-point function G_ij = <c_i^dag c_j> restricted to a subsystem.  The
Fermi level must sit in a gap for the filled sea to be unique, so filling
a degenerate level is treated as an error rather than resolved by an
arbitrary tie-break.

Half filling, which every parity measurement asks for, has its own entry
point, `half_filled_block`.  A chain of even length is bipartite: in (odd
sites, even sites) order H = [[0, B], [B^T, 0]], so G = (1 - sign H)/2
has diagonal blocks I/2 and off-diagonal block -Q/2 (Peschel, J. Phys. A
36, L205, 2003), and a region is fixed by its own sublattice block Q_A.
On an open chain B is lower bidiagonal and Q = U V^T follows from
B = U Sigma V^T alone (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205,
1965), which LAPACK's bidiagonal divide-and-conquer ``dbdsdc`` (Gu &
Eisenstat, SIAM J. Matrix Anal. Appl. 16, 79, 1995) finds at half the
size of H.  A ring's B has one corner element more.  Every ring a sweep
plans has a mirror axis through two bonds (see `mirror_axis`), and there
the sublattice sign S = diag((-1)^j), which flips H, also flips the
reflection, so it maps the even mirror sector onto the odd one with every
energy negated.  Q_A then follows from the eigenpairs of the even sector
alone, a tridiagonal chain of L/2 sites.  Other rings read Q_A off the
filled orbitals of `diagonalize`.

`diagonalize` returns every orbital, for any filling, taking one of
three routes picked from the chain alone:

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

import ctypes
import dataclasses

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dstevd

from .chains import ChainSpec, build_hamiltonian

# Relative gap below which the Fermi level counts as degenerate.
DEGENERACY_RTOL = 1e-12


def _lapack_symbol(name: str):
    """A LAPACK routine that scipy.linalg.lapack does not wrap, called
    through the pointer scipy.linalg.cython_lapack exports for it.

    The capsule is looked up under its own name, the C signature, which
    differs between scipy versions.  Every LAPACK argument is a pointer.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)(address)


# (uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info)
_dbdsdc = _lapack_symbol("dbdsdc")


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
    n = spec.n_sites
    ratios = spec.bond_ratios()
    if spec.boundary == "open":
        energies, orbitals = _tridiagonal(np.zeros(n), -spec.hopping * ratios, n)
    elif (axis := mirror_axis(ratios)) is not None:
        energies, orbitals = _mirror_ring(spec.hopping * ratios, axis)
    else:
        try:
            energies, orbitals = np.linalg.eigh(build_hamiltonian(spec))
        except np.linalg.LinAlgError as err:
            raise _solver_error("eigh", n, err) from err
    return SpectralData(spec=spec, energies=energies, orbitals=orbitals)


def half_filled_block(spec: ChainSpec, region_len: int) -> np.ndarray:
    """Sublattice block Q_A of the half-filled correlation matrix of a
    chain's first region_len sites, a = ceil(l/2) odd and b = floor(l/2)
    even ones: G_A = 1/2 [[I, -Q_A], [-Q_A^T, I]] in (odd sites, even
    sites) order (module docstring).  Two routes, picked from the chain:

    - open chains: Q_A = U[:a] V^T[:, :b] with B = U Sigma V^T.  B has
      diagonal -J t_{2i-1} and subdiagonal -J t_{2i}, 1-based bonds, over
      the L/2 odd sites.  ``dbdsdc`` keeps U and V orthonormal to ~1e-14
      at L/2 ~ 3000, as ``stevd`` keeps its orbitals (see `diagonalize`
      for why that matters);
    - rings whose mirror axis runs through two bonds (odd axis c, as on
      every ring a sweep plans): Q_A = V[r_odd] diag(sign E) V[r_even]^T
      from the eigenpairs (E, V) of the even mirror sector alone, where
      r maps each region site to its orbit's row (`_bond_axis_block`);
    - other rings: Q_A = -2 phi_A[0::2] phi_A[1::2]^T over the region's
      rows phi_A of the filled orbitals of `diagonalize`.

    Returns
    -------
    ndarray, shape (ceil(region_len / 2), floor(region_len / 2))

    Raises
    ------
    ValueError
        If the chain has an odd number of sites, or the region is empty
        or longer than the chain.
    DegenerateFermiLevelError
        If the Fermi gap, 2 sigma_min on open chains and 2 min |E| on
        bond-axis rings, fails `occupy`'s rule.
    numpy.linalg.LinAlgError
        If LAPACK fails; the message names the chain size.
    """
    n_filled = half_filling(spec)
    if region_len > spec.n_sites:
        raise ValueError(f"region ends at site {region_len} but chain has {spec.n_sites}")
    if region_len < 1:
        raise ValueError(f"region length must be >= 1, got {region_len}")
    ratios = spec.bond_ratios()
    if spec.boundary != "open":
        axis = mirror_axis(ratios)
        if axis is not None and axis % 2:
            return _bond_axis_block(spec.hopping * ratios, axis, region_len)
        phi_a = occupy(diagonalize(spec), n_filled)[:region_len]
        return -2.0 * phi_a[0::2] @ phi_a[1::2].T
    hoppings = -spec.hopping * ratios
    sigma, u, vt, info = _bidiagonal_svd(hoppings[0::2], hoppings[1::2])
    if info != 0:
        raise _solver_error("bdsdc", spec.n_sites, f"info={info}")
    # H has eigenvalues -+sigma, and half filling fills the lower n_filled
    _check_gap(2.0 * sigma[-1], 2.0 * sigma[0], n_filled, spec.n_sites)
    return u[:(region_len + 1) // 2] @ vt[:, :region_len // 2]


def _bond_axis_block(hoppings: np.ndarray, axis: int, region_len: int) -> np.ndarray:
    """Q_A of a half-filled ring of even length L whose mirror axis c is
    odd, from the even mirror sector alone.

    Odd c puts an on-axis bond at both ends of the half-arc and no site on
    the axis.  With R the reflection and S = diag((-1)^j), SHS = -H and
    SRS = (-1)^c R = -R, so S maps each even-sector orbital v_k (energy
    E_k) onto an odd-sector one of energy -E_k.  Half filling takes v_k
    where E_k < 0 and S v_k where E_k > 0; both unfold with weight
    1/sqrt(2) onto the two sites of each orbit, and on the odd-even block
    of sign H, which is Q, their terms add to v_k v_k^T sign(E_k).
    """
    n = hoppings.size
    sites, mirror, on_axis_bond = _mirror_orbits(hoppings, axis)
    energies, orbitals = _tridiagonal(-on_axis_bond, -hoppings[sites[:-1]], n)
    # H has eigenvalues -+|E_k|, and half filling fills the lower L/2
    magnitudes = np.abs(energies)
    _check_gap(2.0 * magnitudes.min(), 2.0 * magnitudes.max(), n // 2, n)
    row = np.empty(n, dtype=np.intp)
    row[sites] = np.arange(sites.size)
    row[mirror] = np.arange(sites.size)
    rows = row[:region_len]
    return (orbitals[rows[0::2]] * np.sign(energies)) @ orbitals[rows[1::2]].T


def _bidiagonal_svd(diagonal: np.ndarray, sub_diagonal: np.ndarray):
    """B = U diag(sigma) V^T of a lower bidiagonal B by LAPACK ``dbdsdc``.

    Returns (sigma, U, V^T, info): sigma descending, U and V^T as
    Fortran-ordered n x n arrays, and LAPACK's info, nonzero on failure.
    """
    n = diagonal.size
    sigma = np.array(diagonal, dtype=float)
    e = np.zeros(max(n - 1, 1))
    e[:n - 1] = sub_diagonal
    u = np.empty((n, n), order="F")
    vt = np.empty((n, n), order="F")
    work = np.empty(3 * n * n + 4 * n)
    iwork = np.empty(8 * n, dtype=np.intc)
    size = np.array([n], dtype=np.intc)
    info = np.zeros(1, dtype=np.intc)
    unused = np.zeros(1)
    _dbdsdc(b"L", b"I", size.ctypes.data, sigma.ctypes.data, e.ctypes.data,
            u.ctypes.data, size.ctypes.data, vt.ctypes.data, size.ctypes.data,
            unused.ctypes.data, unused.ctypes.data, work.ctypes.data,
            iwork.ctypes.data, info.ctypes.data)
    return sigma, u, vt, int(info[0])


def _solver_error(routine: str, n_sites: int, detail) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(
        f"{routine} failed on {n_sites}x{n_sites} chain Hamiltonian: {detail}")


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


def _tridiagonal(diagonal: np.ndarray, off_diagonal: np.ndarray, n_sites: int):
    """Eigenpairs of a symmetric tridiagonal matrix by LAPACK ``stevd``, for
    a chain of n_sites (which a mirror sector is part of)."""
    # the wrapper wants at least one off-diagonal entry even for 1 x 1
    if off_diagonal.size == 0:
        off_diagonal = np.zeros(1)
    energies, orbitals, info = dstevd(diagonal, off_diagonal)
    if info != 0:
        raise _solver_error("stevd", n_sites, f"info={info}")
    return energies, orbitals


def _mirror_orbits(hoppings: np.ndarray, axis: int):
    """Orbits of the reflection j -> (axis - j) mod L of a ring.

    Sites lying at half-positions axis..axis+L (site j at 2j, bond b's
    midpoint at 2b+1) hold one site of each orbit {j, axis - j}, ordered
    by distance from the axis; the ends of that half-arc are either
    on-axis sites, their own mirror images, or the midpoints of on-axis
    bonds.  An on-axis bond joins a site to its image and enters the even
    and odd sector as the diagonal entry -t and +t.

    Returns (sites, mirror, on_axis_bond): the half-arc's sites, the
    image of each, and the hopping t of an on-axis bond at either end of
    the half-arc (0 elsewhere).  Bond sites[i] joins sites[i] and
    sites[i + 1].
    """
    n = hoppings.size
    sites = np.arange((axis + 1) // 2, (axis + n) // 2 + 1)
    mirror = (axis - sites) % n
    sites %= n
    on_axis_bond = np.zeros(sites.size)
    if axis % 2:
        on_axis_bond[0] = hoppings[mirror[0]]
    if (axis + n) % 2:
        on_axis_bond[-1] = hoppings[sites[-1]]
    return sites, mirror, on_axis_bond


def _mirror_ring(hoppings: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a ring symmetric under j -> (axis - j) mod L.

    Each mirror sector is a tridiagonal chain over the orbits of
    `_mirror_orbits`.  An on-axis site has even amplitude only and couples
    to its neighbour orbit with weight sqrt(2); the odd sector leaves it
    out.
    """
    n = hoppings.size
    sites, mirror, on_axis_bond = _mirror_orbits(hoppings, axis)
    on_axis_site = sites == mirror
    pair = ~on_axis_site
    bonds = hoppings[sites[:-1]]

    even_energies, even = _tridiagonal(
        -on_axis_bond,
        -bonds * np.where(on_axis_site[:-1] | on_axis_site[1:], np.sqrt(2.0), 1.0), n)
    odd_energies, odd = _tridiagonal(on_axis_bond[pair], -bonds[pair[:-1] & pair[1:]], n)

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
    energies = spectral.energies
    n = energies.size
    if not 0 <= n_particles <= n:
        raise ValueError(f"n_particles must be in 0..{n}, got {n_particles}")
    if 0 < n_particles < n:
        _check_gap(energies[n_particles] - energies[n_particles - 1],
                   energies[-1] - energies[0], n_particles, n)
    return spectral.orbitals[:, :n_particles]


def _check_gap(gap: float, bandwidth: float, n_particles: int, n: int) -> None:
    if gap < DEGENERACY_RTOL * max(bandwidth, 1.0):
        raise DegenerateFermiLevelError(
            f"levels {n_particles - 1} and {n_particles} degenerate "
            f"(gap {gap:.3e}); filling {n_particles} of {n} is ambiguous"
        )


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
