"""Brute-force many-body oracle on small chains.

Builds the many-body Hamiltonian of a fixed-number Fock sector
explicitly, as a sparse matrix over the occupation basis, finds its
ground state and the gap to the next state by Lanczos, and evaluates
subsystem entropy and number fluctuations without ever using the
free-fermion structure.  Serves as an independent cross-check of the
correlation-matrix route; sizes are capped since the sector dimension
grows combinatorially (3432 states at 14 sites, half filled).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from .chains import ChainSpec, build_hamiltonian
from .observables import Region
from .spectral import DegenerateFermiLevelError

if TYPE_CHECKING:
    from scipy import sparse

MAX_SITES = 14
_GAP_ATOL = 1e-10
_RESIDUAL_ATOL = 1e-10


@dataclasses.dataclass(frozen=True)
class FockGroundState:
    """Ground state of one filling sector in the occupation basis.

    ``basis`` holds one bitmask per sector state (bit j-1 set when site
    j is occupied, sites ordered 1..n in the fermion ordering), and
    ``amplitudes`` the ground-state vector over that basis.
    """

    spec: ChainSpec
    n_particles: int
    energy: float
    gap: float
    basis: np.ndarray
    amplitudes: np.ndarray


def _occupations(basis: np.ndarray, n_sites: int) -> np.ndarray:
    # occupation of mode j (0-based) in column j, one row per basis state
    return (basis[:, None] >> np.arange(n_sites)) & 1


def _check_region(state: FockGroundState, region: Region) -> None:
    n = state.spec.n_sites
    if region.last > n:
        raise ValueError(f"region ends at {region.last}, chain has {n} sites")


def _sector_basis(n_sites: int, n_particles: int) -> np.ndarray:
    states = np.arange(1 << n_sites, dtype=np.int64)
    return states[_occupations(states, n_sites).sum(axis=1) == n_particles]


def sector_hamiltonian(spec: ChainSpec, basis: np.ndarray) -> sparse.csr_matrix:
    """Many-body hopping Hamiltonian on a sorted sector basis, as CSR.

    Each nonzero single-particle element h[a, b] (all off-diagonal: the
    chain has hoppings only) moves a particle from mode b to mode a in
    every state where b is filled and a empty, with the fermion sign
    (-1)^(occupied modes strictly between a and b).  Target states are
    found by binary search in the sorted basis.
    """
    # scipy.sparse loads scipy.linalg, ~0.2 s that importing paritylab
    # need not pay: only the Fock oracle builds sparse matrices
    from scipy import sparse

    h1 = build_hamiltonian(spec)
    occ = _occupations(basis, spec.n_sites)
    # prefix[:, k] counts occupied modes 0..k-1
    prefix = np.zeros((basis.size, spec.n_sites + 1), dtype=np.int64)
    np.cumsum(occ, axis=1, out=prefix[:, 1:])
    rows, cols, data = [], [], []
    for a, b in zip(*np.nonzero(h1)):
        col = np.flatnonzero(occ[:, b] & (1 - occ[:, a]))
        lo, hi = min(a, b), max(a, b)
        between = prefix[col, hi] - prefix[col, lo + 1]
        rows.append(np.searchsorted(basis, basis[col] ^ (1 << a | 1 << b)))
        cols.append(col)
        data.append(h1[a, b] * (1 - 2 * (between & 1)))
    dim = basis.size
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))


def _lowest_pair(h: sparse.csr_matrix, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    # two lowest eigenpairs in ascending order, residual-checked
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    dim = h.shape[0]
    if dim <= 2:
        # ARPACK needs more states than requested eigenpairs
        return np.linalg.eigh(h.toarray())
    v0 = np.random.default_rng(0).standard_normal(dim)
    try:
        energies, vectors = eigsh(h, k=2, which="SA", tol=0, v0=v0)
    except ArpackNoConvergence as err:
        raise np.linalg.LinAlgError(
            f"Lanczos failed on the {dim}-state sector of {n_sites}x{n_sites} chain: {err}"
        ) from err
    order = np.argsort(energies)
    energies, vectors = energies[order], vectors[:, order]
    residual = float(np.abs(h @ vectors - vectors * energies).max())
    if residual > _RESIDUAL_ATOL:
        raise np.linalg.LinAlgError(
            f"Lanczos residual {residual:.3e} on the {dim}-state sector "
            f"of {n_sites}x{n_sites} chain")
    return energies, vectors


def ground_state_fock(spec: ChainSpec, n_particles: int) -> FockGroundState:
    """Exact ground state of the hopping chain at fixed particle number.

    The sector Hamiltonian is built sparse over the occupation basis and
    its two lowest states are found by implicitly restarted Lanczos
    (ARPACK), from a fixed start vector so results repeat bit for bit;
    sectors of one or two states, too small for ARPACK, are solved
    densely.  Both Lanczos pairs must satisfy H v = E v to 1e-10 in
    every component.

    Raises
    ------
    DegenerateFermiLevelError
        If the sector ground state is degenerate within 1e-10.
    numpy.linalg.LinAlgError
        If Lanczos does not converge or leaves a residual above 1e-10;
        the message names the chain size.
    """
    n = spec.n_sites
    if n > MAX_SITES:
        raise ValueError(f"brute-force sector limited to {MAX_SITES} sites, got {n}")
    if not 0 <= n_particles <= n:
        raise ValueError(f"n_particles must be in 0..{n}")
    basis = _sector_basis(n, n_particles)
    energies, vectors = _lowest_pair(sector_hamiltonian(spec, basis), n)
    gap = float(energies[1] - energies[0]) if basis.size > 1 else np.inf
    if gap < _GAP_ATOL:
        raise DegenerateFermiLevelError(
            f"sector ground state degenerate (gap {gap:.3e})"
        )
    return FockGroundState(spec, n_particles, float(energies[0]), gap,
                           basis, vectors[:, 0])


def amplitude_matrix(state: FockGroundState, region: Region) -> np.ndarray:
    """The ground state split at a contiguous region's borders.

    Amplitudes are arranged into a (region configurations) x (rest
    configurations) matrix M, so that rho_A = M M^T and the squared
    singular values of M are the eigenvalues of rho_A.
    """
    _check_region(state, region)
    region_mask = ((1 << region.length) - 1) << (region.first - 1)
    region_bits, r_index = np.unique(state.basis & region_mask, return_inverse=True)
    rest_bits, c_index = np.unique(state.basis & ~region_mask, return_inverse=True)

    # each state is one (region, rest) pair, so no entry is written twice;
    # no fermion sign: (-1)^(n_left n_region) is fixed by the column at fixed N
    m = np.zeros((region_bits.size, rest_bits.size))
    m[r_index, c_index] = state.amplitudes
    return m


def fock_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy -sum p ln p of the Schmidt weights p = sigma^2,
    the squared singular values of an `amplitude_matrix`.

    Never forms rho_A = M M^T, which reaches C(n, n/2) rows for a region
    of n - 1 of n sites; the smaller side of M is at most 2^(n/2).

    Raises
    ------
    ValueError
        If the weights do not sum to 1 within 1e-10.
    """
    p = np.linalg.svd(m, compute_uv=False) ** 2
    total = float(p.sum())
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"Schmidt weights sum to {total:.12g}, not 1")
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def fock_fluctuation(state: FockGroundState, region: Region) -> float:
    """Number variance of a region, directly over occupation bitmasks."""
    _check_region(state, region)
    counts = _occupations(state.basis >> (region.first - 1), region.length).sum(axis=1)
    w = state.amplitudes**2
    mean = float(w @ counts)
    return float(w @ counts**2) - mean**2


def fock_region_observables(spec: ChainSpec, n_particles: int,
                            region: Region) -> tuple[float, float]:
    """Entropy and number fluctuation of a region by brute force."""
    state = ground_state_fock(spec, n_particles)
    return fock_entropy(amplitude_matrix(state, region)), fock_fluctuation(state, region)
