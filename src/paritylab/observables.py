"""Subsystem entropy and particle-number fluctuations from correlation matrices.

For a free-fermion ground state the reduced density matrix of a region A
is fixed by the restricted correlation matrix G_A; its eigenvalues nu_k
are mode occupations in [0, 1] and give

    S  = -sum_k [nu_k ln nu_k + (1 - nu_k) ln(1 - nu_k)],
    F  = <N_A^2> - <N_A>^2 = sum_k nu_k (1 - nu_k) = tr G_A - tr G_A^2.

At half filling on a chain of even length, open or ring, G_A is fixed by
its sublattice block Q_A (`spectral.half_filled_block`), whose singular
values give the same occupations at half the matrix size; every sweep
takes this route, `sublattice_occupations`.  `region_observables` is the
general route, for any region at any filling, and the reference for it.

Occupations are clipped to [0, 1], and a pure mode, at exactly 0 or 1,
adds nothing: the entropy takes the logarithms of the other modes alone.
Values outside [0, 1] beyond numerical noise, or NaN, indicate a broken
correlation matrix and raise instead of being clipped.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# Occupations may leave [0, 1] by at most this much before we call the
# correlation matrix broken.
OCCUPATION_ATOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Region:
    """Contiguous block of sites [first, first + length - 1], 1-based."""

    first: int
    length: int

    def __post_init__(self):
        if self.first < 1:
            raise ValueError(f"first site must be >= 1, got {self.first}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")

    @property
    def last(self) -> int:
        return self.first + self.length - 1

    def slice(self) -> slice:
        """0-based slice into arrays indexed by site."""
        return slice(self.first - 1, self.last)


@dataclasses.dataclass(frozen=True)
class RegionObservables:
    """Entropy and number fluctuation of one region."""

    entropy: float
    fluctuation: float


def sublattice_occupations(q_a: np.ndarray) -> np.ndarray:
    """Occupations of a half-filled bipartite region from its sublattice
    block, validated and clipped like those of `region_observables`.

    In sublattice order G_A = 1/2 [[I, -Q_A], [-Q_A^T, I]], whose
    eigenvalues are 1/2 (1 -+ sigma_i) over the singular values sigma_i of
    Q_A, plus one mode at exactly 1/2 for each row or column of Q_A beyond
    its shorter side.

    Returns
    -------
    ndarray
        Ascending occupations, clipped to [0, 1].
    """
    sigma = np.linalg.svd(q_a, compute_uv=False)
    unpaired = np.full(abs(q_a.shape[0] - q_a.shape[1]), 0.5)
    return _checked(np.concatenate([0.5 * (1.0 - sigma), unpaired, 0.5 * (1.0 + sigma[::-1])]))


def _checked(nu: np.ndarray) -> np.ndarray:
    # written so that NaN fails too; a region with no mode passes
    low, high = nu.min(initial=0.0), nu.max(initial=1.0)
    if not (low >= -OCCUPATION_ATOL and high <= 1.0 + OCCUPATION_ATOL):
        raise ValueError(f"occupations outside [0, 1]: min {low:.3e}, max {high:.3e}")
    return np.clip(nu, 0.0, 1.0)


def entanglement_entropy(occupations: np.ndarray) -> float:
    """Von Neumann entropy of a free-fermion region from its mode occupations.

    A mode at exactly 0 or 1 adds exactly 0, so a pure region has S = +0.0;
    any other value outside [0, 1], or NaN, makes the entropy NaN.
    """
    nu = np.asarray(occupations)
    mixed = nu[(nu != 0.0) & (nu != 1.0)]
    return 0.0 - float(np.sum(mixed * np.log(mixed) + (1.0 - mixed) * np.log(1.0 - mixed)))


def charge_fluctuation(occupations: np.ndarray) -> float:
    """Particle-number variance of the region, sum of nu(1 - nu) over modes."""
    nu = np.asarray(occupations)
    return float(np.sum(nu * (1.0 - nu)))


def region_observables(g: np.ndarray, region: Region) -> RegionObservables:
    """Entropy and number fluctuation of a contiguous region, from the
    eigenvalues of its block G_A of the full-chain correlation matrix g.

    Raises
    ------
    ValueError
        If the region ends past the chain, G_A is not finite, or an
        occupation leaves [0, 1] by more than OCCUPATION_ATOL.
    """
    n = g.shape[0]
    if region.last > n:
        raise ValueError(f"region ends at site {region.last} but chain has {n}")
    g_a = g[region.slice(), region.slice()]
    # eigvalsh maps some NaN matrices to finite eigenvalues
    if not np.isfinite(g_a).all():
        raise ValueError(f"correlation block of {region} is not finite")
    nu = _checked(np.linalg.eigvalsh(g_a))
    return RegionObservables(
        entropy=entanglement_entropy(nu),
        fluctuation=charge_fluctuation(nu),
    )
