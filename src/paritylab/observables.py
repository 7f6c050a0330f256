"""Subsystem entropy and particle-number fluctuations from correlation matrices.

For a free-fermion ground state the reduced density matrix of a region A
is fixed by the restricted correlation matrix G_A; its eigenvalues nu_k
are mode occupations in [0, 1] and give

    S  = -sum_k [nu_k ln nu_k + (1 - nu_k) ln(1 - nu_k)],
    F  = <N_A^2> - <N_A>^2 = sum_k nu_k (1 - nu_k) = tr G_A - tr G_A^2.

Occupations are clamped away from 0 and 1 before the logarithms; values
outside [0, 1] beyond numerical noise indicate a broken correlation
matrix and raise instead of being silently clipped.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import xlogy

# Occupations may leave [0, 1] by at most this much before we call the
# correlation matrix broken.
OCCUPATION_ATOL = 1e-8
# Clamp for the entropy logarithms.
_CLAMP = 1e-14


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

    region: Region
    entropy: float
    fluctuation: float


def restrict(g: np.ndarray, region: Region) -> np.ndarray:
    """Correlation matrix restricted to a contiguous region."""
    n = g.shape[0]
    if region.last > n:
        raise ValueError(f"region ends at site {region.last} but chain has {n}")
    s = region.slice()
    return g[s, s]


def occupation_spectrum(g_a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a restricted correlation matrix, validated and clamped.

    Returns
    -------
    ndarray
        Ascending occupations, clamped to [1e-14, 1 - 1e-14].
    """
    nu = np.linalg.eigvalsh(g_a)
    if nu.min() < -OCCUPATION_ATOL or nu.max() > 1.0 + OCCUPATION_ATOL:
        raise ValueError(
            f"occupations outside [0, 1]: min {nu.min():.3e}, max {nu.max():.3e}"
        )
    return np.clip(nu, _CLAMP, 1.0 - _CLAMP)


def entanglement_entropy(occupations: np.ndarray) -> float:
    """Von Neumann entropy of a free-fermion region from its mode occupations."""
    nu = np.asarray(occupations)
    return float(-np.sum(xlogy(nu, nu) + xlogy(1.0 - nu, 1.0 - nu)))


def charge_fluctuation(occupations: np.ndarray) -> float:
    """Particle-number variance of the region, sum of nu(1 - nu) over modes."""
    nu = np.asarray(occupations)
    return float(np.sum(nu * (1.0 - nu)))


def region_observables(g: np.ndarray, region: Region) -> RegionObservables:
    """Entropy and number fluctuation of a contiguous region.

    Parameters
    ----------
    g : ndarray
        Full-chain correlation matrix.
    region : Region

    Returns
    -------
    RegionObservables
    """
    g_a = restrict(g, region)
    nu = occupation_spectrum(g_a)
    return RegionObservables(
        region=region,
        entropy=entanglement_entropy(nu),
        fluctuation=charge_fluctuation(nu),
    )
