"""Fits, perturbation theory and a series constant that only the
acceptance tests use: the clean decay exponent of c02, the boundary part
of the parity constants of c03, the distance between crossover curves of
c09, the first-order lattice slope of c10 and the fluctuation constant of
c11.  Their own tests are in test_fitting.py and test_theory.py."""

import math
from collections.abc import Sequence

import numpy as np

from paritylab.fitting import (BulkScalingResult, CrossoverCurve, ParityScalingResult,
                               fit_line)

EULER_GAMMA = 0.5772156649015329

# Constant term of the number-fluctuation expansion of a defect-free
# chain, (1 + Euler gamma + ln 2) / pi^2.  An open boundary contributes
# half of it.
FLUCT_SERIES_CONSTANT = (1.0 + EULER_GAMMA + math.log(2.0)) / math.pi**2


def power_law_exponent(x: Sequence[float], y: Sequence[float]) -> float:
    """Slope of ln|y| against ln x; y must be nonzero throughout."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.abs(np.asarray(y, dtype=float)))
    _, slope = fit_line(lx, ly)
    return slope


def boundary_part(parity: ParityScalingResult, bulk: BulkScalingResult,
                  clean_bulk: BulkScalingResult | None = None) -> tuple[float, float]:
    """Boundary contribution to the parity constants.

    The ring fit constant is the average of the defect cut and the clean
    cut, so the defect's own share is ``bulk.const - clean.const / 2``.
    Removing it leaves boundary remainders that swap parity under
    ratio -> 1/ratio.  Without ``clean_bulk`` the clean half (a
    ratio-independent offset) is left in, which drops out of any
    even/odd or ratio <-> 1/ratio comparison.

    Returns
    -------
    (float, float)
        Boundary constants of the even and odd branches.
    """
    offset = bulk.const - (clean_bulk.const / 2.0 if clean_bulk is not None else 0.0)
    return parity.const_even - offset, parity.const_odd - offset


def curve_sup_distance(a: CrossoverCurve, b: CrossoverCurve) -> float:
    """Largest pointwise gap between two crossover curves on their overlap.

    The shorter-range curve is compared against the other interpolated
    linearly in ln x; raises if the overlap holds fewer than 3 nodes.
    """
    lo = max(a.x.min(), b.x.min())
    hi = min(a.x.max(), b.x.max())
    if hi <= lo:
        raise ValueError("curves do not overlap in x")
    worst = 0.0
    for ref, other in ((a, b), (b, a)):
        mask = (ref.x >= lo) & (ref.x <= hi)
        if np.count_nonzero(mask) < 3:
            raise ValueError("overlap region holds fewer than 3 nodes")
        interp = np.interp(np.log(ref.x[mask]), np.log(other.x), other.delta_slope)
        worst = max(worst, float(np.max(np.abs(ref.delta_slope[mask] - interp))))
    return worst


def perturbative_fluct_slope(n_sites: int, cut: int) -> float:
    """First-order lattice perturbation theory for the parity splitting
    of number fluctuations in an open chain.

    The defect-free open chain is solved by sine waves; weakening one
    bond by (ratio - 1) mixes them at first order, and the resulting
    correction to F = <N_A^2> - <N_A>^2 is evaluated for the even cut at
    bond ``cut`` and the odd cut one site further.  Returned is
    d(F_even - F_odd)/d(ratio) at ratio 1 for this chain size; the
    sequence over n_sites at fixed cut/n_sites extrapolates to the
    continuum slope (about 0.2714 at aspect 1/2).

    Parameters
    ----------
    n_sites : int
        Chain length, even and at least 8.
    cut : int
        Even subsystem length; the odd partner uses cut + 1.
    """
    if n_sites % 2 != 0 or n_sites < 8:
        raise ValueError(f"n_sites must be even and >= 8, got {n_sites}")
    if cut % 2 != 0 or not 2 <= cut < n_sites - 2:
        raise ValueError(f"cut must be even inside the chain, got {cut}")
    ell = np.arange(1, n_sites + 1)
    k = math.pi * ell / (n_sites + 1)
    norm = math.sqrt(2.0 / (n_sites + 1))
    # psi[i, l]: orthonormal standing wave l at site i+1
    psi = norm * np.sin(np.outer(ell, k))
    energies = -2.0 * np.cos(k)
    n_occ = n_sites // 2

    def mixing_slope(bond: int, length: int) -> float:
        # <k1|V|k> for V = |bond+1><bond| + h.c., then first-order orbitals
        row_a = psi[bond, :]      # site bond+1
        row_b = psi[bond - 1, :]  # site bond
        element = np.outer(row_a, row_b) + np.outer(row_b, row_a)
        denom = energies[None, :] - energies[:, None]
        np.fill_diagonal(denom, 1.0)
        coeff = element / denom
        np.fill_diagonal(coeff, 0.0)
        first = psi @ coeff
        g0 = psi[:, :n_occ] @ psi[:, :n_occ].T
        g1 = first[:, :n_occ] @ psi[:, :n_occ].T
        g1 = g1 + g1.T
        b0 = g0[:length, :length]
        b1 = g1[:length, :length]
        return float(np.sum(b0 * b1) - np.sum(np.diag(b0) * np.diag(b1)))

    # F^(1) = -2 sum_{i != j} G0 G1 per cut; slope of (F_even - F_odd) in ratio
    return 2.0 * (mixing_slope(cut, cut) - mixing_slope(cut + 1, cut + 1))
