"""Parity-resolved scaling fits for subsystem entropy and fluctuations.

A subsystem of ell sites in a chain of L grows logarithmically in the
chord variable sin(pi ell / L); a defect pinned at the subsystem border
splits the O(1) constant by subsystem parity while leaving the slope
common.  The fits here therefore share one slope between the two parity
branches and give each branch its own constant and decaying corrections.
All least-squares problems go through an orthogonal factorization of the
design matrix; normal equations are never formed.  `lab` takes the 1/L
extrapolation (`extrapolate_inverse`), the slope of the splitting near
ratio 1 (`delta_slope_at_unity`) and a dot's healing curve (`dot_crossover`).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .chains import BOUNDARIES, PARITIES


class FitRankError(ValueError):
    """Design matrix lost rank; the sample grid cannot resolve the basis."""


@dataclasses.dataclass(frozen=True)
class ScalingSample:
    """One measured subsystem: geometry, defect strength and observables."""

    boundary: str
    ratio: float
    n_sites: int
    region_len: int
    parity: str
    entropy: float
    fluctuation: float

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"bad boundary {self.boundary!r}")
        if self.parity not in PARITIES:
            raise ValueError(f"bad parity {self.parity!r}")
        if not 0 < self.region_len < self.n_sites:
            raise ValueError(f"region {self.region_len} outside chain {self.n_sites}")


@dataclasses.dataclass(frozen=True)
class ParityScalingResult:
    """Joint fit of both parity branches with a shared chord slope.

    ``const_even``/``const_odd`` are the O(1) terms, ``delta`` their
    difference even minus odd; ``inv_*`` and ``log_*`` the coefficients
    of 1/ell and ln(ell)/ell (the latter only fitted for fluctuations).
    """

    slope: float
    const_even: float
    const_odd: float
    inv_even: float
    inv_odd: float
    log_even: float | None
    log_odd: float | None
    residual_rms: float
    n_samples: int

    @property
    def delta(self) -> float:
        return self.const_even - self.const_odd


@dataclasses.dataclass(frozen=True)
class BulkScalingResult:
    """Fit of a defect chain on a ring: shared slope and constant,
    parity-split decaying corrections."""

    slope: float
    const: float
    inv_even: float
    inv_odd: float
    log_even: float | None
    log_odd: float | None
    residual_rms: float
    n_samples: int


def open_chord(n_sites: int, region_len: int) -> float:
    """ln of the open-boundary chord, (2L/pi) sin(pi ell / L)."""
    return math.log(2.0 * n_sites / math.pi * math.sin(math.pi * region_len / n_sites))


def periodic_chord(n_sites: int, region_len: int) -> float:
    """ln of the ring chord, (L/pi) sin(pi ell / L)."""
    return math.log(n_sites / math.pi * math.sin(math.pi * region_len / n_sites))


def _check_samples(samples: Sequence[ScalingSample], boundary: str):
    if not samples:
        raise ValueError("no samples")
    ratios = {s.ratio for s in samples}
    if len(ratios) != 1:
        raise ValueError(f"samples mix defect ratios {sorted(ratios)}")
    bad = {s.boundary for s in samples} - {boundary}
    if bad:
        raise ValueError(f"expected {boundary} samples, got {bad}")
    for parity in PARITIES:
        count = sum(1 for s in samples if s.parity == parity)
        if count < 4:
            raise ValueError(f"need at least 4 {parity} samples, got {count}")
    for s in samples:
        if (s.region_len % 2 == 0) != (s.parity == "even"):
            raise ValueError(
                f"sample with region {s.region_len} labeled {s.parity}"
            )


def _solve(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise FitRankError(
            f"design matrix rank {rank} < {design.shape[1]} columns"
        )
    rms = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
    return coef, rms


def _design(samples, boundary, with_log):
    # columns: chord, constant(s), 1/ell per parity, then ln(ell)/ell per
    # parity; open chains split the constant by parity, rings share it
    chord = open_chord if boundary == "open" else periodic_chord
    rows = []
    for s in samples:
        even = 1.0 if s.parity == "even" else 0.0
        odd = 1.0 - even
        ell = s.region_len
        consts = [even, odd] if boundary == "open" else [1.0]
        row = [chord(s.n_sites, ell), *consts, even / ell, odd / ell]
        if with_log:
            row += [even * math.log(ell) / ell, odd * math.log(ell) / ell]
        rows.append(row)
    return np.array(rows)


def _fit(samples, boundary, observable):
    # shared-slope fit of one observable, "entropy" or "fluctuation"
    _check_samples(samples, boundary)
    with_log = observable == "fluctuation"
    design = _design(samples, boundary, with_log)
    target = np.array([getattr(s, observable) for s in samples])
    coef, rms = _solve(design, target)
    k = 3 if boundary == "open" else 2
    common = dict(slope=coef[0], inv_even=coef[k], inv_odd=coef[k + 1],
                  log_even=coef[k + 2] if with_log else None,
                  log_odd=coef[k + 3] if with_log else None,
                  residual_rms=rms, n_samples=len(samples))
    if boundary == "open":
        return ParityScalingResult(const_even=coef[1], const_odd=coef[2], **common)
    return BulkScalingResult(const=coef[1], **common)


def fit_boundary_entropy(samples: Sequence[ScalingSample]) -> ParityScalingResult:
    """Fit open-chain entropies to slope * chord + const^p + inv^p / ell.

    Needs at least 4 samples of each parity, all at the same defect
    ratio.  The slope times 6 estimates the effective central charge of
    the defect; ``delta`` is the non-decaying even/odd splitting.
    """
    return _fit(samples, "open", "entropy")


def fit_boundary_fluct(samples: Sequence[ScalingSample]) -> ParityScalingResult:
    """Like `fit_boundary_entropy` for number fluctuations, with an extra
    ln(ell)/ell correction per parity; 2 pi^2 times the slope estimates
    the squared Fermi-point transmission."""
    return _fit(samples, "open", "fluctuation")


def fit_bulk_entropy(samples: Sequence[ScalingSample]) -> BulkScalingResult:
    """Fit ring entropies of a region bounded by the defect on one side.

    The slope times 6 estimates 1 + c_eff (one plain border, one defect
    border).  Parity enters only through the decaying 1/ell corrections.
    """
    return _fit(samples, "periodic", "entropy")


def fit_bulk_fluct(samples: Sequence[ScalingSample]) -> BulkScalingResult:
    """Ring fit for fluctuations; 2 pi^2 times the slope estimates 1 + s^2."""
    return _fit(samples, "periodic", "fluctuation")


def fit_line(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares line y = a + b x; returns (a, b)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 points, got {x.size}")
    design = np.column_stack([np.ones_like(x), x])
    coef, _ = _solve(design, y)
    return float(coef[0]), float(coef[1])


def extrapolate_inverse(n_sites: Sequence[int], values: Sequence[float]) -> float:
    """Infinite-size limit a of a sequence, fitting a + b/L."""
    return fit_line(1.0 / np.asarray(n_sites, dtype=float), values)[0]


def window_ratios(ratios: Iterable[float], eps: float) -> list[float]:
    """Sorted ratios inside the fit window [1 - eps, 1] (1e-12 slack below)."""
    return sorted(lam for lam in ratios if 1.0 - eps - 1e-12 <= lam <= 1.0)


def delta_slope_at_unity(deltas: dict[tuple[float, int], float],
                         windows: Sequence[float]) -> list[tuple[float, float]]:
    """Slope of the parity splitting in the defect ratio, near ratio 1.

    Parameters
    ----------
    deltas : dict
        Measured splittings keyed by (ratio, n_sites); every window needs
        ratios covering [1 - window, 1] for at least two common sizes.
    windows : sequence of float
        Decreasing fit-window widths epsilon.

    Returns
    -------
    list of (epsilon, slope)
        Per-window slopes of delta vs (ratio - 1), each fitted per size
        and then extrapolated linearly in 1/L; the sequence tends to the
        linear-response prediction as epsilon -> 0.
    """
    sizes = sorted({L for _, L in deltas})
    out = []
    for eps in windows:
        per_size = []
        kept_sizes = []
        for L in sizes:
            lams = window_ratios([lam for lam, Ls in deltas if Ls == L], eps)
            if len(lams) < 2:
                continue
            x = [lam - 1.0 for lam in lams]
            y = [deltas[(lam, L)] for lam in lams]
            _, slope = fit_line(x, y)
            per_size.append(slope)
            kept_sizes.append(L)
        if len(kept_sizes) < 2:
            raise ValueError(f"window {eps}: need at least two sizes with data")
        out.append((eps, extrapolate_inverse(kept_sizes, per_size)))
    return out


@dataclasses.dataclass(frozen=True)
class CrossoverCurve:
    """Parity splitting of the entropy growth rate around a weak dot.

    ``x`` is the scaling variable L * ratio^2 and ``delta_slope`` the
    difference of even and odd logarithmic derivatives dS/d ln L at the
    same nodes; curves for different weak ratios collapse in x.
    """

    ratio: float
    x: np.ndarray
    delta_slope: np.ndarray


def dot_crossover(log_nodes: Sequence[float], even: Sequence[float],
                  odd: Sequence[float], ratio: float) -> CrossoverCurve:
    """Crossover curve from per-parity observable series on common ln L nodes.

    Centered differences give dS/d ln L on the interior nodes; the even
    and odd derivatives are subtracted node by node and placed at
    x = exp(node) * ratio^2.
    """
    t = np.asarray(log_nodes, dtype=float)
    se = np.asarray(even, dtype=float)
    so = np.asarray(odd, dtype=float)
    if t.size != se.size or t.size != so.size:
        raise ValueError("node and value arrays must have equal length")
    if t.size < 3:
        raise ValueError("need at least 3 nodes for centered differences")
    if np.any(np.diff(t) <= 0):
        raise ValueError("ln L nodes must increase strictly")
    de = (se[2:] - se[:-2]) / (t[2:] - t[:-2])
    do = (so[2:] - so[:-2]) / (t[2:] - t[:-2])
    x = np.exp(t[1:-1]) * ratio * ratio
    return CrossoverCurve(ratio=ratio, x=x, delta_slope=de - do)
