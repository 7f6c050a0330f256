"""Closed-form predictions for defect chains at half filling.

Everything here is analytic or quadrature-based; no chain is ever
diagonalized.  The central objects are the transmission amplitude s of a
single bond defect at the Fermi point, the effective central charge
governing the logarithmic entropy growth across the defect, and the
linear-response slopes of the even/odd parity splittings near the
homogeneous point, both for an infinite system and at fixed
subsystem-to-system aspect ratio.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

EULER_GAMMA = 0.5772156649015329

# Plateau of the even/odd entropy difference for a vanishing-transmission
# defect: the odd subsystem keeps a half-occupied zero mode, the even one
# decouples cleanly.
ENTROPY_PLATEAU = math.log(2.0)
FLUCT_PLATEAU = 0.25

# Constant term of the number-fluctuation expansion of a defect-free
# chain, (1 + Euler gamma + ln 2) / pi^2.  An open boundary contributes
# half of it.
FLUCT_SERIES_CONSTANT = (1.0 + EULER_GAMMA + math.log(2.0)) / math.pi**2

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=400)
# The replica-difference kernels are O(h) differences of O(1) terms, so
# their usable absolute accuracy floor sits near 1e-12.
_DIFF_QUAD_OPTS = dict(epsabs=1e-11, epsrel=1e-11, limit=400)


def dilog(z: float) -> float:
    """Real dilogarithm Li_2(z) = -int_0^z ln(1-x)/x dx for z in [-1, 1].

    A power series is used on |z| <= 1/2; outside that disc the argument
    is mapped back with the Euler reflection (z > 1/2) or the Landen
    transformation (z < -1/2), both of which land in the series region.
    """
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"dilog defined here for z in [-1, 1], got {z}")
    if z == 1.0:
        return math.pi**2 / 6.0
    if z > 0.5:
        # Li2(z) + Li2(1-z) = pi^2/6 - ln(z) ln(1-z); 1-z lands in [0, 1/2)
        return math.pi**2 / 6.0 - math.log(z) * math.log1p(-z) - _dilog_series(1.0 - z)
    if z < -0.5:
        # Landen: Li2(z) = -Li2(z/(z-1)) - ln^2(1-z)/2; z/(z-1) lands in (0, 1/2]
        return -_dilog_series(z / (z - 1.0)) - 0.5 * math.log1p(-z) ** 2
    return _dilog_series(z)


def _dilog_series(z: float) -> float:
    # plain sum of z^n/n^2; |z| <= 1/2 so ~55 terms reach double precision
    total = 0.0
    zn = z
    for n in range(1, 200):
        term = zn / (n * n)
        total += term
        if abs(term) < 1e-18:
            break
        zn *= z
    return total


def transmission_coefficient(ratio: float) -> float:
    """Fermi-point transmission amplitude s = 2r/(1 + r^2) of one modified bond.

    Symmetric under ratio -> 1/ratio and equal to 1 only at ratio 1.
    """
    if ratio <= 0:
        raise ValueError(f"bond ratio must be positive, got {ratio}")
    return 2.0 * ratio / (1.0 + ratio * ratio)


def effective_central_charge(s: float) -> float:
    """Effective central charge of the entropy growth across a defect.

    Parameters
    ----------
    s : float
        Transmission amplitude at the Fermi point, 0 < s <= 1.

    Returns
    -------
    float
        Prefactor c_eff(s) such that the entropy of a subsystem bounded
        by the defect grows like (c_eff/6) ln(chord); c_eff(1) = 1 and
        c_eff -> 0 for an opaque defect, staying close to s^2 throughout.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {s}")
    lg = (1.0 + s) * math.log1p(s)
    if s < 1.0:
        lg += (1.0 - s) * math.log1p(-s)
    bracket = lg * math.log(s) + (1.0 + s) * dilog(-s) + (1.0 - s) * dilog(s)
    return -6.0 / math.pi**2 * bracket


def effective_central_charge_alt(s: float) -> float:
    """Same charge as `effective_central_charge` through an independent
    rearrangement (reflecting Li_2(s) to Li_2(1-s)); kept as a cross-check.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {s}")
    bracket = (1.0 + s) * math.log1p(s) * math.log(s) + (1.0 + s) * dilog(-s) \
        + (s - 1.0) * dilog(1.0 - s)
    return s - 1.0 - 6.0 / math.pi**2 * bracket


def _entropy_kernel(x: float, q: float, p: float) -> float:
    # bracket (x^2(1+x^2))^((q-1)/2) / ((1+x^2)^q - x^(2q)) - p with q = 1/p,
    # written through logs so the x -> 0 endpoint stays stable
    lx = math.log(x)
    num = math.exp((q - 1.0) * (lx + 0.5 * math.log1p(x * x)))
    den = math.exp(q * math.log1p(x * x)) - math.exp(2.0 * q * lx)
    return num / den - p


def _entropy_kernel_tail(t: float, q: float, p: float) -> float:
    # bracket at x = 1/t, multiplied by the 1/t^2 Jacobian of the inversion
    lt = math.log(t)
    num = math.exp((q - 1.0) * 0.5 * (math.log1p(t * t) - 4.0 * lt) + 2.0 * q * lt)
    den = math.expm1(q * math.log1p(t * t))
    return (num / den - p) / (t * t)


def _entropy_integral(p: float, sin2: float) -> float:
    q = 1.0 / p

    def body(x):
        return _entropy_kernel(x, q, p) / math.sqrt(1.0 + sin2 * x * x)

    def tail(t):
        w = t / math.sqrt(t * t + sin2) if sin2 > 0 else 1.0
        return _entropy_kernel_tail(t, q, p) * w

    lo, _ = integrate.quad(body, 0.0, 1.0, **_DIFF_QUAD_OPTS)
    hi, _ = integrate.quad(tail, 0.0, 1.0, **_DIFF_QUAD_OPTS)
    return lo + hi


def entropy_slope_integral(aspect: float) -> float:
    """Linear-response integral D for the parity splitting of the entropy.

    D is the derivative at p = 1 of a one-parameter family of integrals;
    the even/odd entropy difference of a subsystem occupying a fraction
    ``aspect`` of the chain behaves as (4 D / pi)(ratio - 1) close to the
    homogeneous point.  D(0) = pi/6 reproduces the infinite-system value.

    Parameters
    ----------
    aspect : float
        Subsystem fraction ell/L in [0, 1/2].
    """
    if not 0.0 <= aspect <= 0.5:
        raise ValueError(f"aspect must be in [0, 1/2], got {aspect}")
    sin2 = math.sin(math.pi * aspect) ** 2
    h = 1e-4
    return (_entropy_integral(1.0 + h, sin2) - _entropy_integral(1.0 - h, sin2)) / (2.0 * h)


def entropy_parity_slope(aspect: float) -> float:
    """d(delta S)/d(ratio) at ratio 1 for subsystem fraction ``aspect``,
    equal to 4/pi times `entropy_slope_integral`; 2/3 in the infinite
    system and slightly below 0.637 for the half chain.
    """
    return 4.0 / math.pi * entropy_slope_integral(aspect)


def fluct_parity_slope(aspect: float) -> float:
    """d(delta F)/d(ratio) at ratio 1 for subsystem fraction ``aspect``.

    The infinite-system value is 4 ln 2 / pi^2; a finite aspect ratio
    multiplies the integrand by the same inverse-chord weight as for the
    entropy and lowers the slope by a few percent.
    """
    if not 0.0 <= aspect <= 0.5:
        raise ValueError(f"aspect must be in [0, 1/2], got {aspect}")
    sin2 = math.sin(math.pi * aspect) ** 2

    def body(x):
        return math.log1p(1.0 / (x * x)) ** 2 / math.sqrt(1.0 + sin2 * x * x)

    def tail(t):
        w = t / math.sqrt(t * t + sin2) if sin2 > 0 else 1.0
        return math.log1p(t * t) ** 2 / (t * t) * w

    lo, _ = integrate.quad(body, 0.0, 1.0, **_QUAD_OPTS)
    hi, _ = integrate.quad(tail, 0.0, 1.0, **_QUAD_OPTS)
    return (lo + hi) / math.pi**3


def tabulated_entropy_integral() -> float:
    """Quadrature of int_0^1 (1-x^2)^(-3/2) [1 + (1+x^2)/(1-x^2) ln x] dx.

    Appears when the infinite-system entropy slope is reduced to a table
    integral; must come out at -pi/6.  The integrand is written as
    N(x)/(1-x^2)^(5/2) with N = (1-x^2) + (1+x^2) ln x, which cancels to
    O((1-x)^3) at the upper endpoint, so the two halves are integrated
    in substituted variables that keep both endpoints benign.
    """
    half = math.sqrt(0.5)

    def lower(t):
        # x = t^2 turns the ln x endpoint into t ln t
        x = t * t
        num = (1.0 - x * x) + (1.0 + x * x) * math.log(x)
        return num / (1.0 - x * x) ** 2.5 * 2.0 * t

    def upper(u):
        # x = 1 - u^2; 1 - x^2 = u^2 (2 - u^2) is exact in u
        x = 1.0 - u * u
        one_minus_x2 = u * u * (2.0 - u * u)
        num = one_minus_x2 + (1.0 + x * x) * math.log1p(-u * u)
        return num / one_minus_x2**2.5 * 2.0 * u

    lo, _ = integrate.quad(lower, 0.0, half, **_QUAD_OPTS)
    hi, _ = integrate.quad(upper, 0.0, half, **_QUAD_OPTS)
    return lo + hi


def tabulated_fluct_integral() -> float:
    """Quadrature of int_0^infty [ln(1 + 1/x^2)]^2 dx, which equals 4 pi ln 2."""

    def body(x):
        return math.log1p(1.0 / (x * x)) ** 2

    def tail(t):
        return math.log1p(t * t) ** 2 / (t * t)

    lo, _ = integrate.quad(body, 0.0, 1.0, **_QUAD_OPTS)
    hi, _ = integrate.quad(tail, 0.0, 1.0, **_QUAD_OPTS)
    return lo + hi


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
