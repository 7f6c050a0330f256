"""Closed-form predictions for defect chains at half filling.

Everything here is analytic or quadrature-based; no chain is ever
diagonalized.  The central objects are the transmission amplitude s of a
single bond defect at the Fermi point, the effective central charge
governing the logarithmic entropy growth across the defect, and the
linear-response slopes of the even/odd parity splittings near the
homogeneous point, both for an infinite system and at fixed
subsystem-to-system aspect ratio.

The integrals are taken by a tanh-sinh rule on numpy alone, each integrand
evaluated on a whole node array at once; nothing here imports scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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

# Tanh-sinh (double-exponential) rule of Takahasi and Mori, Publ. RIMS 9,
# 721 (1974): x = (1 + tanh(pi/2 sinh t)) / 2 maps the t axis onto (0, 1)
# with weights that fall off doubly exponentially, so the ln x endpoint
# singularities of the integrands here cost no extra nodes.  Level k sums
# the nodes t = j 2^-k, |t| <= _TANH_SINH_T, which come within 1e-101 of
# either endpoint; each level after the first adds the odd multiples of its
# step to the previous level's sum.
_TANH_SINH_T = 5.0
_FIRST_LEVEL = 3
_LAST_LEVEL = 8
_QUAD_RTOL = 1e-15


@functools.cache
def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x in (0, 1) and weights that `level` adds to the rule."""
    h = 2.0**-level
    n = round(_TANH_SINH_T / h)
    j = np.arange(-n, n + 1)
    if level > _FIRST_LEVEL:
        j = j[j % 2 == 1]
    t = j * h
    s = 0.5 * math.pi * np.sinh(t)
    # x and 1 - x each without cancellation; dx/dt = pi cosh(t) x (1 - x)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    w = h * math.pi * np.cosh(t) * x / (1.0 + np.exp(2.0 * s))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _quad(name: str, f, hi: float) -> float:
    """int_0^hi f(x) dx by the tanh-sinh rule, f evaluated on a node array.

    Levels are added until two successive sums agree to 1e-15 relative.

    Raises
    ------
    ArithmeticError
        If a sum is not finite, or no two levels up to the last agree; the
        message names the integral.
    """
    total = 0.0
    for level in range(_FIRST_LEVEL, _LAST_LEVEL + 1):
        x, w = _tanh_sinh_nodes(level)
        previous, total = total, 0.5 * total + hi * float(np.sum(w * f(hi * x)))
        if not math.isfinite(total):
            raise ArithmeticError(f"{name}: tanh-sinh sum {total} at level {level}")
        if level > _FIRST_LEVEL and abs(total - previous) <= _QUAD_RTOL * abs(total):
            return total
    raise ArithmeticError(
        f"{name}: tanh-sinh levels {_LAST_LEVEL - 1} and {_LAST_LEVEL} differ by "
        f"{abs(total - previous) / abs(total):.1e} relative")


def _half_line(name: str, f, f_tail, sin2: float) -> float:
    """int_0^infty f(x) / sqrt(1 + sin2 x^2) dx as [0, 1] in x plus [0, 1]
    in t = 1/x, where f_tail(t) = f(1/t) / t^2 and the weight becomes
    t / sqrt(t^2 + sin2)."""

    def tail(t):
        return f_tail(t) * (t / np.sqrt(t * t + sin2) if sin2 > 0 else 1.0)

    lo = _quad(name, lambda x: f(x) / np.sqrt(1.0 + sin2 * x * x), 1.0)
    return lo + _quad(f"{name} tail", tail, 1.0)


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


def entropy_slope_integral(aspect: float) -> float:
    """Linear-response integral D for the parity splitting of the entropy.

    D is the derivative at p = 1 of a one-parameter family of integrals
    over the bracket (x^2(1+x^2))^((q-1)/2) / ((1+x^2)^q - x^(2q)) - p,
    q = 1/p, taken in closed form under the integral:

        D = int_0^infty k(x) / sqrt(1 + sin^2(pi aspect) x^2) dx,
        k(x) = (1+x^2) ln(1+x^2) - x^2 ln x^2 - ln x - ln(1+x^2)/2 - 1.

    The even/odd entropy difference of a subsystem occupying a fraction
    ``aspect`` of the chain behaves as (4 D / pi)(ratio - 1) close to the
    homogeneous point.  D(0) = pi/6 reproduces the infinite-system value,
    and D(1/2) = 1/2.

    Parameters
    ----------
    aspect : float
        Subsystem fraction ell/L in [0, 1/2].
    """
    if not 0.0 <= aspect <= 0.5:
        raise ValueError(f"aspect must be in [0, 1/2], got {aspect}")
    return _half_line(f"entropy slope integral D({aspect})", _entropy_slope_kernel,
                      _entropy_slope_kernel_tail, math.sin(math.pi * aspect) ** 2)


def _entropy_slope_kernel(x: np.ndarray) -> np.ndarray:
    y = x * x
    log1p_y = np.log1p(y)
    return (1.0 + y) * log1p_y - y * np.log(y) - np.log(x) - 0.5 * log1p_y - 1.0


# Horner coefficients, highest power first, of the series
# sum_{j>=2} (-1)^j (j-1)/(2j(j+1)) u^(j-2) = 1/12 - u/12 + 3u^2/40 - ...
_KERNEL_TAIL_SERIES = tuple((-1) ** j * (j - 1) / (2 * j * (j + 1)) for j in range(25, 1, -1))


def _entropy_slope_kernel_tail(t: np.ndarray) -> np.ndarray:
    # k(1/t) / t^2 = [ln(1+u)/2 + (ln(1+u) - u)/u] / u with u = t^2, whose
    # two terms cancel to u/12 at small u (off by 4e-14 relative at u = 0.1,
    # 1e-9 at u = 1e-3); below u = 0.1 the series above to j = 25 instead,
    # whose first omitted term is below 1e-24 relative
    u = np.asarray(t, dtype=float) ** 2
    out = np.empty_like(u)
    small = u < 0.1
    v = u[small]
    series = np.full_like(v, _KERNEL_TAIL_SERIES[0])
    for c in _KERNEL_TAIL_SERIES[1:]:
        series *= v
        series += c
    out[small] = series * v
    v = u[~small]
    log1p_v = np.log1p(v)
    out[~small] = (0.5 * log1p_v + (log1p_v - v) / v) / v
    return out


def entropy_parity_slope(aspect: float) -> float:
    """d(delta S)/d(ratio) at ratio 1 for subsystem fraction ``aspect``,
    equal to 4/pi times `entropy_slope_integral`; 2/3 in the infinite
    system and 2/pi for the half chain.
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
    return _fluct_integral(f"fluctuation slope integral at aspect {aspect}",
                           math.sin(math.pi * aspect) ** 2) / math.pi**3


def _fluct_integral(name: str, sin2: float) -> float:
    # int_0^infty [ln(1 + 1/x^2)]^2 / sqrt(1 + sin2 x^2) dx
    return _half_line(name, lambda x: np.log1p(1.0 / (x * x)) ** 2,
                      lambda t: np.log1p(t * t) ** 2 / (t * t), sin2)


# Horner coefficients, highest power first, of N(1 - s) / s^3 = sum_{k>=3}
# c_k s^(k-3) for the numerator of `tabulated_entropy_integral`, where
# c_k = -2/k + 2/(k-1) - 1/(k-2) = -(k^2 - 3k + 4) / (k(k-1)(k-2)); the
# terms c_k s^(k-3) fall like 2^-k / k on s <= 1/2, below 1e-19 of P past k = 60
_UPPER_SERIES = tuple(-(k * k - 3 * k + 4) / (k * (k - 1) * (k - 2)) for k in range(60, 2, -1))


def tabulated_entropy_integral() -> float:
    """Quadrature of int_0^1 (1-x^2)^(-3/2) [1 + (1+x^2)/(1-x^2) ln x] dx.

    Appears when the infinite-system entropy slope is reduced to a table
    integral; must come out at -pi/6.  The integrand is written as
    N(x)/(1-x^2)^(5/2) with N = (1-x^2) + (1+x^2) ln x, which cancels to
    O((1-x)^3) at the upper endpoint, so the two halves are integrated
    in substituted variables that keep both endpoints benign.  On the
    upper half x = 1 - s with s = u^2, where the terms of order s and s^2
    of N(1 - s) cancel exactly: N(1 - s) = s^3 P(s) with P summed as its
    power series, and the integrand is 2 s P(s) / (2 - s)^(5/2).
    """
    half = math.sqrt(0.5)

    def lower(t):
        # x = t^2 turns the ln x endpoint into t ln t
        x = t * t
        num = (1.0 - x * x) + (1.0 + x * x) * np.log(x)
        return num / (1.0 - x * x) ** 2.5 * 2.0 * t

    def upper(u):
        s = u * u
        p = np.full_like(s, _UPPER_SERIES[0])
        for c in _UPPER_SERIES[1:]:
            p *= s
            p += c
        return 2.0 * s * p / (2.0 - s) ** 2.5

    lo = _quad("tabulated entropy integral, x <= 1/2", lower, half)
    hi = _quad("tabulated entropy integral, x >= 1/2", upper, half)
    return lo + hi


def tabulated_fluct_integral() -> float:
    """Quadrature of int_0^infty [ln(1 + 1/x^2)]^2 dx, which equals 4 pi ln 2:
    the fluctuation integral at aspect 0."""
    return _fluct_integral("tabulated fluctuation integral", 0.0)
