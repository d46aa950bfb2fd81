"""Digamma and trigamma values at half-integer arguments.

Every argument the bound catalog needs is a half-integer, where both
functions have closed forms built from finite rational sums:

    psi(m)       = -gamma + H_{m-1}
    psi(m + 1/2) = -gamma - log 4 + 2 * sum_{j=1}^{m} 1/(2j-1)
    psi'(m)      = pi^2/6 - sum_{j=1}^{m-1} 1/j^2
    psi'(m+1/2)  = pi^2/2 - 4 * sum_{j=1}^{m} 1/(2j-1)^2

The rational sums are accumulated exactly (fractions.Fraction) and cached
cumulatively, so repeated evaluation over a long n-sweep costs one new term
per step. Conversion to float happens once, at the end. The generic series
representation of psi(x+1) is kept as an independent cross-check and for
non-half-integer arguments; its K-term partial sum is evaluated in closed
form, psi(x+1) - psi(K+x+1) + psi(K+1), so any K costs the same.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import mpmath

from .errors import DomainError, NonConvergenceError
from .truncation import TruncationControl

EULER_GAMMA = 0.5772156649015328606065120900824024
PI = math.pi
LOG4 = math.log(4.0)
ALPHA = 2.0 - EULER_GAMMA - LOG4  # = psi(3/2) = psi(-1/2)
BETA = PI / 2.0 - 1.0

_lock = threading.Lock()
# cumulative rational sums, index j holds sum of the first j terms
_HARMONIC: list[Fraction] = [Fraction(0)]  # 1/i
_ODD_HARMONIC: list[Fraction] = [Fraction(0)]  # 1/(2i-1)
_SQUARES: list[Fraction] = [Fraction(0)]  # 1/i^2
_ODD_SQUARES: list[Fraction] = [Fraction(0)]  # 1/(2i-1)^2
_PSI_FLOAT: dict[int, float] = {}
_TRIGAMMA_FLOAT: dict[int, float] = {}


def _grow(cache: list[Fraction], upto: int, term) -> None:
    if len(cache) > upto:
        return
    with _lock:
        j = len(cache)
        while j <= upto:
            cache.append(cache[-1] + term(j))
            j += 1


def _twice(x) -> int:
    """Return 2x for a half-integer x >= 1/2, rejecting everything else."""
    try:
        tx = 2 * Fraction(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"expected a half-integer, got {x!r}") from exc
    if tx.denominator != 1:
        raise DomainError(f"expected a half-integer, got {x!r}")
    t = tx.numerator
    if t < 1:
        raise DomainError(f"expected an argument >= 1/2, got {x!r}")
    return t


def is_half_integer(x) -> bool:
    try:
        return (2 * Fraction(x)).denominator == 1
    except (TypeError, ValueError):
        return False


def digamma_parts(x) -> tuple[Fraction, int]:
    """Exact decomposition psi(x) = rational - gamma - log4_count * log(4).

    The pair (rational, log4_count) lets callers cancel the transcendental
    pieces before any float rounding: psi differences at same-parity
    arguments, psi + gamma, and psi - alpha all reduce to rational (or
    rational plus an integer multiple of log 4) exactly.
    """
    t = _twice(x)
    if t % 2 == 0:
        m = t // 2
        _grow(_HARMONIC, m - 1, lambda j: Fraction(1, j))
        return _HARMONIC[m - 1], 0
    m = (t - 1) // 2
    _grow(_ODD_HARMONIC, m, lambda j: Fraction(1, 2 * j - 1))
    return 2 * _ODD_HARMONIC[m], 1


def digamma_closed(x) -> float:
    """psi at a half-integer x >= 1/2, from the exact closed form."""
    t = _twice(x)
    val = _PSI_FLOAT.get(t)
    if val is None:
        rational, log4s = digamma_parts(Fraction(t, 2))
        val = float(rational) - EULER_GAMMA - log4s * LOG4
        _PSI_FLOAT[t] = val
    return val


def digamma_diff(u, v) -> float:
    """psi(u) - psi(v) for half-integers u, v >= 1/2.

    gamma always cancels; log 4 cancels whenever u and v have the same
    parity, leaving a single exact rational in that case.
    """
    ru, cu = digamma_parts(u)
    rv, cv = digamma_parts(v)
    return float(ru - rv) - (cu - cv) * LOG4


def trigamma_parts(x) -> tuple[Fraction, Fraction]:
    """Exact decomposition psi'(x) = pi2_coeff * pi^2 - rational."""
    t = _twice(x)
    if t % 2 == 0:
        m = t // 2
        _grow(_SQUARES, m - 1, lambda j: Fraction(1, j * j))
        return Fraction(1, 6), _SQUARES[m - 1]
    m = (t - 1) // 2
    _grow(_ODD_SQUARES, m, lambda j: Fraction(1, (2 * j - 1) ** 2))
    return Fraction(1, 2), 4 * _ODD_SQUARES[m]


def trigamma_closed(x) -> float:
    """psi' at a half-integer x >= 1/2, from the exact closed form."""
    t = _twice(x)
    val = _TRIGAMMA_FLOAT.get(t)
    if val is None:
        coeff, rational = trigamma_parts(Fraction(t, 2))
        val = float(coeff) * (PI * PI) - float(rational)
        _TRIGAMMA_FLOAT[t] = val
    return val


def _series_partial(x: float, terms: int) -> float:
    """-gamma + sum_{k=1}^{terms} x/(k(k+x)) = psi(x+1) - psi(terms+x+1) + psi(terms+1);
    the large digammas cancel under 3 digits for any double x, so 25 suffice."""
    with mpmath.workdps(25):
        x = mpmath.mpf(x)
        return float(mpmath.digamma(x + 1) - mpmath.digamma(terms + x + 1)
                     + mpmath.digamma(terms + 1))


def digamma_series(x, ctrl: TruncationControl | None = None) -> float:
    """psi(x+1) = -gamma + sum_{k>=1} x/(k(k+x)), truncated per ctrl.

    Valid for x > -1 (every denominator k+x then stays positive). In
    tolerance mode the cutoff K = ceil(|x|/eps) certifies the tail, since
    |sum_{k>K} x/(k(k+x))| <= |x| * sum_{k>K} 1/(k(k-1)) = |x|/K.
    Convergence is O(1/K), so small tolerances at large x are expensive by
    nature; exceeding max_terms raises with the partial attached.
    """
    xf = float(x)
    if not xf > -1.0:
        raise DomainError(f"series argument must exceed -1, got {x!r}")
    if ctrl is None:
        ctrl = TruncationControl.tolerance()
    if xf == 0.0:
        return -EULER_GAMMA  # every summand vanishes
    if ctrl.is_fixed:
        terms = ctrl.m
    else:
        terms = math.ceil(abs(xf) / ctrl.eps)
        if terms > ctrl.max_terms:
            raise NonConvergenceError(
                f"digamma series at x={xf} needs {terms} terms for eps={ctrl.eps}",
                partial=_series_partial(xf, ctrl.max_terms),
                tail_bound=abs(xf) / ctrl.max_terms,
                terms=ctrl.max_terms,
            )
    return _series_partial(xf, terms)


def _psi_any(t: float) -> float:
    if is_half_integer(t) and t >= 0.5:
        return digamma_closed(t)
    return float(mpmath.digamma(t))


def psi_lower_ineq(t) -> tuple[float, float, bool]:
    """Check log(t + 1/2) - 1/t < psi(t) at t > 0.

    Returns (lhs, rhs, holds). The right side uses the exact closed form at
    half-integers and arbitrary-precision digamma elsewhere.
    """
    tf = float(t)
    if not tf > 0.0:
        raise DomainError(f"argument must be positive, got {t!r}")
    lhs = math.log(tf + 0.5) - 1.0 / tf
    rhs = _psi_any(tf)
    return lhs, rhs, lhs < rhs


def trigamma_lower_ineq(x) -> tuple[float, float, bool]:
    """Check psi'(x) > 1/(x+1) + 1/x^2 + 1/(2(x+1)^2) at x > 0.

    Returns (lhs, rhs, holds) with lhs the elementary rational minorant and
    rhs = psi'(x).
    """
    xf = float(x)
    if not xf > 0.0:
        raise DomainError(f"argument must be positive, got {x!r}")
    lhs = 1.0 / (xf + 1.0) + 1.0 / (xf * xf) + 0.5 / ((xf + 1.0) ** 2)
    if is_half_integer(xf) and xf >= 0.5:
        rhs = trigamma_closed(xf)
    else:
        rhs = float(mpmath.polygamma(1, xf))
    return lhs, rhs, rhs > lhs
