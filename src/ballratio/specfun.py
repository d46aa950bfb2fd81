"""Digamma and trigamma values at half-integer arguments.

Every argument the bound catalog needs is a half-integer, where both
functions have closed forms built from finite rational sums:

    psi(m)       = -gamma + H_{m-1}
    psi(m + 1/2) = -gamma - log 4 + 2 * sum_{j=1}^{m} 1/(2j-1)
    psi'(m)      = pi^2/6 - sum_{j=1}^{m-1} 1/j^2
    psi'(m+1/2)  = pi^2/2 - 4 * sum_{j=1}^{m} 1/(2j-1)^2

digamma_parts/trigamma_parts return those sums exactly, summed on demand
by binary splitting; no evaluation path uses them. Evaluation takes the
int t = 2x and works in 128-bit integer fixed point, rounding once:

- the rational part of psi, H_{m-1} or 2 H_{2m} - H_m, from 30-digit
  mpmath (exact at that scale), so gamma and log 4 cancel exactly in
  differences; memoised per t, memory linear in the arguments seen;
- psi' itself (recurrence, then the asymptotic series), not memoised:
  pi^2/6 minus the sum would lose about log10(x) digits in double.

The generic series representation of psi(x+1) is kept as an independent
cross-check and for non-half-integer arguments; its K-term partial sum is
evaluated in closed form, psi(x+1) - psi(K+x+1) + psi(K+1), so any K costs
the same.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

import mpmath

from .errors import DomainError, NonConvergenceError
from .truncation import TruncationControl

EULER_GAMMA = 0.5772156649015328606065120900824024
PI = math.pi
LOG4 = math.log(4.0)
ALPHA = 2.0 - EULER_GAMMA - LOG4  # = psi(3/2) = psi(-1/2)
BETA = PI / 2.0 - 1.0

_DPS = 30  # digits of the memoised digamma values, rounded once to a double
_ONE = 1 << 128  # the fixed-point scale of psi and psi' values
_ASYMPTOTIC_X = 32
_BERNOULLI = tuple(mpmath.bernfrac(2 * k) for k in range(1, 14))  # B_2..B_26 as (p, q)


def _twice(x) -> int:
    """Return 2x for a half-integer x >= 1/2, rejecting everything else."""
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"expected a half-integer, got {x!r}") from exc
    t, rest = divmod(2 * q.numerator, q.denominator)
    if rest:
        raise DomainError(f"expected a half-integer, got {x!r}")
    if t < 1:
        raise DomainError(f"expected an argument >= 1/2, got {x!r}")
    return t


def is_half_integer(x) -> bool:
    try:
        return (2 * Fraction(x)).denominator == 1
    except (TypeError, ValueError, OverflowError):
        return False


def _reciprocal_sum(dens: Sequence[int]) -> Fraction:
    """sum of 1/d over dens, exactly, by binary splitting."""

    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return 1, dens[lo]
        mid = (lo + hi) // 2
        p1, q1 = split(lo, mid)
        p2, q2 = split(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    return Fraction(*split(0, len(dens))) if dens else Fraction(0)


def digamma_parts(x) -> tuple[Fraction, int]:
    """Exact decomposition psi(x) = rational - gamma - log4_count * log(4).

    The pair (rational, log4_count) lets callers cancel the transcendental
    pieces before any float rounding: psi differences at same-parity
    arguments, psi + gamma, and psi - alpha all reduce to rational (or
    rational plus an integer multiple of log 4) exactly.
    """
    t = _twice(x)
    if t % 2 == 0:
        return _reciprocal_sum(range(1, t // 2)), 0
    return 2 * _reciprocal_sum(range(1, t, 2)), 1


@functools.cache
def _psi_rational(t: int) -> int:
    """The rational part of psi(t/2) (see digamma_parts) to _DPS digits, in
    units of 2^-128: the ~100-bit mpmath mantissa fits them exactly."""
    with mpmath.workdps(_DPS):
        m = t // 2
        if t % 2 == 0:
            return int(mpmath.ldexp(mpmath.harmonic(m - 1), 128))
        return int(mpmath.ldexp(2 * mpmath.harmonic(2 * m) - mpmath.harmonic(m), 128))


def _psi_diff(tu: int, tv: int) -> float:
    """psi(tu/2) - psi(tv/2), rounded once when tu and tv share parity."""
    return (_psi_rational(tu) - _psi_rational(tv)) / _ONE - (tu % 2 - tv % 2) * LOG4


def digamma_float_parts(x) -> tuple[float, int]:
    """digamma_parts(x) with the rational part rounded once to a double."""
    t = _twice(x)
    return _psi_rational(t) / _ONE, t % 2


def digamma_closed(x) -> float:
    """psi at a half-integer x >= 1/2, from the exact closed form."""
    rational, log4s = digamma_float_parts(x)
    return rational - EULER_GAMMA - log4s * LOG4


def digamma_diff(u, v) -> float:
    """psi(u) - psi(v) for half-integers u, v >= 1/2.

    gamma always cancels; log 4 cancels whenever u and v have the same
    parity, leaving a single rational, rounded once, in that case.
    """
    return _psi_diff(_twice(u), _twice(v))


def trigamma_parts(x) -> tuple[Fraction, Fraction]:
    """Exact decomposition psi'(x) = pi2_coeff * pi^2 - rational."""
    t = _twice(x)
    if t % 2 == 0:
        return Fraction(1, 6), _reciprocal_sum([j * j for j in range(1, t // 2)])
    return Fraction(1, 2), 4 * _reciprocal_sum([j * j for j in range(1, t, 2)])


def _trigamma(t: int) -> float:
    """psi'(t/2) in 128-bit fixed point, rounded once: the recurrence
    psi'(x) = psi'(x+1) + 1/x^2 up to x >= _ASYMPTOTIC_X, then the asymptotic
    series 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) (DLMF 5.15.8) through
    B_26, whose first omitted term is below 2^-115 of the value there."""
    s = 0
    while t < 2 * _ASYMPTOTIC_X:
        s += (_ONE << 2) // (t * t)  # 1/x^2 = 4/t^2
        t += 2
    s += (_ONE << 1) // t + (_ONE << 1) // (t * t)  # 1/x + 1/(2x^2)
    power = t
    for k, (p, q) in enumerate(_BERNOULLI, 1):
        power *= t * t  # t^(2k+1)
        s += (_ONE * p << (2 * k + 1)) // (q * power)
    return s / _ONE


def trigamma_closed(x) -> float:
    """psi' at a half-integer x >= 1/2, to within one rounding."""
    return _trigamma(_twice(x))


def _series_partial(x: float, terms: int) -> float:
    """-gamma + sum_{k=1}^{terms} x/(k(k+x)) = psi(x+1) - psi(terms+x+1) + psi(terms+1);
    the large digammas cancel under 3 digits for any double x, so 25 suffice."""
    with mpmath.workdps(25):
        x = mpmath.mpf(x)
        return float(mpmath.digamma(x + 1) - mpmath.digamma(terms + x + 1)
                     + mpmath.digamma(terms + 1))


def digamma_series(x, ctrl: TruncationControl | None = None) -> float:
    """psi(x+1) = -gamma + sum_{k>=1} x/(k(k+x)), truncated per ctrl.

    Valid for finite x > -1 (every denominator k+x then stays positive). In
    tolerance mode the cutoff K = ceil(|x|/eps) certifies the tail, since
    |sum_{k>K} x/(k(k+x))| <= |x| * sum_{k>K} 1/(k(k-1)) = |x|/K.
    Convergence is O(1/K), so small tolerances at large x are expensive by
    nature; exceeding max_terms raises with the partial attached.
    """
    xf = float(x)
    if not -1.0 < xf < math.inf:
        raise DomainError(f"series argument must be finite and exceed -1, got {x!r}")
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
    if not 0.0 < tf < math.inf:
        raise DomainError(f"argument must be positive and finite, got {t!r}")
    lhs = math.log(tf + 0.5) - 1.0 / tf
    rhs = _psi_any(tf)
    return lhs, rhs, lhs < rhs


def trigamma_lower_ineq(x) -> tuple[float, float, bool]:
    """Check psi'(x) > 1/(x+1) + 1/x^2 + 1/(2(x+1)^2) at x > 0.

    Returns (lhs, rhs, holds) with lhs the elementary rational minorant and
    rhs = psi'(x).
    """
    xf = float(x)
    if not 0.0 < xf < math.inf:
        raise DomainError(f"argument must be positive and finite, got {x!r}")
    lhs = 1.0 / (xf + 1.0) + 1.0 / (xf * xf) + 0.5 / ((xf + 1.0) ** 2)
    if is_half_integer(xf) and xf >= 0.5:
        rhs = trigamma_closed(xf)
    else:
        rhs = float(mpmath.polygamma(1, xf))
    return lhs, rhs, rhs > lhs
