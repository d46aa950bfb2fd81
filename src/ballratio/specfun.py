"""Digamma and trigamma values at half-integer arguments.

Every argument the bound catalog needs is a half-integer, where both
functions have closed forms built from finite rational sums:

    psi(m)       = -gamma + H_{m-1}
    psi(m + 1/2) = -gamma - log 4 + 2 * sum_{j=1}^{m} 1/(2j-1)
    psi'(m)      = pi^2/6 - sum_{j=1}^{m-1} 1/j^2
    psi'(m+1/2)  = pi^2/2 - 4 * sum_{j=1}^{m} 1/(2j-1)^2

digamma_parts returns psi's sum exactly, by binary splitting; no
evaluation path uses it. Evaluation takes the int t = 2x and reads two
integer kernels in units of 2^-128, which every reader, double or mpmath,
rounds once:

- _psi_rational(t), psi's rational part H_{m-1} or 2 H_{2m} - H_m rounded
  to nearest, so gamma and log 4 cancel exactly in differences. It is walked
  over t by psi(x) = psi(x-1) + 1/(x-1) in integers, lazily up to the
  largest t asked for, and kept as fixed-width records of one byte string:
  3.4 MB at the cap t = 2 * MAX_DIMENSION, above which no t is accepted;
- _trigamma(t), psi' itself (recurrence, then the asymptotic series), not
  memoised: pi^2/6 minus the sum would lose about log10(x) digits in
  double. Its error is within 2^-115 of the value plus 64 units (at most
  197, at t = 64). That bound is absolute, so trigamma_closed refuses
  x > MAX_DIMENSION too: at x = 1e40 it would return a negative psi'.

The minorant inequalities are decided in mpmath, apart from both kernels.
The generic series of psi(x+1) is kept as an independent cross-check and
for other arguments; its K-term partial sum is evaluated in closed form,
psi(x+1) - psi(K+x+1) + psi(K+1), so any K costs the same.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction

import mpmath

from .ballvol import MAX_DIMENSION
from .errors import DomainError, NonConvergenceError
from .gautschi import _double
from .truncation import TruncationControl

EULER_GAMMA = 0.5772156649015328606065120900824024
LOG4 = math.log(4.0)
ALPHA = 2.0 - EULER_GAMMA - LOG4  # = psi(3/2) = psi(-1/2)

_ONE = 1 << 128  # the fixed-point scale of psi and psi' values
_ASYMPTOTIC_X = 32
# B_2..B_26 as (p * 2^(2k+1) in units of 2^-128, q): the numerators of the
# series terms B_2k / x^(2k+1) = 2^(2k+1) B_2k / t^(2k+1), scaled once here
_BERNOULLI = tuple((_ONE * p << (2 * k + 1), q)
                   for k in range(1, 14) for p, q in [mpmath.bernfrac(2 * k)])


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


# The walk sums 2/(t-2) floored in units of 2^-192: under 2^-174 of error
# at the cap, and the tests check that floor and ceiling sums round alike at
# every t up to it. Each value is below 16 * 2^128, so 17 bytes hold it.
_GUARD = 64
_RECORD = 17
_BLOCK = 4096  # arguments per extension, so a sweep copies the table rarely
_T_MAX = 2 * MAX_DIMENSION
# (sums, table): table holds _psi_rational(t) for t = 0, 1, 2, ... as
# little-endian records (t = 0 unused), and sums[p] is the walk's sum at the
# last t of parity p in it, plus half a unit of 2^-128 so that a shift rounds
# it to nearest. Each extension is built in locals and published by one
# assignment, so a reader never sees a half-written record.
_START = ((1 << (_GUARD - 1),) * 2, bytes(3 * _RECORD))
_walk = _START
_from_bytes = int.from_bytes  # bound once: the lookup costs more than the call


def _extend(t: int) -> bytearray:
    """Walk the table on to t, rounded up to a whole block, and return it."""
    global _walk
    if t > _T_MAX:
        raise DomainError(f"psi at a half-integer needs x <= {MAX_DIMENSION}, got x = {t}/2")
    sums, table = _walk
    sums, table = list(sums), bytearray(table)
    end = min((t // _BLOCK + 1) * _BLOCK, _T_MAX + 1)
    two = 2 << (_GUARD + 128)
    for d in range(len(table) // _RECORD - 2, end - 2):
        # psi(x) = psi(x-1) + 1/(x-1), and 1/(x-1) = 2/d at x = (d+2)/2
        sums[d & 1] += two // d
        table += (sums[d & 1] >> _GUARD).to_bytes(_RECORD, "little")
    _walk = (tuple(sums), table)
    return table


def _psi_rational(t: int) -> int:
    """The rational part of psi(t/2) (see digamma_parts) in units of 2^-128,
    rounded to nearest."""
    o = t * _RECORD
    table = _walk[1]
    if o >= len(table):
        table = _extend(t)
    return _from_bytes(table[o:o + _RECORD], "little")


def _psi_diff(tu: int, tv: int) -> float:
    """psi(tu/2) - psi(tv/2), rounded once when tu and tv share parity."""
    return (_psi_rational(tu) - _psi_rational(tv)) / _ONE - (tu % 2 - tv % 2) * LOG4


def _psi_gamma(t: int) -> float:
    """psi(t/2) + gamma, rounded once: _psi_diff(t, 2), as psi(1) = -gamma
    has a rational part of 0."""
    return _psi_rational(t) / _ONE - t % 2 * LOG4


def digamma_closed(x) -> float:
    """psi at a half-integer x >= 1/2, from the exact closed form."""
    t = _twice(x)
    return _psi_rational(t) / _ONE - EULER_GAMMA - t % 2 * LOG4


def digamma_diff(u, v) -> float:
    """psi(u) - psi(v) for half-integers u, v >= 1/2.

    gamma always cancels; log 4 cancels whenever u and v have the same
    parity, leaving a single rational, rounded once, in that case.
    """
    return _psi_diff(_twice(u), _twice(v))


def _trigamma(t: int) -> int:
    """psi'(t/2) in units of 2^-128: the recurrence psi'(x) = psi'(x+1) +
    1/x^2 up to x >= _ASYMPTOTIC_X, then the asymptotic series 1/x +
    1/(2x^2) + sum_k B_2k / x^(2k+1) (DLMF 5.15.8) through B_26, whose first
    omitted term is below 2^-115 of the value there; each term is floored."""
    s = 0
    while t < 2 * _ASYMPTOTIC_X:
        s += (_ONE << 2) // (t * t)  # 1/x^2 = 4/t^2
        t += 2
    tt = t * t
    s += (_ONE << 1) // t + (_ONE << 1) // tt  # 1/x + 1/(2x^2)
    power = t
    for p, q in _BERNOULLI:
        power *= tt  # t^(2k+1)
        s += p // (q * power)
    return s


def trigamma_closed(x) -> float:
    """psi' at a half-integer 1/2 <= x <= MAX_DIMENSION, to one rounding."""
    t = _twice(x)
    if t > _T_MAX:
        raise DomainError(f"psi' at a half-integer needs x <= {MAX_DIMENSION}, got x = {t}/2")
    return _trigamma(t) / _ONE


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
    xf = _double(x, "series argument")
    if not -1.0 < xf < math.inf:
        raise DomainError(f"series argument must be finite and exceed -1, got {x!r}")
    if ctrl is None:
        ctrl = TruncationControl.tolerance()
    if xf == 0.0:
        return -EULER_GAMMA  # every summand vanishes
    if ctrl.is_fixed:
        terms = ctrl.m
    else:
        need = abs(xf) / ctrl.eps  # may be inf; ceil(need) > max_terms iff need is
        if need > ctrl.max_terms:
            raise NonConvergenceError(
                f"digamma series at x={xf} needs over {ctrl.max_terms} terms for eps={ctrl.eps}",
                partial=_series_partial(xf, ctrl.max_terms),
                tail_bound=abs(xf) / ctrl.max_terms,
                terms=ctrl.max_terms,
            )
        terms = math.ceil(need)
    return _series_partial(xf, terms)


def _minorant_check(x, sides: Callable) -> tuple[float, float, bool]:
    """The doubles of (lhs, rhs) = sides(x) at x > 0 and the verdict lhs < rhs,
    all from mpmath at 20 digits plus two per decade of x away from 1: each
    gap shrinks against its sides like x^-2 as x grows, like x or x^2 to 0."""
    xf = _double(x, "argument")
    if not 0.0 < xf < math.inf:
        raise DomainError(f"argument must be positive and finite, got {x!r}")
    with mpmath.workdps(20 + 2 * math.ceil(abs(math.log10(xf)))):
        lhs, rhs = sides(mpmath.mpf(xf))
        return float(lhs), float(rhs), lhs < rhs


def psi_lower_ineq(t) -> tuple[float, float, bool]:
    """Check log(t + 1/2) - 1/t < psi(t) at t > 0. Returns (lhs, rhs, holds)."""
    return _minorant_check(t, lambda x: (mpmath.log(x + 0.5) - 1 / x, mpmath.digamma(x)))


def trigamma_lower_ineq(x) -> tuple[float, float, bool]:
    """Check psi'(x) > 1/(x+1) + 1/x^2 + 1/(2(x+1)^2) at x > 0.

    Returns (lhs, rhs, holds) with lhs the elementary rational minorant and
    rhs = psi'(x).
    """
    return _minorant_check(x, lambda x: (1 / (x + 1) + 1 / (x * x) + 1 / (2 * (x + 1) ** 2),
                                         mpmath.polygamma(1, x)))
