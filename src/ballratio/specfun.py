"""Digamma and trigamma values at half-integer arguments.

Every argument the bound catalog needs is a half-integer, where both
functions have closed forms built from finite rational sums:

    psi(m)       = -gamma + H_{m-1}
    psi(m + 1/2) = -gamma - log 4 + 2 * sum_{j=1}^{m} 1/(2j-1)
    psi'(m)      = pi^2/6 - sum_{j=1}^{m-1} 1/j^2
    psi'(m+1/2)  = pi^2/2 - 4 * sum_{j=1}^{m} 1/(2j-1)^2

digamma_parts returns psi's sum exactly, by binary splitting; no
evaluation path uses it. Evaluation takes the int t = 2x, up to the cap
t = 2 * MAX_DIMENSION, and reads two integer kernels in units of 2^-128,
which every reader rounds once, to a double (_fixed) or at mpmath's working
precision (_mp_fixed); the bound catalog reads them only through
_kernel_functions. Both kernels are correctly rounded to nearest and keep
no table or state:

- _psi_rational(t), psi's rational part H_{m-1} or 2 H_{2m} - H_m, so gamma
  and log 4 cancel exactly in differences;
- _trigamma(t), psi' itself.

Each is read in one of two ways:

- walked over t = 1, 2, ... in integers, by psi(x) = psi(x-1) + 1/(x-1)
  from 0 at x = 1/2 and x = 1, and by psi'(x) = psi'(x-1) - 1/(x-1)^2 from
  pi^2/2 and pi^2/6 (pi^2/6 minus the sum would lose about log10(x) digits
  in double, but not at 2^-192). A sweep, and any list of n dense by
  ballvol._walks (the oracle's rule too), walks each kernel once per pass of
  bounds._pass, the catalog's one block loop, carrying only its two parity
  sums and one block's values (_kernels);
- at a point, for every other read: the asymptotic series (DLMF 5.11.2,
  5.15.8) in integers of 2^-256, or below t = 257, where it would need more
  terms, a walk.

Both give the same values. The tests walk floor and ceiling bounds of each
kernel at every t to the cap: they round alike, and the floor never sits on
a rounding boundary, so each true value lies at least 2^-192 from one and
anything within 2^-193 of it rounds as the walk does. The series is within
2^-199: it stops below 2^-200, its first omitted term bounds the rest (each
series envelops its function for x > 0), and its integer roundings add a
few units of 2^-256. Its constants, pi^2, gamma, log 2 and B_2..B_40, are
integer literals, which the tests recompute in mpmath at 288 bits; the
premise is that those and mpmath's log(t) at 288 bits are good to 2^-256.

The minorant inequalities are decided in mpmath, apart from both kernels.
The generic series of psi(x+1) is kept as an independent cross-check and
for other arguments; its K-term partial sum is evaluated in closed form,
psi(x+1) - psi(K+x+1) + psi(K+1), so any K costs the same.

Importing this module loads no mpmath (the package's layering rule): the
series' log(t), _mp_fixed, digamma_series and the minorants import it
where they run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from .ballvol import MAX_DIMENSION, _walks
from .errors import DomainError

if TYPE_CHECKING:
    from .truncation import TruncationControl

EULER_GAMMA = 0.5772156649015328606065120900824024
LOG4 = math.log(4.0)
ALPHA = 2.0 - EULER_GAMMA - LOG4  # = psi(3/2) = psi(-1/2)

_ONE = 1 << 128  # the fixed-point scale of psi and psi' values


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


_T_MAX = 2 * MAX_DIMENSION
# A walk adds one term per t in units of 2^-192, floored: under 2^-174 of
# error at the cap. A read of one t walks there up to _SERIES_T, and else
# sums a series in units of 2^-_P to its first term below 2^-_STOP (17 terms
# at t = 257). A pass walks or reads at points by ballvol._walks (_kernels).
_GUARD, _P, _STOP, _SERIES_T = 64, 256, 200, 256
_TWO, _FOUR = 2 << _GUARD + 128, 4 << _GUARD + 128
# floor(pi^2 2^192), floor(gamma 2^_P) and floor(log(2) 2^_P)
_PI2 = 0x9de9e64df22ef2d256e26cd9808c1ac708566a3fe0d0a2286
_EULER = 0x93c467e37db0c7a4d1be3f810152cb56a1cecc3af65cc0190c03df34709affbd
_LN2 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2b
# (numerator, denominator) of B_2k and of -B_2k / (2k) for k = 1..20: the
# coefficients of the series of psi' and of psi
_TRIGAMMA_SERIES = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322), (-7709321041217, 510),
    (2577687858367, 6), (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530),
)
_PSI_SERIES = tuple((-num, 2 * k * den) for k, (num, den) in enumerate(_TRIGAMMA_SERIES, 1))


def _walked(step: Callable[[int], int], even: int, odd: int) -> Iterator[int]:
    """A kernel at t = 1, 2, ... to the cap in units of 2^-128, rounded to
    nearest: walked from odd and even, its values at t = 1 and 2 in units of
    2^-192, by adding step(d) at t = d + 2. Only the two parity sums are
    kept, each plus half a unit of 2^-128, so that a shift rounds it."""
    odd += 1 << _GUARD - 1
    even += 1 << _GUARD - 1
    yield odd >> _GUARD
    yield even >> _GUARD
    for d in range(1, _T_MAX - 2, 2):
        odd += step(d)
        yield odd >> _GUARD
        even += step(d + 1)
        yield even >> _GUARD


# _psi_rational and _trigamma walked: psi(x) = psi(x-1) + 1/(x-1) from 0 at
# x = 1/2 and 1, and psi'(x) = psi'(x-1) - 1/(x-1)^2 from pi^2/2 and pi^2/6,
# with 1/(x-1) = 2/d at x = (d+2)/2
def _psi_walked() -> Iterator[int]:
    return _walked(lambda d: _TWO // d, 0, 0)


def _trigamma_walked() -> Iterator[int]:
    return _walked(lambda d: -(_FOUR // (d * d)), _PI2 // 6, _PI2 // 2)


def _point(t: int, walked: Callable[[], Iterator[int]], series: Callable) -> int:
    """A kernel at one t in units of 2^-128, rounded to nearest: walked there
    up to _SERIES_T; above, with (value, power, coefficients) = series(t),
    it is value + sum_k c_k power x^-2k at x = t/2 in units of 2^-_P, c_k
    the k-th of coefficients as (numerator, denominator), summed to the
    first term below 2^-_STOP, which bounds the rest, as each series
    envelops its function for x > 0 (DLMF 5.11(ii))."""
    if t > _T_MAX:
        raise DomainError(f"a half-integer argument needs x <= {MAX_DIMENSION}, got x = {t}/2")
    if t <= _SERIES_T:
        return next(islice(walked(), t - 1, None))
    value, power, coefficients = series(t)
    for num, den in coefficients:
        power = 4 * power // (t * t)
        term = power * num // den
        if abs(term) < 1 << _P - _STOP:
            return (value + (1 << _P - 129)) >> _P - 128
        value += term
    raise AssertionError(f"the series at t = {t} needs more terms")


def _psi_rational(t: int) -> int:
    """The rational part of psi(t/2) (see digamma_parts) in units of 2^-128,
    rounded to nearest: psi(x) + gamma + (t % 2) log 4, with
    psi(x) = log x - 1/(2x) - sum_{k>=1} B_2k / (2k x^2k) (DLMF 5.11.2)."""
    def series(t):
        from mpmath.libmp import from_int, mpf_log, to_fixed

        log = to_fixed(mpf_log(from_int(t), _P + 32), _P)  # floor(log(t) 2^_P)
        return log + (2 * (t % 2) - 1) * _LN2 + _EULER - (1 << _P) // t, 1 << _P, _PSI_SERIES
    return _point(t, _psi_walked, series)


def _trigamma(t: int) -> int:
    """psi'(t/2) in units of 2^-128, rounded to nearest, with
    psi'(x) = 1/x + 1/(2x^2) + sum_{k>=1} B_2k / x^(2k+1) (DLMF 5.15.8)."""
    def series(t):
        inverse = (2 << _P) // t  # 1/x
        return inverse + (2 << _P) // (t * t), inverse, _TRIGAMMA_SERIES
    return _point(t, _trigamma_walked, series)


def _fixed(units: int, log4s: int) -> float:
    """A kernel value, units * 2^-128 - log4s * log 4, as a double."""
    return units / _ONE - log4s * LOG4


def _mp_fixed(units: int, log4s: int):
    """A kernel value, units * 2^-128 - log4s * log 4, at working precision."""
    import mpmath

    return mpmath.mpf(units) / _ONE - log4s * 2 * mpmath.ln2


def _kernel_functions(fixed: Callable, pi, psi: Callable[[int], int] = _psi_rational,
                      trigamma: Callable[[int], int] = _trigamma) -> dict[str, Callable]:
    """The bound catalog's functions of the kernels, each at an int n, with
    psi's rational part and psi' at t/2 read as psi(t) and trigamma(t) in
    units of 2^-128 (by default, each at its point), and fixed as the
    backend's converter (_fixed or _mp_fixed):

    - psi_slope: (psi((n+1)/2) + gamma)/(n-1), as psi(1) = -gamma has a
      rational part of 0; its removable singularity at n = 1 is patched with
      the limit psi'(1)/2 = pi^2/12;
    - psi_alpha: psi(n/2) - alpha, alpha = psi(3/2) = 2 - gamma - log 4, whose
      rational part is exactly 2: gamma cancels, and log 4 too at odd n;
    - trigamma: psi'(n/2)."""
    return {
        "psi_slope": lambda n: (pi * pi / 12 if n == 1
                                else fixed(psi(n + 1), (n + 1) % 2) / (n - 1)),
        "psi_alpha": lambda n: fixed(psi(n) - 2 * _ONE, n % 2 - 1),
        "trigamma": lambda n: fixed(trigamma(n), 0),
    }


class _Kernel(dict):
    """One of the kernels, _psi_rational or _trigamma, over one pass of blocks
    of ascending n: its values by t.

    read(lo, hi) opens the window of a block that reads t = lo..hi and returns
    its reader. With walk, an iterator over the kernel at t = 1, 2, ..., the
    block's first read past the last walked t drops the values below lo and
    steps the walk on to hi, so a pass walks each t once, holds one block's
    window, and steps no kernel that it never reads. Without walk, and for
    any t not held, a t is read alone by point and kept."""

    def __init__(self, point: Callable[[int], int], walk: Iterator[int] | None = None):
        self.point, self.walk = point, walk
        self.lo = self.hi = self.t = 0  # the block's window, and the last t walked

    def __missing__(self, t: int) -> int:
        if self.walk is not None and self.t < t <= self.hi:
            for s in [s for s in self if s < self.lo]:
                del self[s]
            if self.lo > self.t + 1:
                next(islice(self.walk, self.lo - self.t - 2, None))  # steps to t = lo - 1
            self.update(zip(range(max(self.lo, self.t + 1), self.hi + 1), self.walk))
            self.t = self.hi
            return self[t]
        self[t] = value = self.point(t)
        return value

    def read(self, lo: int, hi: int) -> Callable[[int], int]:
        self.lo, self.hi = lo, hi
        return self.__getitem__


def _kernels(ns: Sequence[int]) -> tuple[_Kernel, _Kernel]:
    """psi's and psi''s _Kernel for a pass of bounds._pass over ns: walked
    where ballvol._walks(ns) says so, as the ratio walk is, else read at each
    t alone."""
    walk = _walks(ns)
    return (_Kernel(_psi_rational, _psi_walked() if walk else None),
            _Kernel(_trigamma, _trigamma_walked() if walk else None))


def digamma_closed(x) -> float:
    """psi at a half-integer x >= 1/2: the rational part rounded once, then
    gamma and log 4 subtracted in double, so not always correctly rounded
    (1 ulp off at 74 of the 400 half-integers up to 200)."""
    t = _twice(x)
    return _psi_rational(t) / _ONE - EULER_GAMMA - t % 2 * LOG4


def digamma_diff(u, v) -> float:
    """psi(u) - psi(v) for half-integers u, v >= 1/2.

    gamma always cancels; log 4 cancels whenever u and v have the same
    parity, leaving a single rational, rounded once, in that case.
    """
    tu, tv = _twice(u), _twice(v)
    return _fixed(_psi_rational(tu) - _psi_rational(tv), tu % 2 - tv % 2)


def trigamma_closed(x) -> float:
    """psi' at a half-integer 1/2 <= x <= MAX_DIMENSION: its correctly rounded
    value in units of 2^-128, rounded once to a double."""
    return _trigamma(_twice(x)) / _ONE


def _series_partial(x: float, terms: int) -> float:
    """-gamma + sum_{k=1}^{terms} x/(k(k+x)) = psi(x+1) - psi(terms+x+1) + psi(terms+1);
    the large digammas cancel under 3 digits for any double x, so 25 suffice."""
    import mpmath

    with mpmath.workdps(25):
        x = mpmath.mpf(x)
        return float(mpmath.digamma(x + 1) - mpmath.digamma(terms + x + 1)
                     + mpmath.digamma(terms + 1))


def digamma_series(x, ctrl: TruncationControl | None = None) -> float:
    """psi(x+1) = -gamma + sum_{k>=1} x/(k(k+x)), truncated per ctrl.

    Valid for finite x > -1 (every denominator k+x then stays positive). The
    tail after K terms is certified by
    |sum_{k>K} x/(k(k+x))| <= |x| * sum_{k>K} 1/(k(k-1)) = |x|/K, and
    tolerance mode takes the least K with |x|/K below eps.
    Convergence is O(1/K), so small tolerances at large x are expensive by
    nature; exceeding max_terms raises with the partial attached.
    """
    from .gautschi import _cutoff, _double

    xf = _double(x, "series argument")
    if not -1.0 < xf < math.inf:
        raise DomainError(f"series argument must be finite and exceed -1, got {x!r}")
    if xf == 0.0:
        return -EULER_GAMMA  # every summand vanishes
    terms = _cutoff(ctrl, lambda k: abs(xf) / k, lambda eps: math.ceil(abs(xf) / eps),
                    lambda k: _series_partial(xf, k),
                    f"digamma series at x={xf} needs over {{}} terms")
    return _series_partial(xf, terms)


def _minorant_check(x, sides: Callable) -> tuple[float, float, bool]:
    """The doubles of (lhs, rhs) = sides(x) at x > 0 and the verdict lhs < rhs,
    all from mpmath at 20 digits plus two per decade of x away from 1: each
    gap shrinks against its sides like x^-2 as x grows, like x or x^2 to 0."""
    import mpmath

    from .gautschi import _double

    xf = _double(x, "argument")
    if not 0.0 < xf < math.inf:
        raise DomainError(f"argument must be positive and finite, got {x!r}")
    with mpmath.workdps(20 + 2 * math.ceil(abs(math.log10(xf)))):
        lhs, rhs = sides(mpmath.mpf(xf))
        return float(lhs), float(rhs), lhs < rhs


def psi_lower_ineq(t) -> tuple[float, float, bool]:
    """Check log(t + 1/2) - 1/t < psi(t) at t > 0. Returns (lhs, rhs, holds)."""
    import mpmath

    return _minorant_check(t, lambda x: (mpmath.log(x + 0.5) - 1 / x, mpmath.digamma(x)))


def trigamma_lower_ineq(x) -> tuple[float, float, bool]:
    """Check psi'(x) > 1/(x+1) + 1/x^2 + 1/(2(x+1)^2) at x > 0.

    Returns (lhs, rhs, holds) with lhs the elementary rational minorant and
    rhs = psi'(x).
    """
    import mpmath

    return _minorant_check(x, lambda x: (1 / (x + 1) + 1 / (x * x) + 1 / (2 * (x + 1) ** 2),
                                         mpmath.polygamma(1, x)))
