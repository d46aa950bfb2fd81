"""Exact unit-ball volumes, the ratios v_n and w_n, and their product
evaluators.

Omega_n (volume of the unit n-ball), the ratio v_n = Omega_{n-1}/Omega_n,
and the step ratio w_n = v_{n+1}/v_n are each a positive rational times an
integer power of pi, with closed forms in integers (C = C(2k, k)):

    Omega_{2k} = pi^k / k!        Omega_{2k+1} = 2^{2k+1} k! pi^k / (2k+1)!
    v_{2k}     = 4^k / (C pi)     v_{2k+1}     = (2k+1) C / 2^{2k+1}
    w_n        = (n+1) / (2 pi v_n^2)

C has exactly popcount(k) factors of 2 (Kummer), so shifting them out
leaves every v_n mantissa an odd integer over a power of two or the
reverse: it is in lowest terms without a gcd. Sweeps need no mantissa:
`ratio_walk` follows M_n in v_n = M_n pi^p (p = 0 at odd n, -1 at even n),
w_n = (n+1)/(2 M_n^2) pi^(-2p-1), by M_{n+1} = (n+1)/(2 M_n) as a bracket of
fixed-point integers, and decides Klein-Rota's w_n < 1 + 1/n on its w double.
Reads of many n walk by one rule (_walks), the kernels' in specfun too. No
dimension above MAX_DIMENSION is accepted.

Values stay exact and convert to float only at the edge, so gap
measurements against bounds never inherit product-truncation error. The
infinite products are treated as approximations under test, never as
oracles.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BallRatioError, DomainError, NonConvergenceError

if TYPE_CHECKING:
    from .truncation import TruncationControl

# 34-digit brackets: PI_LO < pi < PI_HI. Wide enough to separate every
# comparison the catalog needs; compare_to_fraction raises if they fail to.
PI_LO = Fraction(31415926535897932384626433832795028, 10**34)
PI_HI = PI_LO + Fraction(1, 10**34)

# Largest dimension the exact oracle accepts. Mantissas grow like n log n
# bits and their cost a little faster than n^2: at the cap v_exact and
# w_exact take about 0.2 s each (25 and 50 kB mantissas); ratio_walk,
# which keeps no mantissa, walks to it in under a second.
MAX_DIMENSION = 100_000


def _fraction(num: int, den: int, bound: int = 1) -> Fraction:
    """num/den in lowest terms, for den > 0 and gcd(num, den) dividing the
    small integer bound. Two gcds against small integers replace the big-int
    gcd of the Fraction constructor, whose cost is quadratic in the digits."""
    g = math.gcd(math.gcd(num, bound), den)
    out = object.__new__(Fraction)  # the constructor would take the gcd again
    out._numerator, out._denominator = num // g, den // g
    return out


def _decimal(n: int) -> decimal.Decimal:
    """Decimal(n) for n >= 0, past the 4300-digit limit of int.__str__.

    Decimal(int) alone is quadratic in the digits, so n is split at powers
    of two down to 4096 bits and recombined in an unbounded context, at the
    cost of Decimal's subquadratic multiplication."""
    pow2: dict[int, decimal.Decimal] = {}

    def split(n: int, bits: int) -> decimal.Decimal:
        if bits <= 4096:
            return decimal.Decimal(n)
        half = bits // 2
        high = n >> half
        if half not in pow2:
            pow2[half] = decimal.Decimal(2) ** half
        return split(n - (high << half), half) + split(high, bits - half) * pow2[half]

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return split(n, n.bit_length())


def _check_dimension(n: int, least: int, name: str) -> None:
    if n < least:
        raise DomainError(f"{name} needs n >= {least}, got {n}")
    if n > MAX_DIMENSION:
        raise DomainError(f"{name} needs n <= {MAX_DIMENSION}, got {n}")


def _leading(k: int) -> tuple[int, int]:
    """(a, s) with a 2^s <= k < (a + 1) 2^s, a the leading 192 bits of k > 0."""
    s = max(k.bit_length() - 192, 0)
    return k >> s, s


def _quotient(num: int, den: int):
    """mpf(num) / den at working precision, read from the leading bits of num
    and den. Rounding is monotone, so when the leading bits a of num and a + 1
    round alike, so does num; and when num's rounded value over the leading
    bits b of den and over b + 1 rounds alike, so does its quotient by den.
    Else, all but never, both integers are read whole."""
    import mpmath

    (a, sa), (b, sb) = _leading(num), _leading(den)
    top = mpmath.ldexp(a, sa - sb)
    x = top / b
    if (sa and top != mpmath.ldexp(a + 1, sa - sb)) or (sb and x != top / (b + 1)):
        return mpmath.mpf(num) / den
    return x


@dataclass(frozen=True)
class ExactBallValue:
    """A positive rational mantissa times an integer power of pi."""

    mantissa: Fraction
    pi_power: int

    def to_real(self) -> float:
        p = self.pi_power
        if -4 <= p <= 4:
            return float(self.mantissa) * math.pi**p
        # big powers: fold pi into the mantissa at 128 bits before rounding,
        # else the two float factors can overflow/underflow pairwise (e.g.
        # Omega_200); man / 2^-exp is correctly rounded, subnormals included
        import mpmath

        with mpmath.workprec(128):
            x = _quotient(self.mantissa.numerator, self.mantissa.denominator)
            man, exp = (x * mpmath.pi**p).man_exp
        return man / (1 << -exp) if exp < 0 else float(man << exp)

    def symbolic(self) -> str:
        m = self.mantissa
        text = str(_decimal(m.numerator))
        if m.denominator != 1:
            text += f"/{_decimal(m.denominator)}"
        return f"{text} * pi^{self.pi_power}"

    def compare_to_fraction(self, q) -> int:
        """Sign of (self - q) for rational q, decided rigorously.

        Bracketing pi between PI_LO and PI_HI turns the comparison into two
        integer cross-multiplications, with no gcd; an undecidable case (q
        inside the bracket interval) raises rather than guessing.
        """
        q = Fraction(q)
        a, b = self.mantissa.numerator, self.mantissa.denominator
        c, d = q.numerator, q.denominator
        p = self.pi_power
        if p == 0:
            left, right = a * d, c * b
            return (left > right) - (left < right)
        signs = []
        for end in (PI_LO, PI_HI):
            num, den = end.numerator ** abs(p), end.denominator ** abs(p)
            if p < 0:
                num, den = den, num
            # at this end of the bracket self is a num / (b den), with b, den, d > 0
            left, right = a * num * d, c * b * den
            signs.append((left > right) - (left < right))
        if signs[0] == signs[1] != 0:
            return signs[0]
        raise BallRatioError(f"pi brackets cannot separate {self.symbolic()} from {q}")


@functools.lru_cache(maxsize=1)
def _odd_central(k: int) -> int:
    """The odd part of C(2k, k), kept for the last k: v_n, w_n, Omega_n share it."""
    return math.comb(2 * k, k) >> k.bit_count()


def _v(n: int) -> ExactBallValue:
    k, odd = divmod(n, 2)
    c = _odd_central(k)
    twos = 2 * k - k.bit_count()
    if odd:
        return ExactBallValue(_fraction((2 * k + 1) * c, 2 << twos), 0)
    return ExactBallValue(_fraction(1 << twos, c), -1)


def omega_exact(n: int) -> ExactBallValue:
    """Volume of the unit n-ball; 0 <= n <= MAX_DIMENSION, with Omega_0 = 1."""
    _check_dimension(n, 0, "Omega_n")
    k, odd = divmod(n, 2)
    f = math.factorial(k)
    if not odd:
        return ExactBallValue(_fraction(1, f), k)
    # Omega_{2k+1} = Omega_{2k} / v_{2k+1} = 2^{2k+1} pi^k / ((2k+1) C k!),
    # where C k! holds exactly k factors of 2 (popcount(k) in C, the rest in k!)
    c = _odd_central(k)
    odd_den = (2 * k + 1) * c * (f >> (k - k.bit_count()))
    return ExactBallValue(_fraction(2 << k, odd_den), k)


def v_exact(n: int) -> ExactBallValue:
    """v_n = Omega_{n-1}/Omega_n; 1 <= n <= MAX_DIMENSION."""
    _check_dimension(n, 1, "v_n")
    return _v(n)


def w_exact(n: int) -> ExactBallValue:
    """w_n = v_{n+1}/v_n = Omega_n^2/(Omega_{n-1} Omega_{n+1}) = (n+1)/(2 pi v_n^2);
    1 <= n <= MAX_DIMENSION."""
    _check_dimension(n, 1, "w_n")
    v = _v(n)
    a, b = v.mantissa.numerator, v.mantissa.denominator
    # gcd((n+1) b^2, 2a^2) divides 2(n+1), as a and b are coprime
    return ExactBallValue(_fraction((n + 1) * b * b, 2 * a * a, 2 * (n + 1)),
                          -2 * v.pi_power - 1)


# Fixed-point bits of ratio_walk. Each step widens the bracket of M_n by
# about one unit in the last place: over the whole walk to the cap it is at
# most 411,467 units of 2^-128 wide (W_n's at most 6,524), about 3e-36
# relative, far inside a double's rounding. 96 bits still give every double
# at every n; 80 bits raise at n = 78479 (measured).
_WALK_BITS = 128

# Reads of many n walk once (here, and specfun's kernels) when their largest
# n is at most _WALK_RATIO times their count: a walk step costs about 3 us
# here and 0.25 us per kernel, a point read 0.01-130 ms and 3-20 us.
_WALK_RATIO = 64

# Klein-Rota's w_n < 1 + 1/n is decided on doubles in [1, 2], one ulp 2^-52
# apart, where 1 + 1/n - w is exact (Sterbenz). The walk's w is within 1.5
# ulp of w_n, its stated error (1.09 at most over the whole walk; a priori
# under 2.1 from three roundings and math.pi's error), and 1.0 + 1.0 / n is
# within 1 ulp of 1 + 1/n: a difference beyond 4 ulp has the exact sign. The
# exact one is at least 2.25e10 ulp at every n <= MAX_DIMENSION (measured).
_KLEIN_ROTA_GUARD = 4 * 2.0**-52


def _walks(ns: Sequence[int]) -> bool:
    """Whether reads at the distinct n of ns walk to the largest, not read each n."""
    return bool(ns) and max(ns) <= _WALK_RATIO * len(ns)


def _klein_rota_holds(n: int, w: float) -> bool:
    """Klein-Rota's w_n < 1 + 1/n from w, a double within 1.5 ulp of w_n (ratio_walk's,
    to_real's): the sign of 1 + 1/n - w beyond _KLEIN_ROTA_GUARD, else BallRatioError."""
    gap = 1.0 + 1.0 / n - w
    if abs(gap) <= _KLEIN_ROTA_GUARD:
        raise BallRatioError(f"w_n = {w!r} is within the guard of 1 + 1/n at n={n}")
    return gap > 0


def ratio_walk(n_max: int) -> Iterator[tuple[int, float, float, bool]]:
    """(n, v_n, w_n, w_n < 1 + 1/n) for n = 1..n_max in order, with v_n and
    w_n as doubles, bit for bit those of ExactBallValue.to_real.

    lo <= M_n 2^B <= hi is walked by lo' = floor((n+1) 2^(2B-1) / hi) and
    hi' = ceil((n+1) 2^(2B-1) / lo), and W_n = M_{n+1} / M_n lies between
    floor(lo' 2^B / hi) and ceil(hi' 2^B / lo). float(int) rounds correctly
    and monotonically, so ends that round alike give M_n's double (W_n's
    alike); ends that round apart raise rather than guessing. An n_max
    outside [1, MAX_DIMENSION] raises DomainError at the call, before any n
    is read."""
    if not 1 <= n_max <= MAX_DIMENSION:
        raise DomainError(f"n_max must lie in [1, {MAX_DIMENSION}], got {n_max}")
    bits = _WALK_BITS
    one = 1 << bits
    # to_real's pi powers, by n & 1, times 2^-B: exact, so float(end) times
    # one of them is end / 2^B times the power, rounded once
    pi_powers = tuple((math.pi**p * 2.0**-bits, math.pi**q * 2.0**-bits)
                      for p, q in ((-1, 1), (0, -1)))

    def walk(lo, hi):
        for n in range(1, n_max + 1):
            top = (n + 1) << 2 * bits - 1  # M_{n+1} 2^B = (n+1) 2^(2B-1) / (M_n 2^B)
            next_lo, next_hi = top // hi, -(-top // lo)
            # W_n = M_{n+1} / M_n, bracketed by the ends of both brackets
            w_lo, w_hi = (next_lo << bits) // hi, -(-(next_hi << bits) // lo)
            v, w = float(lo), float(w_lo)
            if v != float(hi) or w != float(w_hi):
                raise BallRatioError(f"the ratio walk's bracket is too wide at n={n}")
            v_pi, w_pi = pi_powers[n & 1]
            w *= w_pi
            yield n, v * v_pi, w, _klein_rota_holds(n, w)
            lo, hi = next_lo, next_hi
    return walk(one >> 1, one >> 1)  # M_1 = 1/2


def v_product(n: int, ctrl: TruncationControl | None = None) -> float:
    """v_n via the joint-factor product at x = (n+1)/2, a = 1/2, over pi.

    Every factor exceeds 1, so truncation under-approximates v_n; in
    tolerance mode the shortfall is below eps in log scale.
    """
    from .gautschi import _double, joint_factor

    if n < 1:
        raise DomainError(f"v_n needs n >= 1, got {n}")
    try:
        return joint_factor(_double(n + 1, "n") / 2.0, 0.5, ctrl) / math.pi
    except NonConvergenceError as exc:  # the partial of v_n, not of the joint factor
        raise NonConvergenceError(f"v product at n={n} needs over {exc.terms} factors",
                                  exc.partial / math.pi, exc.tail_bound, exc.terms) from exc


def _w_partial(n: int, m: int) -> float:
    """The m-th partial of w_n's product, the quotient f_m(x+1/2, 1/2) / f_m(x, 1/2)
    of joint factors at x = (n+1)/2. Its log is
    2 lg(x+m+1/2) - lg(x+m+1) - lg(x+m) + log w_n in loggamma, with
    log w_n = lg(x+1) + lg(x) - 2 lg(x+1/2), at gautschi._dps(x+1/2, m) digits
    or the caller's working digits where those are more."""
    import mpmath

    from .gautschi import _double, _dps

    x = _double(n + 1, "n") / 2.0
    lg = mpmath.loggamma
    with mpmath.workdps(max(_dps(x + 0.5, m), mpmath.mp.dps)):
        x = mpmath.mpf(x)
        h = x + 0.5
        log = (2 * lg(h + m) - lg(x + m + 1) - lg(x + m)
               - 2 * lg(h) + lg(x + 1) + lg(x))
    return float(mpmath.exp(log))


def w_product(n: int, ctrl: TruncationControl | None = None) -> float:
    """w_n via prod_{k>=1} (2k+n)^2/((2k+n)^2 - 1); partials increase to w_n.

    The dropped terms telescope exactly:
    sum_{k>m} 1/((2k+n)^2 - 1) = 1/(2(2m+n+1)), so tolerance mode picks the
    least m >= 0 with that quantity below eps (m = 0 is the empty product, 1).
    """
    from .gautschi import _cutoff, _double

    if n < 1:
        raise DomainError(f"w_n needs n >= 1, got {n}")
    nf = _double(n, "n")
    # 1/(2(2k+n+1)) as 0.25/(k+n/2+1/2): the same doubles, but 2k cannot
    # overflow to a bound of 0 at a budget near the largest double
    m = _cutoff(ctrl, lambda k: 0.25 / (k + nf / 2.0 + 0.5),
                lambda eps: math.floor((1.0 / (2.0 * eps) - nf - 1.0) / 2.0) + 1,
                lambda k: _w_partial(n, k),
                f"w product at n={n} needs over {{}} factors", least=0)
    return _w_partial(n, m)
