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
fixed-point integers. No dimension above MAX_DIMENSION is accepted.

Values stay exact and convert to float only at the edge, so gap
measurements against bounds never inherit product-truncation error. The
infinite products are treated as approximations under test, never as
oracles.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import BallRatioError, DomainError, NonConvergenceError
from .gautschi import _cutoff, _double, _log_partial, joint_factor
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
        with mpmath.workprec(128):
            x = mpmath.mpf(self.mantissa.numerator) / self.mantissa.denominator
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
# about one unit in the last place: at the cap it is near 1e-74 wide
# (relative), far inside a double's rounding and the 1e-34 of the pi bracket.
_WALK_BITS = 256

# By n & 1: (num, den) of pi^q, q = 1 at even n and -1 at odd n, at the end
# of the pi bracket that makes n pi^q largest, then at the one that makes it least
_PI_ENDS = (((PI_HI.numerator, PI_HI.denominator), (PI_LO.numerator, PI_LO.denominator)),
            ((PI_LO.denominator, PI_LO.numerator), (PI_HI.denominator, PI_HI.numerator)))


def _klein_rota(n: int, sq_lo: int, sq_hi: int, bits: int) -> bool:
    """w_n < 1 + 1/n, i.e. n pi^q < 2 M_n^2, given sq_lo <= 2 (M_n 2^bits)^2
    <= sq_hi. It holds if the low end says so against the far pi end, fails
    if the high end says so against the near one, and raises otherwise."""
    (far, far_den), (near, near_den) = _PI_ENDS[n & 1]
    if (n * far) << 2 * bits < sq_lo * far_den:
        return True
    if (n * near) << 2 * bits >= sq_hi * near_den:
        return False
    raise BallRatioError(f"the ratio walk cannot decide w_n < 1 + 1/n at n={n}")


def ratio_walk(n_max: int) -> Iterator[tuple[int, float, float, bool]]:
    """(n, v_n, w_n, w_n < 1 + 1/n) for n = 1..n_max in order, with v_n and
    w_n as doubles, bit for bit those of ExactBallValue.to_real.

    lo <= M_n 2^B <= hi is walked by lo' = floor((n+1) 2^2B / (2 hi)) and
    hi' = ceil((n+1) 2^2B / (2 lo)). Int true division rounds correctly and
    monotonically, so ends that round alike give M_n's double (W_n's alike);
    ends that round apart raise rather than guessing."""
    if not 1 <= n_max <= MAX_DIMENSION:
        raise DomainError(f"n_max must lie in [1, {MAX_DIMENSION}], got {n_max}")
    bits = _WALK_BITS
    one = 1 << bits
    lo = hi = one >> 1  # M_1 = 1/2
    pi_powers = ((math.pi**-1, math.pi**1), (math.pi**0, math.pi**-1))  # to_real's, by n & 1
    for n in range(1, n_max + 1):
        sq_lo, sq_hi = 2 * lo * lo, 2 * hi * hi
        top = (n + 1) << 3 * bits  # W_n 2^B = (n+1) 2^3B / (2 (M_n 2^B)^2)
        v, w = lo / one, top // sq_hi / one
        if v != hi / one or w != -(-top // sq_lo) / one:
            raise BallRatioError(f"the ratio walk's bracket is too wide at n={n}")
        v_pi, w_pi = pi_powers[n & 1]
        yield n, v * v_pi, w * w_pi, _klein_rota(n, sq_lo, sq_hi, bits)
        top = (n + 1) << 2 * bits
        lo, hi = top // (2 * hi), -(-top // (2 * lo))


def v_product(n: int, ctrl: TruncationControl | None = None) -> float:
    """v_n via the joint-factor product at x = (n+1)/2, a = 1/2, over pi.

    Every factor exceeds 1, so truncation under-approximates v_n; in
    tolerance mode the shortfall is below eps in log scale.
    """
    if n < 1:
        raise DomainError(f"v_n needs n >= 1, got {n}")
    try:
        return joint_factor(_double(n + 1, "n") / 2.0, 0.5, ctrl) / math.pi
    except NonConvergenceError as exc:  # the partial of v_n, not of the joint factor
        raise NonConvergenceError(f"v product at n={n} needs over {exc.terms} factors",
                                  exc.partial / math.pi, exc.tail_bound, exc.terms) from exc


def _w_partial(n: int, m: int) -> float:
    # the w factors are the quotient of the joint factors at x + 1/2 and x
    x = _double(n + 1, "n") / 2.0
    return float(mpmath.exp(mpmath.fsub(_log_partial(x + 0.5, 0.5, m),
                                        _log_partial(x, 0.5, m), exact=True)))


def w_product(n: int, ctrl: TruncationControl | None = None) -> float:
    """w_n via prod_{k>=1} (2k+n)^2/((2k+n)^2 - 1); partials increase to w_n.

    The dropped terms telescope exactly:
    sum_{k>m} 1/((2k+n)^2 - 1) = 1/(2(2m+n+1)), so tolerance mode picks the
    least m >= 0 with that quantity below eps (m = 0 is the empty product, 1).
    """
    if n < 1:
        raise DomainError(f"w_n needs n >= 1, got {n}")
    nf = _double(n, "n")
    if ctrl is None:
        ctrl = TruncationControl.tolerance()
    # 1/(2(2k+n+1)) as 0.25/(k+n/2+1/2): the same doubles, but 2k cannot
    # overflow to a bound of 0 at a budget near the largest double
    m = _cutoff(ctrl, lambda k: 0.25 / (k + nf / 2.0 + 0.5),
                lambda: math.floor((1.0 / (2.0 * ctrl.eps) - nf - 1.0) / 2.0) + 1,
                lambda k: _w_partial(n, k),
                f"w product at n={n} needs over {{}} factors", least=0)
    return _w_partial(n, m)
