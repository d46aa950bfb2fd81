"""Exact unit-ball volume values and their infinite-product evaluations.

Omega_n (volume of the unit n-ball), the ratio v_n = Omega_{n-1}/Omega_n,
and the step ratio w_n = v_{n+1}/v_n are each a positive rational times an
integer power of pi. This module keeps them in that form and converts to
float only at the edge, so gap measurements against bounds never inherit
product-truncation error. The infinite products are treated as
approximations under test, never as oracles.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import BallRatioError, DomainError, NonConvergenceError
from .gautschi import _log_partial, joint_factor
from .truncation import TruncationControl

# 34-digit brackets: PI_LO < pi < PI_HI. Wide enough to separate every
# comparison the catalog needs; compare_to_fraction raises if they fail to.
PI_LO = Fraction(31415926535897932384626433832795028, 10**34)
PI_HI = PI_LO + Fraction(1, 10**34)

_lock = threading.Lock()
_FACT: list[int] = [1]  # _FACT[i] = i!
_ODD: list[int] = [1, 1]  # _ODD[i] = (2i-1)!!, with (-1)!! = 1


def _grow(fact_upto: int, odd_upto: int) -> None:
    with _lock:
        while len(_FACT) <= fact_upto:
            _FACT.append(_FACT[-1] * len(_FACT))
        while len(_ODD) <= odd_upto:
            i = len(_ODD)
            _ODD.append(_ODD[-1] * (2 * i - 1))


@dataclass(frozen=True)
class ExactBallValue:
    """A positive rational mantissa times an integer power of pi."""

    mantissa: Fraction
    pi_power: int

    def to_real(self) -> float:
        p = self.pi_power
        if -4 <= p <= 4:
            return float(self.mantissa) * math.pi**p
        # big powers: fold pi into the rational before converting, else the
        # two float factors can overflow/underflow pairwise (e.g. Omega_200)
        if p > 0:
            return float(self.mantissa * PI_LO**p)
        return float(self.mantissa / PI_LO ** (-p))

    def symbolic(self) -> str:
        return f"{self.mantissa} * pi^{self.pi_power}"

    def compare_to_fraction(self, q) -> int:
        """Sign of (self - q) for rational q, decided rigorously.

        Bracketing pi between PI_LO and PI_HI turns the comparison into two
        exact rational ones; an undecidable case (q inside the bracket
        interval) raises rather than guessing.
        """
        q = Fraction(q)
        if self.pi_power == 0:
            m = self.mantissa
            return (m > q) - (m < q)
        p = self.pi_power
        if p > 0:
            lo, hi = self.mantissa * PI_LO**p, self.mantissa * PI_HI**p
        else:
            lo, hi = self.mantissa / PI_HI ** (-p), self.mantissa / PI_LO ** (-p)
        if lo > hi:
            lo, hi = hi, lo
        if lo > q:
            return 1
        if hi < q:
            return -1
        raise BallRatioError(f"pi brackets cannot separate {self.symbolic()} from {q}")


_OMEGA: dict[int, ExactBallValue] = {}
_V: dict[int, ExactBallValue] = {}
_W: dict[int, ExactBallValue] = {}


def omega_exact(n: int) -> ExactBallValue:
    """Volume of the unit n-ball; n >= 0, with Omega_0 = 1."""
    if n < 0:
        raise DomainError(f"dimension must be >= 0, got {n}")
    val = _OMEGA.get(n)
    if val is None:
        k, odd = divmod(n, 2)
        _grow(k, k + 1)
        if odd:
            # 2^{2k+1} k!/(2k+1)! reduced: (2k+1)! = (2k+1)!! 2^k k!
            val = ExactBallValue(Fraction(2 ** (k + 1), _ODD[k + 1]), k)
        else:
            val = ExactBallValue(Fraction(1, _FACT[k]), k)
        _OMEGA[n] = val
    return val


def v_exact(n: int) -> ExactBallValue:
    """v_n = Omega_{n-1}/Omega_n; n >= 1."""
    if n < 1:
        raise DomainError(f"v_n needs n >= 1, got {n}")
    val = _V.get(n)
    if val is None:
        k, odd = divmod(n, 2)
        _grow(k, k + 1)
        if odd:
            val = ExactBallValue(Fraction(_ODD[k + 1], 2 ** (k + 1) * _FACT[k]), 0)
        else:
            val = ExactBallValue(Fraction(2**k * _FACT[k], _ODD[k]), -1)
        _V[n] = val
    return val


def w_exact(n: int) -> ExactBallValue:
    """w_n = v_{n+1}/v_n = Omega_n^2/(Omega_{n-1} Omega_{n+1}); n >= 1."""
    if n < 1:
        raise DomainError(f"w_n needs n >= 1, got {n}")
    val = _W.get(n)
    if val is None:
        num, den = v_exact(n + 1), v_exact(n)
        val = ExactBallValue(num.mantissa / den.mantissa, num.pi_power - den.pi_power)
        _W[n] = val
    return val


def v_product(n: int, ctrl: TruncationControl | None = None) -> float:
    """v_n via the joint-factor product at x = (n+1)/2, a = 1/2, over pi.

    Every factor exceeds 1, so truncation under-approximates v_n; in
    tolerance mode the shortfall is below eps in log scale.
    """
    if n < 1:
        raise DomainError(f"v_n needs n >= 1, got {n}")
    return joint_factor((n + 1) / 2.0, 0.5, ctrl) / math.pi


def _w_partial(n: int, m: int) -> float:
    # the w factors are the quotient of the joint factors at x + 1/2 and x
    x = (n + 1) / 2.0
    return float(mpmath.exp(mpmath.fsub(_log_partial(x + 0.5, 0.5, m),
                                        _log_partial(x, 0.5, m), exact=True)))


def w_product(n: int, ctrl: TruncationControl | None = None) -> float:
    """w_n via prod_{k>=1} (2k+n)^2/((2k+n)^2 - 1); partials increase to w_n.

    The dropped terms telescope exactly:
    sum_{k>m} 1/((2k+n)^2 - 1) = 1/(2(2m+n+1)), so tolerance mode picks the
    smallest m with that quantity below eps.
    """
    if n < 1:
        raise DomainError(f"w_n needs n >= 1, got {n}")
    if ctrl is None:
        ctrl = TruncationControl.tolerance()
    if ctrl.is_fixed:
        m = ctrl.m
    else:
        m = max(0, int((1.0 / (2.0 * ctrl.eps) - n - 1.0) / 2.0) + 1)
        if m > ctrl.max_terms:
            cap = ctrl.max_terms
            raise NonConvergenceError(
                f"w product at n={n} needs {m} factors for eps={ctrl.eps}",
                partial=_w_partial(n, cap),
                tail_bound=1.0 / (2.0 * (2.0 * cap + n + 1.0)),
                terms=cap,
            )
    return _w_partial(n, m)
