"""Catalog of lower/upper bounds for v_n and w_n, evaluable at any valid n.

Every bound family gets a stable kebab-case token (the CLI contract), a
side, a target sequence, a minimum dimension, and an attribution string.
Parameterized families (product truncates and their exponential
refinements) additionally carry a truncation order m.

Evaluation keeps rational prefactors exact, as an integer numerator and
denominator built in one small-int loop, until a single correctly rounded
division; digamma/trigamma terms come from the closed forms in specfun,
arranged so that gamma and log-4 contributions cancel exactly where they
should.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .errors import DomainError
from .specfun import BETA, LOG4, digamma_diff, digamma_float_parts, trigamma_closed


class _Family(NamedTuple):
    target: str
    kind: str
    side: str
    parametric: bool
    min_n: int
    citation: str


_FAMILIES: tuple[_Family, ...] = (
    _Family("v", "lower-trunc", "lower", True, 1, "truncated product"),
    _Family("v", "lower-d", "lower", True, 1, "digamma-exponential refinement"),
    _Family("v", "lower-borgwardt", "lower", False, 1, "Borgwardt (1987)"),
    _Family("v", "lower-alzer", "lower", False, 1, "Alzer"),
    _Family("v", "upper-h", "upper", True, 1, "digamma-exponential upper bound"),
    _Family("v", "upper-alzer", "upper", False, 1, "Alzer"),
    _Family("v", "upper-borgwardt", "upper", False, 1, "Borgwardt (1987), shifted index"),
    _Family("w", "lower-trunc", "lower", True, 1, "truncated product"),
    _Family("w", "lower-trigamma", "lower", False, 1, "trigamma-exponential"),
    _Family("w", "lower-443", "lower", False, 1, "plain exponential lower bound"),
    _Family("w", "lower-p", "lower", False, 1, "product-exponential refinement"),
    _Family("w", "lower-classic", "lower", False, 1, "classical square-root bound"),
    _Family("w", "upper-51", "upper", False, 1, "exponential upper bound"),
    _Family("w", "upper-merkle", "upper", False, 1, "Merkle"),
    _Family("w", "upper-merkle-q", "upper", False, 2, "Merkle, quartic-root form"),
    _Family("w", "upper-alzer", "upper", False, 1, "Alzer"),
    _Family("w", "upper-refined", "upper", True, 1, "truncate times exponential tail cap"),
)

_BY_KEY: dict[tuple[str, str], _Family] = {(f.target, f.kind): f for f in _FAMILIES}


@dataclass(frozen=True)
class BoundId:
    """One evaluable bound: target sequence, family token, optional order m."""

    target: str
    kind: str
    m: int | None = None

    def __post_init__(self) -> None:
        fam = _BY_KEY.get((self.target, self.kind))
        if fam is None:
            raise ValueError(f"unknown bound family {self.target}:{self.kind}")
        if fam.parametric:
            if self.m is None or self.m < 1:
                raise ValueError(f"{self.kind} needs a truncation order m >= 1")
        elif self.m is not None:
            raise ValueError(f"{self.kind} takes no truncation order")

    @property
    def side(self) -> str:
        return _BY_KEY[(self.target, self.kind)].side

    @property
    def min_n(self) -> int:
        return _BY_KEY[(self.target, self.kind)].min_n

    def label(self) -> str:
        return self.kind if self.m is None else f"{self.kind}:{self.m}"


@dataclass(frozen=True)
class BoundSpec:
    id: BoundId
    side: str
    target: str
    min_n: int
    citation: str


def V_LOWER_TRUNC(m: int) -> BoundId:
    return BoundId("v", "lower-trunc", m)


def V_LOWER_D(m: int) -> BoundId:
    return BoundId("v", "lower-d", m)


V_LOWER_BORGWARDT = BoundId("v", "lower-borgwardt")
V_LOWER_ALZER = BoundId("v", "lower-alzer")


def V_UPPER_H(m: int) -> BoundId:
    return BoundId("v", "upper-h", m)


V_UPPER_ALZER = BoundId("v", "upper-alzer")
V_UPPER_BORGWARDT = BoundId("v", "upper-borgwardt")


def W_LOWER_TRUNC(m: int) -> BoundId:
    return BoundId("w", "lower-trunc", m)


W_LOWER_TRIGAMMA = BoundId("w", "lower-trigamma")
W_LOWER_443 = BoundId("w", "lower-443")
W_LOWER_P = BoundId("w", "lower-p")
W_LOWER_CLASSIC = BoundId("w", "lower-classic")
W_UPPER_51 = BoundId("w", "upper-51")
W_UPPER_MERKLE = BoundId("w", "upper-merkle")
W_UPPER_MERKLE_Q = BoundId("w", "upper-merkle-q")
W_UPPER_ALZER = BoundId("w", "upper-alzer")


def W_UPPER_REFINED(m: int) -> BoundId:
    return BoundId("w", "upper-refined", m)


def family_labels(target: str) -> tuple[str, ...]:
    """Valid label tokens for --ids help text; parametric ones shown as kind:m."""
    out = []
    for f in _FAMILIES:
        if f.target == target:
            out.append(f"{f.kind}:m" if f.parametric else f.kind)
    return tuple(out)


def parse_label(target: str, label: str) -> BoundId:
    """Parse a kebab token like "lower-d:1" or "upper-alzer" into a BoundId."""
    kind, sep, mtxt = label.strip().partition(":")
    m = None
    if sep:
        try:
            m = int(mtxt)
        except ValueError:
            raise ValueError(f"bad truncation order in bound id {label!r}") from None
    return BoundId(target, kind, m)


def catalog(m_values: tuple[int, ...] = (1, 2, 3)) -> list[BoundSpec]:
    """Every bound family, parametric ones enumerated over m_values."""
    specs: list[BoundSpec] = []
    for f in _FAMILIES:
        orders: tuple[int | None, ...] = m_values if f.parametric else (None,)
        for m in orders:
            specs.append(
                BoundSpec(
                    id=BoundId(f.target, f.kind, m),
                    side=f.side,
                    target=f.target,
                    min_n=f.min_n,
                    citation=f.citation,
                )
            )
    return specs


def _f_m(n: int, m: int) -> tuple[int, int]:
    # joint factor k(x+k-1)/((k-a)(k+x+a-1)) at x = (n+1)/2, a = 1/2
    p = q = 1
    for k in range(1, m + 1):
        p *= 2 * k * (n + 2 * k - 1)
        q *= (2 * k - 1) * (n + 2 * k)
    return p, q


def _sigma(n: int, m: int) -> tuple[int, int]:
    p, q = 0, 1
    for k in range(1, m + 1):
        d = k * (2 * k + n - 1)
        p, q = p * d + q, q * d
    return p, q


def _s(n: int, m: int) -> tuple[int, int]:
    p, q = 0, 1
    for k in range(0, m + 1):
        d = (2 * k - 1) * (2 * k + n)
        p, q = p * d + q, q * d
    return p, q


def _w_trunc(n: int, m: int) -> tuple[int, int]:
    p = q = 1
    for k in range(1, m + 1):
        t = 2 * k + n
        p *= t * t
        q *= t * t - 1
    return p, q


def _check_nm(n: int, m: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")


def sigma_m(n: int, m: int) -> Fraction:
    """sum_{k=1}^m 1/(k(2k+n-1)), exactly; m = 0 gives 0."""
    _check_nm(n, m)
    return Fraction(*_sigma(n, m))


def s_m(n: int, m: int) -> Fraction:
    """sum_{k=0}^m 1/((2k-1)(2k+n)), exactly; the k=0 term is -1/n."""
    _check_nm(n, m)
    return Fraction(*_s(n, m))


def f_m_exact(n: int, m: int) -> Fraction:
    """m-truncate of the joint factor at x = (n+1)/2, a = 1/2, as a Fraction."""
    if n < 0:
        raise DomainError(f"x = (n+1)/2 must be positive, got n = {n}")
    if m < 0:
        raise DomainError(f"truncation order must be >= 0, got {m}")
    return Fraction(*_f_m(n, m))


def w_trunc_exact(n: int, m: int) -> Fraction:
    """prod_{k=1}^m (2k+n)^2/((2k+n)^2 - 1), exactly. Meant for small m."""
    return Fraction(*_w_trunc(n, m))


def _ratio(pq: tuple[int, int]) -> float:
    # int true division is correctly rounded: the bits of float(Fraction(p, q))
    return pq[0] / pq[1]


def _v_lower_d(n: int, m: int) -> float:
    # bracket = (psi((n+1)/2) + gamma)/(n-1); its removable singularity at
    # n = 1 is patched with the exact limit psi'(1)/2 = pi^2/12
    if n == 1:
        bracket = math.pi * math.pi / 12.0
    else:
        rational, log4_count = digamma_float_parts(Fraction(n + 1, 2))
        bracket = (rational - log4_count * LOG4) / (n - 1)
    e = 0.5 * n * (bracket - _ratio(_sigma(n, m)))
    return _ratio(_f_m(n, m)) / math.pi * math.exp(e)


def _v_upper_h(n: int, m: int) -> float:
    # psi(n/2) - alpha = psi(n/2) - psi(3/2): gamma and log 4 cancel exactly,
    # so at n = 1 the difference is the integer -2
    diff = digamma_diff(Fraction(n, 2), Fraction(3, 2))
    e = n * (diff / (2.0 * (n + 1)) - _ratio(_s(n, m)))
    return _ratio(_f_m(n, m)) / math.pi * math.exp(e)


def eval_bound(bid: BoundId, n: int) -> float:
    """Double-precision value of the bound at dimension n."""
    if n < bid.min_n:
        raise DomainError(f"bound {bid.label()} needs n >= {bid.min_n}, got {n}")
    key = (bid.target, bid.kind)
    m = bid.m
    if key == ("v", "lower-trunc"):
        return _ratio(_f_m(n, m)) / math.pi
    if key == ("v", "lower-d"):
        return _v_lower_d(n, m)
    if key == ("v", "lower-borgwardt"):
        return math.sqrt(n / (2.0 * math.pi))
    if key == ("v", "lower-alzer"):
        return math.sqrt((n + 0.5) / (2.0 * math.pi))
    if key == ("v", "upper-h"):
        return _v_upper_h(n, m)
    if key == ("v", "upper-alzer"):
        return math.sqrt((n + BETA) / (2.0 * math.pi))
    if key == ("v", "upper-borgwardt"):
        return math.sqrt((n + 1) / (2.0 * math.pi))
    if key == ("w", "lower-trunc"):
        return _ratio(_w_trunc(n, m))
    if key == ("w", "lower-trigamma"):
        return math.exp(trigamma_closed(Fraction(n, 2)) / 4.0 - 1.0 / (n * n))
    if key == ("w", "lower-443"):
        return math.exp((n + 3) / (2.0 * (n + 2) ** 2))
    if key == ("w", "lower-p"):
        pre = (n + 2) ** 2 / ((n + 1) * (n + 3))
        return pre * math.exp((n + 1) / (2.0 * (n + 2) ** 2))
    if key == ("w", "lower-classic"):
        return math.sqrt(1.0 + 1.0 / (n + 1))
    if key == ("w", "upper-51"):
        return math.exp(0.5 / (n + 1))
    if key == ("w", "upper-merkle"):
        return (n + 2) ** 1.5 / ((n + 1) * math.sqrt(n + 3))
    if key == ("w", "upper-merkle-q"):
        return (1.0 + 2.0 / n) ** 0.25
    if key == ("w", "upper-alzer"):
        return math.sqrt(1.0 + 1.0 / n)
    if key == ("w", "upper-refined"):
        return _ratio(_w_trunc(n, m)) * math.exp(0.5 / (n + 2 * m + 1))
    raise ValueError(f"unhandled bound family {key}")  # unreachable


def _mpq(pq: tuple[int, int]):
    return mpmath.mpf(pq[0]) / pq[1]


def eval_bound_mp(bid: BoundId, n: int, dps: int = 30):
    """High-precision twin of eval_bound, for near-tie adjudication."""
    if n < bid.min_n:
        raise DomainError(f"bound {bid.label()} needs n >= {bid.min_n}, got {n}")
    key = (bid.target, bid.kind)
    m = bid.m
    with mpmath.workdps(dps):
        mp = mpmath
        N = mp.mpf(n)
        if key == ("v", "lower-trunc"):
            return _mpq(_f_m(n, m)) / mp.pi
        if key == ("v", "lower-d"):
            if n == 1:
                bracket = mp.pi**2 / 12
            else:
                bracket = (mp.digamma((N + 1) / 2) + mp.euler) / (N - 1)
            e = N / 2 * (bracket - _mpq(_sigma(n, m)))
            return _mpq(_f_m(n, m)) / mp.pi * mp.exp(e)
        if key == ("v", "lower-borgwardt"):
            return mp.sqrt(N / (2 * mp.pi))
        if key == ("v", "lower-alzer"):
            return mp.sqrt((N + mp.mpf(1) / 2) / (2 * mp.pi))
        if key == ("v", "upper-h"):
            alpha = mp.digamma(mp.mpf(3) / 2)
            e = N * ((mp.digamma(N / 2) - alpha) / (2 * (N + 1)) - _mpq(_s(n, m)))
            return _mpq(_f_m(n, m)) / mp.pi * mp.exp(e)
        if key == ("v", "upper-alzer"):
            return mp.sqrt((N + mp.pi / 2 - 1) / (2 * mp.pi))
        if key == ("v", "upper-borgwardt"):
            return mp.sqrt((N + 1) / (2 * mp.pi))
        if key == ("w", "lower-trunc"):
            return _mpq(_w_trunc(n, m))
        if key == ("w", "lower-trigamma"):
            return mp.exp(mp.polygamma(1, N / 2) / 4 - 1 / N**2)
        if key == ("w", "lower-443"):
            return mp.exp((N + 3) / (2 * (N + 2) ** 2))
        if key == ("w", "lower-p"):
            pre = mp.mpf((n + 2) ** 2) / ((n + 1) * (n + 3))
            return pre * mp.exp((N + 1) / (2 * (N + 2) ** 2))
        if key == ("w", "lower-classic"):
            return mp.sqrt(1 + 1 / (N + 1))
        if key == ("w", "upper-51"):
            return mp.exp(mp.mpf(1) / (2 * (N + 1)))
        if key == ("w", "upper-merkle"):
            return (N + 2) ** (mp.mpf(3) / 2) / ((N + 1) * mp.sqrt(N + 3))
        if key == ("w", "upper-merkle-q"):
            return (1 + 2 / N) ** (mp.mpf(1) / 4)
        if key == ("w", "upper-alzer"):
            return mp.sqrt(1 + 1 / N)
        if key == ("w", "upper-refined"):
            return _mpq(_w_trunc(n, m)) * mp.exp(mp.mpf(1) / (2 * (N + 2 * m + 1)))
    raise ValueError(f"unhandled bound family {key}")  # unreachable
