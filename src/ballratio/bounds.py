"""Catalog of lower/upper bounds for v_n and w_n, evaluable at any valid n.

Every bound family gets a stable kebab-case token (the CLI contract), a
side, a target sequence, a minimum dimension, an attribution string, and
its formula. Parameterized families (product truncates and their
exponential refinements) additionally carry a truncation order m.

Each formula is written once, as a function (B, N, n, m) of a backend B,
the dimension as the backend's number N and as the int n, and the order m.
Rational prefactors are integer pairs (numerator, denominator), built in
one small-int loop; digamma and trigamma are taken at half-integers x,
each given as the int t = 2x. Two backends run the formulas:

- FLOAT (eval_bound): doubles. Each pair is rounded by a single correctly
  rounded division, and psi/psi' come from specfun's t-keyed closed forms,
  128-bit fixed-point integers rounded once, arranged so that gamma and
  log-4 contributions cancel exactly where they should.
- MP (eval_bound_mp): mpmath at 30 digits, for near-tie adjudication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

import mpmath

from .errors import DomainError
from .specfun import _psi_diff, _trigamma

_MP_DPS = 30  # digits of eval_bound_mp


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


# psi(x) + gamma, psi(u) - psi(v) and psi'(x), each half-integer given as
# the int t = 2x; psi(1) = -gamma, with a rational part of 0
FLOAT = SimpleNamespace(
    pi=math.pi,
    sqrt=math.sqrt,
    exp=math.exp,
    ratio=lambda pq: pq[0] / pq[1],  # int true division rounds once, correctly
    psi_gamma=lambda t: _psi_diff(t, 2),
    psi_diff=_psi_diff,
    trigamma=_trigamma,
)

MP = SimpleNamespace(
    pi=mpmath.pi,
    sqrt=mpmath.sqrt,
    exp=mpmath.exp,
    ratio=lambda pq: mpmath.mpf(pq[0]) / pq[1],
    psi_gamma=lambda t: mpmath.digamma(mpmath.mpf(t) / 2) + mpmath.euler,
    psi_diff=lambda tu, tv: (mpmath.digamma(mpmath.mpf(tu) / 2)
                             - mpmath.digamma(mpmath.mpf(tv) / 2)),
    trigamma=lambda t: mpmath.polygamma(1, mpmath.mpf(t) / 2),
)


class _Family(NamedTuple):
    target: str
    kind: str
    side: str
    parametric: bool
    min_n: int
    citation: str
    formula: Callable  # (B, N, n, m) -> the bound's value in backend B


_FAMILIES: tuple[_Family, ...] = (
    _Family("v", "lower-trunc", "lower", True, 1, "truncated product",
            lambda B, N, n, m: B.ratio(_f_m(n, m)) / B.pi),
    # (psi((n+1)/2) + gamma)/(n-1) has a removable singularity at n = 1,
    # patched with the exact limit psi'(1)/2 = pi^2/12
    _Family("v", "lower-d", "lower", True, 1, "digamma-exponential refinement",
            lambda B, N, n, m: B.ratio(_f_m(n, m)) / B.pi * B.exp(N / 2 * (
                (B.pi * B.pi / 12 if n == 1 else B.psi_gamma(n + 1) / (N - 1))
                - B.ratio(_sigma(n, m))))),
    _Family("v", "lower-borgwardt", "lower", False, 1, "Borgwardt (1987)",
            lambda B, N, n, m: B.sqrt(N / (2 * B.pi))),
    _Family("v", "lower-alzer", "lower", False, 1, "Alzer",
            lambda B, N, n, m: B.sqrt((N + 0.5) / (2 * B.pi))),
    # psi(n/2) - alpha = psi(n/2) - psi(3/2): gamma and log 4 cancel exactly,
    # so at n = 1 the difference is the integer -2
    _Family("v", "upper-h", "upper", True, 1, "digamma-exponential upper bound",
            lambda B, N, n, m: B.ratio(_f_m(n, m)) / B.pi * B.exp(N * (
                B.psi_diff(n, 3) / (2 * (N + 1)) - B.ratio(_s(n, m))))),
    _Family("v", "upper-alzer", "upper", False, 1, "Alzer",
            lambda B, N, n, m: B.sqrt((N + (B.pi / 2 - 1)) / (2 * B.pi))),
    _Family("v", "upper-borgwardt", "upper", False, 1, "Borgwardt (1987), shifted index",
            lambda B, N, n, m: B.sqrt((N + 1) / (2 * B.pi))),
    _Family("w", "lower-trunc", "lower", True, 1, "truncated product",
            lambda B, N, n, m: B.ratio(_w_trunc(n, m))),
    _Family("w", "lower-trigamma", "lower", False, 1, "trigamma-exponential",
            lambda B, N, n, m: B.exp(B.trigamma(n) / 4 - 1 / (N * N))),
    _Family("w", "lower-443", "lower", False, 1, "plain exponential lower bound",
            lambda B, N, n, m: B.exp((N + 3) / (2 * (N + 2) * (N + 2)))),
    _Family("w", "lower-p", "lower", False, 1, "product-exponential refinement",
            lambda B, N, n, m: B.ratio(((n + 2) ** 2, (n + 1) * (n + 3)))
            * B.exp((N + 1) / (2 * (N + 2) * (N + 2)))),
    _Family("w", "lower-classic", "lower", False, 1, "classical square-root bound",
            lambda B, N, n, m: B.sqrt(1 + 1 / (N + 1))),
    _Family("w", "upper-51", "upper", False, 1, "exponential upper bound",
            lambda B, N, n, m: B.exp(1 / (2 * (N + 1)))),
    _Family("w", "upper-merkle", "upper", False, 1, "Merkle",
            lambda B, N, n, m: (N + 2) ** 1.5 / ((N + 1) * B.sqrt(N + 3))),
    _Family("w", "upper-merkle-q", "upper", False, 2, "Merkle, quartic-root form",
            lambda B, N, n, m: (1 + 2 / N) ** 0.25),
    _Family("w", "upper-alzer", "upper", False, 1, "Alzer",
            lambda B, N, n, m: B.sqrt(1 + 1 / N)),
    _Family("w", "upper-refined", "upper", True, 1, "truncate times exponential tail cap",
            lambda B, N, n, m: B.ratio(_w_trunc(n, m)) * B.exp(1 / (2 * (N + 2 * m + 1)))),
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
    _check_nm(n, m)
    return Fraction(*_w_trunc(n, m))


def _family(bid: BoundId, n: int) -> _Family:
    fam = _BY_KEY[(bid.target, bid.kind)]
    if n < fam.min_n:
        raise DomainError(f"bound {bid.label()} needs n >= {fam.min_n}, got {n}")
    return fam


def eval_bound(bid: BoundId, n: int) -> float:
    """Double-precision value of the bound at dimension n."""
    return _family(bid, n).formula(FLOAT, float(n), n, bid.m)


def eval_bound_mp(bid: BoundId, n: int):
    """The bound's formula in mpmath at 30 digits, for near-tie adjudication."""
    fam = _family(bid, n)
    with mpmath.workdps(_MP_DPS):
        return fam.formula(MP, mpmath.mpf(n), n, bid.m)
