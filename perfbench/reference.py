"""Values the benchmark works out apart from ballratio.

Everything here comes from the definitions, not from the program: v_n and
w_n from log-gamma at 50 digits, Omega_n as an exact rational times pi^k
from math.factorial, every catalog bound family written out from its
formula, and the closed forms of the infinite products. Nothing in this
module imports ballratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

MP = mpmath.MPContext()
MP.dps = 50

# A relative difference below this counts as an exact tie at 50 digits.
TIE = MP.mpf(10) ** -40

# (target, label, side, min_n) in the order `ballratio verify` prints rows.
CATALOG: tuple[tuple[str, str, str, int], ...] = (
    *(("v", f"lower-trunc:{m}", "lower", 1) for m in (1, 2, 3)),
    *(("v", f"lower-d:{m}", "lower", 1) for m in (1, 2, 3)),
    ("v", "lower-borgwardt", "lower", 1),
    ("v", "lower-alzer", "lower", 1),
    *(("v", f"upper-h:{m}", "upper", 1) for m in (1, 2, 3)),
    ("v", "upper-alzer", "upper", 1),
    ("v", "upper-borgwardt", "upper", 1),
    *(("w", f"lower-trunc:{m}", "lower", 1) for m in (1, 2, 3)),
    ("w", "lower-trigamma", "lower", 1),
    ("w", "lower-443", "lower", 1),
    ("w", "lower-p", "lower", 1),
    ("w", "lower-classic", "lower", 1),
    ("w", "upper-51", "upper", 1),
    ("w", "upper-merkle", "upper", 1),
    ("w", "upper-merkle-q", "upper", 2),
    ("w", "upper-alzer", "upper", 1),
    *(("w", f"upper-refined:{m}", "upper", 1) for m in (1, 2, 3)),
)

_FAMILY = {(t, label): (side, min_n) for t, label, side, min_n in CATALOG}


def side(target: str, label: str) -> str:
    return _FAMILY[(target, label)][0]


def min_n(target: str, label: str) -> int:
    return _FAMILY[(target, label)][1]


def labels(target: str) -> list[str]:
    return [label for t, label, _, _ in CATALOG if t == target]


def record_count(n_max: int) -> int:
    """Number of (bound, n) pairs a full-catalog sweep up to n_max holds."""
    return sum(max(0, n_max - lo + 1) for _, _, _, lo in CATALOG)


def omega_exact(n: int) -> tuple[Fraction, int]:
    """Omega_n = rational * pi^k: pi^k/k! for n = 2k, and
    2^(2k+1) k! pi^k/(2k+1)! for n = 2k+1."""
    k, odd = divmod(n, 2)
    if odd:
        return Fraction(2 ** (2 * k + 1) * math.factorial(k), math.factorial(2 * k + 1)), k
    return Fraction(1, math.factorial(k)), k


def omega(n: int):
    q, k = omega_exact(n)
    return MP.mpf(q.numerator) / q.denominator * MP.pi**k


@lru_cache(maxsize=None)
def v(n: int):
    """v_n = Gamma(n/2+1)/(sqrt(pi) Gamma((n+1)/2))."""
    half = MP.mpf(n) / 2
    return MP.exp(MP.loggamma(half + 1) - MP.loggamma(half + MP.mpf(1) / 2)) / MP.sqrt(MP.pi)


def w(n: int):
    return v(n + 1) / v(n)


def exact(target: str, n: int):
    return v(n) if target == "v" else w(n)


def _joint_factor_partial(n: int, m: int):
    # f_m at x = (n+1)/2, a = 1/2: prod 2k(2k+n-1)/((2k-1)(2k+n))
    out = MP.mpf(1)
    for k in range(1, m + 1):
        out *= MP.mpf(2 * k * (2 * k + n - 1)) / ((2 * k - 1) * (2 * k + n))
    return out


def _w_partial(n: int, m: int):
    out = MP.mpf(1)
    for k in range(1, m + 1):
        t = MP.mpf(2 * k + n)
        out *= t * t / (t * t - 1)
    return out


@lru_cache(maxsize=None)
def bound(target: str, label: str, n: int):
    """The catalog bound `label` on v_n or w_n, from its defining formula."""
    kind, _, mtxt = label.partition(":")
    m = int(mtxt) if mtxt else 0
    N, pi = MP.mpf(n), MP.pi
    if target == "v":
        if kind == "lower-trunc":
            return _joint_factor_partial(n, m) / pi
        if kind == "lower-d":
            if n == 1:
                bracket = pi**2 / 12
            else:
                bracket = (MP.digamma((N + 1) / 2) + MP.euler) / (N - 1)
            sigma = MP.fsum(MP.mpf(1) / (k * (2 * k + n - 1)) for k in range(1, m + 1))
            return _joint_factor_partial(n, m) / pi * MP.exp(N / 2 * (bracket - sigma))
        if kind == "lower-borgwardt":
            return MP.sqrt(N / (2 * pi))
        if kind == "lower-alzer":
            return MP.sqrt((N + MP.mpf(1) / 2) / (2 * pi))
        if kind == "upper-h":
            s = MP.fsum(MP.mpf(1) / ((2 * k - 1) * (2 * k + n)) for k in range(0, m + 1))
            diff = MP.digamma(N / 2) - MP.digamma(MP.mpf(3) / 2)
            return _joint_factor_partial(n, m) / pi * MP.exp(N * (diff / (2 * (N + 1)) - s))
        if kind == "upper-alzer":
            return MP.sqrt((N + pi / 2 - 1) / (2 * pi))
        if kind == "upper-borgwardt":
            return MP.sqrt((N + 1) / (2 * pi))
    else:
        if kind == "lower-trunc":
            return _w_partial(n, m)
        if kind == "lower-trigamma":
            return MP.exp(MP.polygamma(1, N / 2) / 4 - 1 / N**2)
        if kind == "lower-443":
            return MP.exp((N + 3) / (2 * (N + 2) ** 2))
        if kind == "lower-p":
            return (N + 2) ** 2 / ((N + 1) * (N + 3)) * MP.exp((N + 1) / (2 * (N + 2) ** 2))
        if kind == "lower-classic":
            return MP.sqrt(1 + 1 / (N + 1))
        if kind == "upper-51":
            return MP.exp(1 / (2 * (N + 1)))
        if kind == "upper-merkle":
            return (N + 2) ** MP.mpf(1.5) / ((N + 1) * MP.sqrt(N + 3))
        if kind == "upper-merkle-q":
            return (1 + 2 / N) ** MP.mpf(0.25)
        if kind == "upper-alzer":
            return MP.sqrt(1 + 1 / N)
        if kind == "upper-refined":
            return _w_partial(n, m) * MP.exp(1 / (2 * (N + 2 * m + 1)))
    raise KeyError(f"no reference formula for {target}:{label}")


def side_ok(target: str, label: str, n: int) -> bool:
    """True when the bound lies on its side of the exact value (ties count)."""
    ex = exact(target, n)
    gap = ex - bound(target, label, n) if side(target, label) == "lower" else bound(target, label, n) - ex
    return gap > -TIE * ex


def sharper(target: str, a: str, b: str, n: int) -> bool:
    """True when bound a is strictly sharper than bound b at n."""
    va, vb = bound(target, a, n), bound(target, b, n)
    if abs(va - vb) <= TIE * abs(va):
        return False
    return va < vb if side(target, a) == "upper" else va > vb


def sharper_set(target: str, a: str, b: str, n_max: int) -> frozenset[int]:
    start = max(min_n(target, a), min_n(target, b))
    return frozenset(n for n in range(start, n_max + 1) if sharper(target, a, b, n))


# -- infinite products -----------------------------------------------------


def log_overtake_partial(n: int, r: int):
    """log prod_{k=1}^r (2k/(2k-1))((2k+n-1)/(2k+n)), in closed form:
    Gamma(r+1)Gamma(1/2)/Gamma(r+1/2) * Gamma(r+(n+1)/2)Gamma(n/2+1)
    / (Gamma((n+1)/2)Gamma(r+n/2+1))."""
    lg, half, N, R = MP.loggamma, MP.mpf(1) / 2, MP.mpf(n), MP.mpf(r)
    return (lg(R + 1) + lg(half) - lg(R + half)
            + lg(R + (N + 1) / 2) + lg(N / 2 + 1) - lg((N + 1) / 2) - lg(R + N / 2 + 1))


def log_overtake_target(n: int):
    return MP.log(MP.sqrt(MP.pi * (2 * n + 1)) / 2)


def log_upper_cap(n: int):
    return MP.log(MP.sqrt(MP.pi * (2 * n + 2)) / 2)


def log_joint_factor(x: float, a: float):
    """log f(x, a) = log(Gamma(x+a) Gamma(1-a) / Gamma(x))."""
    X, A = MP.mpf(x), MP.mpf(a)
    return MP.loggamma(X + A) + MP.loggamma(1 - A) - MP.loggamma(X)


def log_gamma_ratio(x: float, a: float):
    """log(Gamma(x+a)/Gamma(x))."""
    X, A = MP.mpf(x), MP.mpf(a)
    return MP.loggamma(X + A) - MP.loggamma(X)


def joint_factor_tail(x: float, a: float, m: int):
    """Integral tail bound |c/(a+b)| log((m+b)/(m-a)), c = a b, b = x+a-1,
    on the log-gap of the m-term partial of f(x, a)."""
    A = MP.mpf(a)
    B = MP.mpf(x) + A - 1
    if A + B == 0:
        return abs(A * B) / (m - A)
    return abs(A * B / (A + B) * MP.log((m + B) / (m - A)))


def digamma_shifted(x: float):
    """psi(x+1)."""
    return MP.digamma(MP.mpf(x) + 1)
