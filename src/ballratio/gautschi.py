"""Gamma-quotient evaluation through its joint-factor infinite product.

The quotient Gamma(x+a)/Gamma(x) equals f(x,a)/Gamma(1-a), where

    f(x, a) = prod_{k=1}^inf  k(x+k-1) / ((k-a)(k+x+a-1))

Each factor equals 1 + c/((k-a)(k+x+a-1)) with c = a(x+a-1), so the
product converges like O(1/m): slow, which is why exact needs route
through ballvol instead of through tighter tolerances here. Each partial
product is a quotient of gamma functions, so its log is evaluated in closed
form from loggamma (DLMF 5.11) at any m; tails are certified by an integral
comparison bound, which tolerance mode inverts in closed form to guess the
least m that meets eps; the bound itself checks the guess.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath

from .errors import DomainError, NonConvergenceError
from .truncation import TruncationControl

SQRT_PI = math.sqrt(math.pi)
_LARGEST_INT = int(sys.float_info.max)


@dataclass(frozen=True)
class ProductResult:
    """Adaptive product outcome: value, terms consumed, certified tail bound.

    tail_bound always dominates |log f - log f_m| for the returned m.
    """

    value: float
    terms_used: int
    tail_bound: float


def _double(value, name: str) -> float:
    """float(value), raising DomainError where a double cannot hold it."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is beyond the range of a double") from None


def _least(pred, lo: int, hi: int, guess: tuple[int, int]) -> int | None:
    """Least r in (lo, hi] with pred(r), or None if pred(hi) is false, for pred
    false then true on (lo, hi]; pred is never called at lo. guess = (g, h)
    claims pred(h) is true and pred(g - 1) false; a claim that fails is retried
    in doubling steps away from the guess, so a guess off by k costs about
    log2(k) calls. What is left is bisected."""
    found, probe, step = False, guess[1], 1
    while not found and lo < probe <= hi:
        if pred(probe):
            hi, found = probe, True
        else:
            lo, probe, step = probe, probe + step, 2 * step
    probe, step = guess[0] - 1, 1
    while lo < probe < hi:
        if pred(probe):
            hi, found, probe, step = probe, True, probe - step, 2 * step
        else:
            lo = probe
    if not (found or lo < hi and pred(hi)):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def _cutoff(ctrl: TruncationControl | None, tail, guess, partial, what: str,
            least: int = 1) -> int:
    """The term count ctrl asks for (None: the default tolerance): ctrl.m in
    fixed mode, else the least m >= least with tail(m) < eps, for tail
    decreasing in m. guess(eps) claims that m (max_terms if it cannot be
    computed); a wrong claim costs a few more tail calls. A budget past the
    largest double is taken at that double, cap, where the bound still
    holds. If tail misses eps at cap, so does every m: NonConvergenceError
    carries terms=cap, tail(cap) and partial(cap), and its message is what
    with cap in place of {}."""
    if ctrl is None:
        ctrl = TruncationControl.tolerance()
    if ctrl.is_fixed:
        return ctrl.m
    eps, cap = ctrl.eps, min(ctrl.max_terms, _LARGEST_INT)
    bound = tail(cap)
    if not bound < eps:
        raise NonConvergenceError(what.format(cap) + f" for eps={eps}", partial=partial(cap),
                                  tail_bound=bound, terms=cap)
    try:
        g = guess(eps)
    except (OverflowError, ValueError, ZeroDivisionError):
        g = cap
    g = min(max(g, least), cap)
    return _least(lambda m: tail(m) < eps, least - 1, cap, (g, g))


def _validate(x, a) -> tuple[float, float]:
    xf, af = _double(x, "x"), _double(a, "a")
    if not 0.0 < xf < math.inf:
        raise DomainError(f"x must be positive and finite, got {x!r}")
    if not af < 1.0:
        raise DomainError(f"a must be below 1, got {a!r}")
    if not xf + af > 0.0:
        # the k=1 factor has the sign of x+a; positivity of every factor
        # requires x+a > 0 (this also rules out the nonpositive-integer poles)
        raise DomainError(f"x + a must be positive, got x={x!r}, a={a!r}")
    return xf, af


def joint_factor_truncate(x, a, m: int):
    """Partial product f_m(x,a) of the first m factors; m = 0 gives 1.

    Arithmetic follows the argument types: Fraction arguments produce the
    exact rational partial product, floats produce a float.
    """
    _validate(x, a)
    if m < 0:
        raise DomainError(f"truncation order must be >= 0, got {m}")
    result = 1
    for k in range(1, m + 1):
        result = result * (k * (x + k - 1)) / ((k - a) * (k + x + a - 1))
    return result


def _dps(x: float, m: int) -> int:
    """Working digits for log f_m: double precision and guard digits, plus the
    ~log10((m+x) log(m+x)) digits lost where the loggamma terms cancel."""
    try:
        t = m + x + 3.0
        return 20 + math.ceil(math.log10(t) + math.log10(math.log(t)))  # t log t may overflow
    except OverflowError:
        raise DomainError("truncation order m + x is beyond the range of a double") from None


def _log_partial(x: float, a: float, m: int) -> mpmath.mpf:
    """log f_m(x,a), m >= 0, in loggamma, at _dps(x, m) digits or the caller's
    working digits where those are more; the v, w, overtake and upper-cap
    partial products are all computed here."""
    lg = mpmath.loggamma
    with mpmath.workdps(max(_dps(x, m), mpmath.mp.dps)):
        x, a = mpmath.mpf(x), mpmath.mpf(a)
        return (lg(m + 1) + lg(x + m) - lg(x) - lg(m + 1 - a) + lg(1 - a)
                - lg(m + x + a) + lg(x + a))


def _tail_bound(xf: float, af: float, m: int) -> float:
    """Upper bound on |sum_{k>m} (term_k - 1)| >= |log f - log f_m|.

    Integral comparison: the summand is |c|/((k-a)(k+b)), decreasing in k,
    so the tail is below the integral from m, which evaluates to
    (|c|/(a+b)) log1p((a+b)/(m-a)), free of cancellation at large m; the
    degenerate a+b = 0 case collapses to |c|/(m-a).
    """
    c = af * (xf + af - 1.0)
    if c == 0.0:
        return 0.0
    b = xf + af - 1.0
    denom = af + b
    room = m - af
    if denom == 0.0:
        return abs(c) / room
    return abs(c / denom * math.log1p(denom / room))


def joint_factor_result(x, a, ctrl: TruncationControl | None = None) -> ProductResult:
    """Evaluate f(x,a) under the given truncation policy, with diagnostics."""
    xf, af = _validate(x, a)
    c = af * (xf + af - 1.0)
    if ctrl is None or not ctrl.is_fixed:
        if c == 0.0:
            # x = 1 - a (or a = 0): every factor is exactly 1
            return ProductResult(value=1.0, terms_used=0, tail_bound=0.0)
        if c < 0.0:
            raise DomainError("tolerance mode needs factors >= 1, i.e. a(x+a-1) >= 0; "
                              f"got x={x!r}, a={a!r}")
    # (c/s) log1p(s/(m-a)) < eps, with s = 2a+x-1 of c's sign, solves to
    # m > a + s/expm1(eps s/c)
    s = 2.0 * af + xf - 1.0
    m = _cutoff(ctrl, lambda k: _tail_bound(xf, af, k),
                lambda eps: math.floor(af + s / math.expm1(eps * s / c)) + 1,
                lambda k: float(mpmath.exp(_log_partial(xf, af, k))),
                f"joint factor at x={xf}, a={af} needs over {{}} factors")
    return ProductResult(value=float(mpmath.exp(_log_partial(xf, af, m))), terms_used=m,
                         tail_bound=_tail_bound(xf, af, m))


def joint_factor(x, a, ctrl: TruncationControl | None = None) -> float:
    return joint_factor_result(x, a, ctrl).value


def gautschi_ratio(
    x,
    a,
    ctrl: TruncationControl | None = None,
    gamma_one_minus_a: float | None = None,
) -> float:
    """Gamma(x+a)/Gamma(x) = f(x,a)/Gamma(1-a).

    Gamma(1-a) is known in closed form for a = 1/2 (sqrt(pi)) and a = 0
    (1); for any other a the caller must supply it.
    """
    _validate(x, a)
    if gamma_one_minus_a is not None:
        denom = float(gamma_one_minus_a)
    elif a == 0.5:
        denom = SQRT_PI
    elif a == 0:
        denom = 1.0
    else:
        raise DomainError(
            f"Gamma(1-a) is not built in for a={a!r}; pass gamma_one_minus_a"
        )
    return joint_factor(x, a, ctrl) / denom
