"""Verification sweeps, sharpness comparison, and report assembly.

Exact values are always the oracle side: bounds are compared against
v_exact/w_exact converted once to double. A verification sweep walks the
exact oracle once, taking the doubles and the Klein-Rota verdict from the
same pass (read off the double of w_n, exact only near a tie), and decides
sidedness in one generator: `verify_bounds` keeps one record per
(bound, n), while `verify_tally` streams per-bound counts and margins
without building any record. Sharpness comparisons between two bounds are
strict; when two doubles land within 1e-12 (relative) of each other the
comparison is re-done at 30 significant digits so that integer thresholds
cannot flip through rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .ballvol import MAX_DIMENSION, exact_ratios, v_exact, w_exact
from .bounds import BoundId, eval_bound, eval_bound_mp
from .errors import DomainError
from .gautschi import _dps, _log_partial

# sidedness slack: gap > -TIE_REL * scale counts as correct-sided, which
# admits the one documented exact-equality case without admitting real flips
TIE_REL = 1e-13

# |a - b| below this (relative) sends a sharpness comparison to mpmath
_RECHECK_REL = 1e-12


def exact_target(target: str, n: int) -> float:
    """Double image of v_n or w_n."""
    return (v_exact(n) if target == "v" else w_exact(n)).to_real()


@dataclass(frozen=True)
class EvaluationRecord:
    n: int
    bound: BoundId
    bound_value: float
    exact_value: float
    gap: float  # exact - bound for LOWER, bound - exact for UPPER; signed
    side_ok: bool


@dataclass(frozen=True)
class CrossoverResult:
    bound_a: BoundId
    bound_b: BoundId
    target: str
    sharper_set: frozenset[int]
    threshold: int | None


@dataclass(frozen=True)
class TableReport:
    target: str
    headers: list[str]
    rows: list[list]


@dataclass(frozen=True)
class BoundTally:
    checked: int
    ok: int
    # smallest gap / max(1, |exact|), the scale of the tie slack, and the
    # first n where it occurs; None when the bound was checked at no n
    min_margin: float | None
    argmin_n: int | None


@dataclass(frozen=True)
class VerifyTally:
    bounds: dict[BoundId, BoundTally]
    klein_rota_ok: bool


# to_real() of w_n is within 2^-50 relative of it (mantissa and product
# each rounded once, pi^p within a few ulps for |p| <= 4, 128 bits beyond).
# w_real * n < (n + 1) * _KLEIN_ROTA_SLACK, with each side rounded once
# more, then proves w_n < 1 + 1/n with about 2^-49 to spare.
_KLEIN_ROTA_SLACK = 1.0 - 2.0**-48


def _klein_rota_holds(n: int, w) -> bool:
    """Exact w_n < 1 + 1/n."""
    return w.compare_to_fraction(Fraction(n + 1, n)) == -1


def _klein_rota_from_double(n: int, w, w_real: float) -> bool:
    """_klein_rota_holds(n, w), decided from w_real = w.to_real() unless
    it lies within 2^-48 (relative) of 1 + 1/n. w_n sits about 1/(2n) below
    it, so the exact compare is left for a band that no n <= MAX_DIMENSION
    reaches."""
    return w_real * n < (n + 1) * _KLEIN_ROTA_SLACK or _klein_rota_holds(n, w)


def _oracle(n_max: int) -> tuple[dict[str, list[float]], bool]:
    """One exact walk to n_max: the doubles of v_n and w_n, indexed by n,
    and whether Klein-Rota's w_n < 1 + 1/n holds at every n."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    reals: dict[str, list[float]] = {"v": [0.0], "w": [0.0]}
    klein_ok = True
    for n, v, w in exact_ratios(n_max):
        w_real = w.to_real()
        reals["v"].append(v.to_real())
        reals["w"].append(w_real)
        klein_ok = klein_ok and _klein_rota_from_double(n, w, w_real)
    return reals, klein_ok


def _evaluate(bid: BoundId, exact: list[float]):
    """(n, bound, bound value, exact value, gap, side_ok) for n from the
    bound's min_n to the end of the oracle. Sidedness is decided here and
    nowhere else."""
    lower = bid.side == "lower"
    for n in range(bid.min_n, len(exact)):
        bv = eval_bound(bid, n)
        ev = exact[n]
        gap = ev - bv if lower else bv - ev
        yield n, bid, bv, ev, gap, gap > -TIE_REL * max(1.0, abs(ev))


def verify_bounds(ids: list[BoundId], n_max: int) -> list[EvaluationRecord]:
    """One record per (bound, n) with n from the bound's min_n up to n_max."""
    reals, _ = _oracle(n_max)
    return [EvaluationRecord(*r) for bid in ids for r in _evaluate(bid, reals[bid.target])]


def verify_tally(ids: list[BoundId], n_max: int) -> VerifyTally:
    """verify_bounds counted per bound, with each bound's smallest margin,
    and the Klein-Rota verdict from the same exact walk; no record is kept."""
    reals, klein_ok = _oracle(n_max)
    tallies: dict[BoundId, BoundTally] = {}
    for bid in ids:
        checked = ok_count = 0
        min_margin = argmin_n = None
        for n, _, _, ev, gap, ok in _evaluate(bid, reals[bid.target]):
            checked += 1
            ok_count += ok
            margin = gap / max(1.0, abs(ev))
            if argmin_n is None or margin < min_margin:
                min_margin, argmin_n = margin, n
        tallies[bid] = BoundTally(checked, ok_count, min_margin, argmin_n)
    return VerifyTally(tallies, klein_ok)


def _sharper_at(a: BoundId, b: BoundId, n: int, upper: bool) -> bool | None:
    """True if a is strictly sharper at n, False if b is, None on a tie."""
    va, vb = eval_bound(a, n), eval_bound(b, n)
    if abs(va - vb) < _RECHECK_REL * max(1.0, abs(va), abs(vb)):
        ma, mb = eval_bound_mp(a, n), eval_bound_mp(b, n)
        if ma == mb:
            return None
        return (ma < mb) if upper else (ma > mb)
    return (va < vb) if upper else (va > vb)


def crossover(a: BoundId, b: BoundId, n_max: int) -> CrossoverResult:
    """Set of n where a is strictly sharper than b, with interval threshold.

    Sharper means smaller for UPPER bounds, larger for LOWER bounds. The
    threshold field is populated only when the sharper set is a contiguous
    run of integers; its value is then the run's last element.
    """
    if a.target != b.target or a.side != b.side:
        raise ValueError(
            f"bounds {a.label()} and {b.label()} do not share side and target"
        )
    start = max(a.min_n, b.min_n)
    if not start <= n_max <= MAX_DIMENSION:
        raise DomainError(f"n_max must lie in [{start}, {MAX_DIMENSION}], got {n_max}")
    upper = a.side == "upper"
    sharper = [n for n in range(start, n_max + 1) if _sharper_at(a, b, n, upper)]
    threshold = None
    if sharper and sharper[-1] - sharper[0] + 1 == len(sharper):
        threshold = sharper[-1]
    return CrossoverResult(a, b, a.target, frozenset(sharper), threshold)


def _log_half_sqrt_pi(n: int, shift: int, m: int) -> mpmath.mpf:
    """log(sqrt(pi(2n+shift))/2) at the working precision of log P(m), where
    P(m), the product below, is the joint-factor partial f_m((n+1)/2, 1/2)."""
    with mpmath.workdps(_dps((n + 1) / 2.0, m)):
        return mpmath.log(mpmath.pi * (2 * n + shift)) / 2 - mpmath.log(2)


def product_overtake_index(n: int, r_max: int) -> int | None:
    """Least r with prod_{k=1}^r (2k/(2k-1))((2k+n-1)/(2k+n)) above
    sqrt(pi(2n+1))/2, bisecting over r <= r_max since partials increase;
    None when none does. A finite one exists, as (pi v_n)^2 > pi(2n+1)/4."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if r_max < 1:
        return None
    x = (n + 1) / 2.0
    target = _log_half_sqrt_pi(n, 1, r_max)
    if not _log_partial(x, 0.5, r_max) > target:
        return None
    lo, hi = 0, r_max  # P(lo) <= target < P(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_partial(x, 0.5, mid) > target:
            hi = mid
        else:
            lo = mid
    return hi


def partials_below_upper_cap(n: int, m_max: int) -> bool:
    """True iff every partial product up to m_max stays below
    sqrt(pi(2n+2))/2. Partials increase, so only the last one is checked."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m = max(m_max, 0)
    return _log_partial((n + 1) / 2.0, 0.5, m) < _log_half_sqrt_pi(n, 2, m)


def klein_rota_check(n_max: int) -> bool:
    """Exact check that w_n < 1 + 1/n for every n up to n_max."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    return all(_klein_rota_holds(n, w) for n, _, w in exact_ratios(n_max))


def make_table(
    target: str,
    ids: list[BoundId],
    n_list: list[int],
    partial: bool = False,
) -> TableReport:
    """Rows of (n, exact, bound values..., gaps...) in caller column order.

    Values are the eval_bound doubles, bit for bit. An n below some bound's
    validity raises, unless partial is set, in which case the offending
    cells hold None and the rest of the row is produced.
    """
    for bid in ids:
        if bid.target != target:
            raise ValueError(f"bound {bid.label()} does not target {target}")
    headers = ["n", "exact"]
    headers += [bid.label() for bid in ids]
    headers += [f"gap:{bid.label()}" for bid in ids]
    rows: list[list] = []
    for n in n_list:
        ev = exact_target(target, n)  # DomainError for n < 1 regardless of flag
        values: list[float | None] = []
        gaps: list[float | None] = []
        for bid in ids:
            if n < bid.min_n:
                if not partial:
                    raise DomainError(
                        f"bound {bid.label()} needs n >= {bid.min_n}, got {n}"
                    )
                values.append(None)
                gaps.append(None)
                continue
            bv = eval_bound(bid, n)
            values.append(bv)
            gaps.append(ev - bv if bid.side == "lower" else bv - ev)
        rows.append([n, ev, *values, *gaps])
    return TableReport(target, headers, rows)


def auxiliary_log_inequality(n: int) -> tuple[float, float, bool]:
    """(lhs, rhs, lhs <= rhs) for 1/(2(n-1)) vs log(4(n+1)^2/(pi n(n+2)))."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    lhs = 1.0 / (2.0 * (n - 1))
    rhs = math.log(4.0 * (n + 1) ** 2 / (math.pi * n * (n + 2)))
    return lhs, rhs, lhs <= rhs


def w_upper_refined_vs_51_margin(n: int) -> float:
    """log of upper-51 minus log of upper-refined:1, rearranged exactly.

    The difference collapses to u - log1p(u) with u = 1/((n+1)(n+3)), which
    is positive for every n >= 1 and numerically resolvable long after the
    two bound values themselves collide in double precision.
    """
    u = 1.0 / ((n + 1) * (n + 3))
    return u - math.log1p(u)


def w_lower_p_vs_443_margin(n: int) -> float:
    """log of lower-p minus log of lower-443: log1p(u) - 1/(n+2)^2 with
    u = 1/((n+1)(n+3)); positive, of order 1/(2(n+2)^4)."""
    u = 1.0 / ((n + 1) * (n + 3))
    return math.log1p(u) - 1.0 / (n + 2) ** 2


def w_upper_merkle_vs_alzer_margin(n: int) -> int:
    """Integer (n+1)^3 (n+3) - n(n+2)^3, positive iff Merkle's bound sits
    below Alzer's at n; the polynomial difference is exactly 2n+3."""
    return (n + 1) ** 3 * (n + 3) - n * (n + 2) ** 3
