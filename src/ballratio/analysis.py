"""Verification sweeps, sharpness comparison, and report assembly.

Exact values are always the oracle side: bounds are compared against
the doubles ExactBallValue.to_real gives for v_exact/w_exact. Those round
the mantissa once and then multiply by math.pi**p, a second rounding, so
for p != 0 they are not always correctly rounded (up to 2 ulp off for v
and 1 ulp for w at n <= MAX_DIMENSION). A verification sweep reads them
from one pass of ballvol.ratio_walk, which also decides Klein-Rota's
w_n < 1 + 1/n at every n from its w double, outside a guard of a few ulp
(ballvol._klein_rota_holds); klein_rota_check reads the same walk. Beside
it the sweep reads bounds._pass, the catalog's one block loop, which
gives every bound as one column per block of n, each made by one list
comprehension compiled from the bound's formula; one generator decides
sidedness column by column, with the tie column taken once per block and
target. A column whose smallest margin is positive is "ok" throughout with
no comparison and is counted by its length (at n <= 5000 every column but
v:upper-alzer's first, the exact tie at n = 1), and the decisions'
elementwise work runs in map, min and sum, not in a Python loop per
(bound, n).
`verify_bounds` keeps one record per (bound, n), bound by bound, while
`verify_tally` streams per-bound counts and margins without building any
record. `crossover` reads the same pass's columns, and `make_table` reads
them per n through bounds._rows, and the oracle through _exact, which walks
a dense list by the kernels' rule (ballvol._walks).
Sharpness comparisons between two bounds are strict; when two doubles
land within 1e-12 (relative) of each other the comparison is re-done at
30 significant digits so that integer thresholds cannot flip through
rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice, repeat

from .ballvol import MAX_DIMENSION, _check_dimension, _walks, ratio_walk, v_exact, w_exact
from .bounds import BoundId, _pass, _rows, eval_bound_mp
from .errors import DomainError

# sidedness slack: gap > -TIE_REL * scale counts as correct-sided, which
# admits the one documented exact-equality case without admitting real flips
TIE_REL = 1e-13

# |a - b| below this (relative) sends a sharpness comparison to mpmath
_RECHECK_REL = 1e-12


def exact_target(target: str, n: int) -> float:
    """Double image of v_n or w_n."""
    return (v_exact(n) if target == "v" else w_exact(n)).to_real()


def _exact(target: str, ns: list[int]) -> list[float]:
    """exact_target at each n of ns, which ascend and are distinct: from one
    ratio_walk to the last n where ballvol._walks(ns) says so, else at each n."""
    if not _walks(ns):
        return [exact_target(target, n) for n in ns]
    at, k = set(ns), 1 if target == "v" else 2
    return [row[k] for row in ratio_walk(ns[-1]) if row[0] in at]


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


def _evaluate(ids: list[BoundId], n_max: int):
    """For each block of n from 1 to n_max, from ratio_walk and _pass:
    whether Klein-Rota's w_n < 1 + 1/n holds at every n of the block, and, for
    each bound of ids, (index into ids, first n valid in the block, bound
    values, exact values, gaps, margins, the smallest margin, side_ok),
    margin being gap / max(1, |exact|), from the bound's min_n or the block's
    first n, whichever is later; inf is the smallest of no margin. side_ok is
    an iterator, to be read once. Sidedness is decided here alone: a block
    whose smallest margin is > 0 is "ok" throughout, and only in the others
    is each gap compared with its tie, -TIE_REL max(1, |exact|), which is
    taken once per block and target."""
    lower = [bid.side == "lower" for bid in ids]
    targets = [bid.target for bid in ids]
    min_ns = [bid.min_n for bid in ids]

    def decided(ns, exact, scales, ties, columns):  # one block's, whenever they are read
        for i, bv in columns:
            t = targets[i]
            ev, scale, tie = exact[t], scales[t], ties[t]
            skip = max(min_ns[i] - ns[0], 0)  # the n below the bound's min_n lead the block
            if skip:
                bv, ev, scale, tie = bv[skip:], ev[skip:], scale[skip:], tie[skip:]
            gaps = list(map(operator.sub, ev, bv) if lower[i] else map(operator.sub, bv, ev))
            margins = list(map(operator.truediv, gaps, scale))
            low = min(margins, default=math.inf)
            # a margin > 0 is a gap > 0 > tie, as scale >= 1: all "ok", with no comparison
            ok = repeat(True, len(gaps)) if low > 0 else map(operator.gt, gaps, tie)
            yield i, ns[0] + skip, bv, ev, gaps, margins, low, ok
    walk = ratio_walk(n_max)  # checks n_max first: an empty range would give no block
    for ns, columns in _pass(ids, range(1, n_max + 1)):
        _, v, w, klein = zip(*islice(walk, len(ns)))
        exact = {"v": v, "w": w}
        scales = {t: list(map(max, repeat(1.0), map(abs, ev))) for t, ev in exact.items()}
        ties = {t: list(map(operator.mul, repeat(-TIE_REL), scale))
                for t, scale in scales.items()}
        yield all(klein), decided(ns, exact, scales, ties, columns)


def verify_bounds(ids: list[BoundId], n_max: int) -> list[EvaluationRecord]:
    """One record per (bound, n) with n from the bound's min_n up to n_max,
    bound by bound in ids order."""
    records: list[list[EvaluationRecord]] = [[] for _ in ids]
    for _, bounds in _evaluate(ids, n_max):
        for i, first, bv, ev, gaps, _, _, ok in bounds:
            records[i] += map(EvaluationRecord, range(first, first + len(bv)),
                              repeat(ids[i]), bv, ev, gaps, ok)
    return [r for per_bound in records for r in per_bound]


def verify_tally(ids: list[BoundId], n_max: int) -> VerifyTally:
    """verify_bounds counted per bound, with each bound's smallest margin,
    and the Klein-Rota verdict from the same exact walk; no record is kept."""
    checked = [0] * len(ids)
    ok_count = [0] * len(ids)
    min_margin: list[float | None] = [None] * len(ids)
    argmin_n: list[int | None] = [None] * len(ids)
    klein_ok = True
    for klein, bounds in _evaluate(ids, n_max):
        klein_ok = klein_ok and klein
        for i, first, bv, _, _, margins, low, ok in bounds:
            if not bv:
                continue
            checked[i] += len(bv)
            ok_count[i] += len(bv) if low > 0 else sum(ok)  # all "ok" above 0
            # the first smallest: index finds the block's first, a strict < keeps
            # an earlier block's
            if argmin_n[i] is None or low < min_margin[i]:
                min_margin[i], argmin_n[i] = low, first + margins.index(low)
    tallies = {bid: BoundTally(c, k, low, at)
               for bid, c, k, low, at in zip(ids, checked, ok_count, min_margin, argmin_n)}
    return VerifyTally(tallies, klein_ok)


def _sharper_at(a: BoundId, b: BoundId, n: int, va: float, vb: float,
                upper: bool) -> bool | None:
    """True if a, worth va at n, is strictly sharper at n than b, worth vb;
    False if b is, None on a tie."""
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
    if a == b:
        raise ValueError(f"crossover needs two different bounds, got {a.label()} twice")
    start = max(a.min_n, b.min_n)
    if not start <= n_max <= MAX_DIMENSION:
        raise DomainError(f"n_max must lie in [{start}, {MAX_DIMENSION}], got {n_max}")
    upper = a.side == "upper"
    sharper = []
    for ns, columns in _pass((a, b), range(start, n_max + 1)):
        c = dict(columns)
        sharper += [n for n, va, vb in zip(ns, c[0], c[1]) if _sharper_at(a, b, n, va, vb, upper)]
    threshold = None
    if sharper and sharper[-1] - sharper[0] + 1 == len(sharper):
        threshold = sharper[-1]
    return CrossoverResult(a, b, a.target, frozenset(sharper), threshold)


def _log_half_sqrt_pi(n: int, shift: int, dps: int):
    """log(sqrt(pi(2n+shift))/2) at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.log(mpmath.pi * (2 * n + shift)) / 2 - mpmath.log(2)


def _overtake_dps(x: float, r: int) -> int:
    """Working digits of log f_r((n+1)/2, 1/2) and its target in the overtake
    search. _dps(x, r) leaves about 20 digits after the loggamma cancellation;
    what one factor step of log f_r, about c/(r(r+x)) >= c/(r+x)^2 with
    c = (x-1/2)/2, needs beyond those, with 5 guard digits, is added."""
    from .gautschi import _dps

    dps = _dps(x, r)  # DomainError where r + x is beyond a double
    step = 2 * math.log10(r + x) - math.log10(x / 2 - 0.25)  # -log10 c/(r+x)^2
    return dps + max(0, math.ceil(step) + 5 - 20)


def product_overtake_index(n: int, r_max: int) -> int | None:
    """Least r with prod_{k=1}^r (2k/(2k-1))((2k+n-1)/(2k+n)) = f_r((n+1)/2, 1/2)
    above sqrt(pi(2n+1))/2, or None if no r <= r_max has it; one exists, as
    (pi v_n)^2 > pi(2n+1)/4. With c = n/4, d = (n-1)/2, the tail log f - log f_r
    lies in [c/d log1p(d/(r+1)), c/(d+1) log1p((d+1)/(r-1/2))]; solving each
    end below D = log f - log target brackets r, which the partials check.
    log f_r = lg(r+1) + lg(x+r) - lg(r+1/2) - lg(x+r+1/2) + F in loggamma, and
    the part F = lg(x+1/2) + lg(1/2) - lg(x) free of r is taken once."""
    import mpmath

    from .gautschi import _double, _least

    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    x = _double(n + 1, "n") / 2.0
    if r_max < 1:
        return None
    dps = _overtake_dps(x, r_max)
    target = _log_half_sqrt_pi(n, 1, dps)
    lg, c, d = mpmath.loggamma, n / 4.0, (n - 1) / 2.0
    xm, half = mpmath.mpf(x), mpmath.mpf(0.5)  # so that r + 1/2 stays exact at any r
    with mpmath.workdps(dps):
        goal = target - (lg(xm + half) + lg(half) - lg(xm))  # log f_r - F must exceed it
    room = float(-goal)  # D
    try:
        guess = (math.floor(d / math.expm1(room * d / c) if d else c / room),
                 math.floor(0.5 + (d + 1) / math.expm1(room * (d + 1) / c)) + 1)
    except (OverflowError, ValueError, ZeroDivisionError):
        guess = (1, r_max)  # no narrowing

    def above(r):
        with mpmath.workdps(_overtake_dps(x, r)):
            return lg(r + 1) + lg(xm + r) - lg(r + half) - lg(xm + r + half) > goal
    return _least(above, 0, r_max, guess)


def partials_below_upper_cap(n: int, m_max: int) -> bool:
    """True iff every partial product up to m_max stays below
    sqrt(pi(2n+2))/2. Partials increase, so only the last one is checked."""
    from .gautschi import _double, _dps, _log_partial

    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    m, x = max(m_max, 0), _double(n + 1, "n") / 2.0
    return _log_partial(x, 0.5, m) < _log_half_sqrt_pi(n, 2, _dps(x, m))


def klein_rota_check(n_max: int) -> bool:
    """Rigorous check that w_n < 1 + 1/n for every n up to n_max, decided
    by the ratio walk that verify reads."""
    return all(klein for *_, klein in ratio_walk(n_max))


def make_table(target: str, ids: list[BoundId], n_list: list[int],
               partial: bool = False) -> TableReport:
    """Rows of (n, exact, bound values..., gaps...) in caller column order.

    Values are the eval_bound doubles, bit for bit. An n below some bound's
    validity raises, unless partial is set, in which case the offending
    cells hold None and the rest of the row is produced.
    """
    for bid in ids:
        if bid.target != target:
            raise ValueError(f"bound {bid.label()} does not target {target}")
    labels = [bid.label() for bid in ids]
    headers = ["n", "exact", *labels, *(f"gap:{label}" for label in labels)]
    lower = [bid.side == "lower" for bid in ids]
    for n in n_list:
        _check_dimension(n, 1, f"{target}_n")  # before any work, regardless of flag
        if not partial:
            for bid in ids:
                if n < bid.min_n:
                    raise DomainError(f"bound {bid.label()} needs n >= {bid.min_n}, got {n}")
    distinct = sorted(set(n_list))
    exact = dict(zip(distinct, _exact(target, distinct)))
    rows: list[list] = []
    for n, values in zip(n_list, _rows(ids, n_list)):
        ev = exact[n]
        gaps = [None if bv is None else (ev - bv if low else bv - ev)
                for bv, low in zip(values, lower)]
        rows.append([n, ev, *values, *gaps])
    return TableReport(target, headers, rows)


def auxiliary_log_inequality(n: int) -> tuple[float, float, bool]:
    """(lhs, rhs, lhs <= rhs) for 1/(2(n-1)) vs log(4(n+1)^2/(pi n(n+2)))."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    lhs = 1.0 / (2.0 * (n - 1))
    rhs = math.log(4.0 * (n + 1) ** 2 / (math.pi * n * (n + 2)))
    return lhs, rhs, lhs <= rhs


def _log1p_excess(x: float) -> float:
    """x - log1p(x) for |x| <= 1/8 as the series sum_{k>=2} (-x)^k/k, which
    keeps the digits that the direct form's cancellation to x^2/2 loses."""
    total, power, k = 0.0, x * x, 2
    while total + power / k != total:
        total += power / k
        power *= -x
        k += 1
    return total


def w_upper_refined_vs_51_margin(n: int) -> float:
    """log of upper-51 minus log of upper-refined:1, rearranged exactly.

    The difference collapses to u - log1p(u) with u = 1/((n+1)(n+3)), which
    is positive for every n >= 1, about u^2/2, and resolvable long after the
    two bound values themselves collide in double precision.
    """
    return _log1p_excess(1 / ((n + 1) * (n + 3)))


def w_lower_p_vs_443_margin(n: int) -> float:
    """log of lower-p minus log of lower-443: log1p(u) - v with
    u = 1/((n+1)(n+3)) and v = 1/(n+2)^2. As 1 + u = 1/(1 - v), that is
    -v - log1p(-v); positive, about v^2/2 = 1/(2(n+2)^4)."""
    return _log1p_excess(-1 / (n + 2) ** 2)


def w_upper_merkle_vs_alzer_margin(n: int) -> int:
    """Integer (n+1)^3 (n+3) - n(n+2)^3, positive iff Merkle's bound sits
    below Alzer's at n; the polynomial difference is exactly 2n+3."""
    return (n + 1) ** 3 * (n + 3) - n * (n + 2) ** 3
