"""Sweep verification, crossover adjudication, overtake indices, tables,
and the robust chain margins."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from ballratio import analysis as A
from ballratio import ballvol as bv
from ballratio import bounds as B
from ballratio import specfun as sf
from ballratio.cli import main
from ballratio.errors import BallRatioError, DomainError


def test_verify_records_shape_and_gaps():
    recs = A.verify_bounds([B.W_UPPER_51], 3)
    assert [r.n for r in recs] == [1, 2, 3]
    want = [0.01078587195257863, 0.0032631677694732186, 0.0013799688577931235]
    for r, g in zip(recs, want):
        assert r.side_ok
        assert abs(r.gap - g) < 1e-13
        assert r.gap == r.bound_value - r.exact_value  # upper: bound - exact
        assert r.bound == B.W_UPPER_51


def test_verify_lower_gap_orientation():
    recs = A.verify_bounds([B.V_LOWER_BORGWARDT], 2)
    assert [r.exact_value for r in recs] == [0.5, bv.v_exact(2).to_real()]
    for r in recs:
        assert r.gap == r.exact_value - r.bound_value
        assert r.side_ok


def test_verify_tolerates_alzer_equality():
    recs = A.verify_bounds([B.V_UPPER_ALZER], 1)
    assert recs[0].gap == 0.0 and recs[0].side_ok


def test_verify_min_n_and_counts():
    ids = [s.id for s in B.catalog()]
    recs = A.verify_bounds(ids, 10)
    assert len(recs) == 27 * 10 - 1  # merkle-q contributes nothing at n = 1
    assert all(r.side_ok for r in recs)
    with pytest.raises(DomainError):
        A.verify_bounds(ids, 0)


def test_tally_agrees_with_records():
    ids = [s.id for s in B.catalog()]
    tally = A.verify_tally(ids, 300)
    want = {}
    for r in A.verify_bounds(ids, 300):
        checked, ok, margin, at = want.get(r.bound, (0, 0, None, None))
        m = r.gap / max(1.0, abs(r.exact_value))
        if at is None or m < margin:
            margin, at = m, r.n
        want[r.bound] = (checked + 1, ok + r.side_ok, margin, at)
    assert {bid: dataclasses.astuple(t) for bid, t in tally.bounds.items()} == want
    assert tally.klein_rota_ok == A.klein_rota_check(300)


def test_tally_margins():
    ref = B.W_UPPER_REFINED(2)
    t = A.verify_tally([ref], 10**4).bounds[ref]
    assert t.argmin_n == 9998
    assert 8.2e-14 <= t.min_margin <= 8.4e-14
    t = A.verify_tally([B.V_UPPER_ALZER], 50).bounds[B.V_UPPER_ALZER]
    assert t.min_margin == 0.0 and t.argmin_n == 1  # v_1 = 1/2 exactly


def test_a_flip_is_found_in_a_block_of_positive_margins(monkeypatch):
    # upper-51 moved to w_n at three n of the second block: just under it, by
    # less than the tie (ok); onto it (ok); and under it beyond the tie (a
    # violation). Every other margin of that block stays positive
    moved = {300: 1 - 1e-14, 301: 1.0, 302: 1 - 1e-9}
    real = A._pass

    def moving(ids, ns):
        for block, columns in real(ids, ns):
            yield block, ((i, [A.exact_target("w", n) * moved[n] if n in moved else x
                               for n, x in zip(block, column)]) for i, column in columns)
    monkeypatch.setattr(A, "_pass", moving)
    n_max = 2 * B._BLOCK
    t = A.verify_tally([B.W_UPPER_51], n_max).bounds[B.W_UPPER_51]
    assert (t.checked, t.ok, t.argmin_n) == (n_max, n_max - 1, 302)
    assert -1.1e-9 < t.min_margin < -0.9e-9
    records = A.verify_bounds([B.W_UPPER_51], n_max)
    assert [r.n for r in records if not r.side_ok] == [302]
    assert [r.n for r in records if r.gap <= 0] == [300, 301, 302]


def test_tally_of_unchecked_bound_and_domain():
    ids = [s.id for s in B.catalog()]
    t = A.verify_tally(ids, 1).bounds[B.W_UPPER_MERKLE_Q]  # needs n >= 2
    assert (t.checked, t.ok, t.min_margin, t.argmin_n) == (0, 0, None, None)
    with pytest.raises(DomainError):
        A.verify_tally(ids, 0)


def test_crossover_truth_sets():
    res = A.crossover(B.V_UPPER_H(2), B.V_UPPER_ALZER, 50)
    assert res.sharper_set == frozenset({2, 3})
    assert res.threshold == 3
    res = A.crossover(B.V_UPPER_H(1), B.V_UPPER_BORGWARDT, 50)
    assert res.sharper_set == frozenset(range(1, 8))
    assert res.threshold == 7
    res = A.crossover(B.V_UPPER_H(1), B.V_UPPER_ALZER, 200)
    assert res.sharper_set == frozenset()
    assert res.threshold is None


def test_crossover_thresholds_increase_with_order():
    ts = [
        A.crossover(B.V_UPPER_H(m), B.V_UPPER_ALZER, 300).threshold
        for m in (2, 3, 4)
    ]
    assert ts == [3, 6, 8]


def test_crossover_partition():
    pairs = [
        (B.V_UPPER_H(1), B.V_UPPER_BORGWARDT),
        (B.V_LOWER_D(1), B.V_LOWER_BORGWARDT),
        (B.W_UPPER_MERKLE, B.W_UPPER_ALZER),
    ]
    for a, b in pairs:
        fwd = A.crossover(a, b, 40).sharper_set
        rev = A.crossover(b, a, 40).sharper_set
        assert not (fwd & rev)
        assert fwd | rev <= set(range(max(a.min_n, b.min_n), 41))
    # merkle < alzer strictly everywhere: no ties, so the two runs partition
    fwd = A.crossover(B.W_UPPER_MERKLE, B.W_UPPER_ALZER, 40).sharper_set
    rev = A.crossover(B.W_UPPER_ALZER, B.W_UPPER_MERKLE, 40).sharper_set
    assert fwd | rev == set(range(1, 41)) and rev == frozenset()


# SHA-256 of one line "target a b sorted(sharper_set) threshold" per ordered
# pair of distinct same-target, same-side bounds of catalog(), in catalog
# order, from crossover(a, b, 200); computed before the catalog formulas were
# written once per family
_CROSSOVER_200_SHA256 = "14bc05f0bfb87e9e8ef6ae23a56aa36b40489e01432efd028c51326a3498931d"


def test_crossover_pinned_over_every_same_side_pair(monkeypatch):
    h = hashlib.sha256()
    specs = B.catalog()
    for a in specs:
        for b in specs:
            if a.id != b.id and a.target == b.target and a.side == b.side:
                r = A.crossover(a.id, b.id, 200)
                h.update(f"{a.target} {a.id.label()} {b.id.label()} "
                         f"{sorted(r.sharper_set)} {r.threshold}\n".encode())
    assert h.hexdigest() == _CROSSOVER_200_SHA256
    # no pair comes within 1e-12 of a tie up to n = 200; these do from n = 835
    # on, where eval_bound_mp decides. The first of each is sharper at every n.
    calls = []
    monkeypatch.setattr(A, "eval_bound_mp",
                        lambda *args: calls.append(args) or B.eval_bound_mp(*args))
    near = [("upper-refined:3", "upper-refined:2"), ("upper-refined:2", "upper-refined:1"),
            ("lower-p", "lower-443"), ("upper-refined:1", "upper-51"),
            ("upper-refined:3", "upper-refined:1"), ("upper-refined:2", "upper-51"),
            ("upper-refined:3", "upper-51")]
    for sharper, other in near:
        a, b = B.parse_label("w", sharper), B.parse_label("w", other)
        assert A.crossover(a, b, 1200).sharper_set == frozenset(range(1, 1201))
        assert A.crossover(b, a, 1200).sharper_set == frozenset()
    assert calls


def test_crossover_rejects_mismatch():
    with pytest.raises(ValueError):
        A.crossover(B.V_UPPER_H(1), B.V_LOWER_BORGWARDT, 10)
    with pytest.raises(ValueError):
        A.crossover(B.W_UPPER_51, B.V_UPPER_ALZER, 10)
    with pytest.raises(DomainError):
        A.crossover(B.W_UPPER_MERKLE_Q, B.W_UPPER_51, 1)


def test_crossover_refuses_a_bound_against_itself(monkeypatch):
    # every n would be an exact tie, each sent to eval_bound_mp
    monkeypatch.setattr(A, "_pass", None)  # refused before any work
    for bid in (B.V_LOWER_D(2), B.W_UPPER_51):
        with pytest.raises(ValueError, match="twice"):
            A.crossover(bid, bid, 3000)


def test_crossover_refuses_n_max_above_the_cap(monkeypatch):
    monkeypatch.setattr(A, "_pass", None)  # refused before any work
    with pytest.raises(DomainError):
        A.crossover(B.W_UPPER_51, B.W_UPPER_ALZER, bv.MAX_DIMENSION + 1)


def test_overtake_regression_values():
    for n, want in [(1, 11), (2, 54), (3, 153), (5, 616), (10, 4432), (97, 3688643)]:
        assert A.product_overtake_index(n, 10**7) == want
    assert A.product_overtake_index(1, 0) is None
    assert A.product_overtake_index(1, 10) is None  # first hit is r = 11


def test_overtake_indices_are_pinned_through_one_hundred():
    # SHA-256 of the indices at n = 1..100, comma-joined, taken from the
    # plain bisection over [0, 10^7] that the bracketed search replaced
    got = [A.product_overtake_index(n, 10**7) for n in range(1, 101)]
    assert (hashlib.sha256(",".join(map(str, got)).encode()).hexdigest()
            == "ad30e6c06e66e2ea63c421bff12c16648a4421c1a3334c53d2553c647141c58b")
    for n in (1, 2, 7, 50, 97, 100):
        r = got[n - 1]
        assert A.product_overtake_index(n, r - 1) is None
        assert A.product_overtake_index(n, r) == r


def test_overtake_takes_a_few_partials(monkeypatch):
    # three loggammas for the part of log f_r free of r, then four per partial
    import mpmath

    calls = []
    loggamma = mpmath.loggamma

    def counted(z):
        calls.append(z)
        return loggamma(z)
    monkeypatch.setattr(mpmath, "loggamma", counted)
    for n in range(1, 101):
        calls.clear()
        assert A.product_overtake_index(n, 10**7) is not None
        partials, rest = divmod(len(calls) - 3, 4)
        assert rest == 0 and partials <= 4, n


def test_overtake_resolves_one_factor_step_at_large_r_max():
    # each value is the least r found by bisecting over [0, 10^20] with
    # every log-gamma at 80 digits; there one factor step of log f_r is about
    # 1e-31, below the ~1e-20 that the products' working digits resolve
    for n, want in [(709268, 1427222561498275745), (581646, 787112800727664158)]:
        assert A.product_overtake_index(n, 10**20) == want


@pytest.mark.parametrize("call", [
    lambda: A.product_overtake_index(10**400, 10),
    lambda: A.product_overtake_index(3, 10**400),
    lambda: A.partials_below_upper_cap(10**400, 10),
    lambda: A.partials_below_upper_cap(3, 10**400),
])
def test_overtake_and_cap_refuse_arguments_beyond_a_double(call):
    with pytest.raises(DomainError):
        call()


def test_overtake_monotone_in_dimension():
    rs = [A.product_overtake_index(n, 10**6) for n in range(1, 16)]
    assert None not in rs
    assert all(a < b for a, b in zip(rs, rs[1:]))


def test_overtake_index_is_the_first_crossing():
    n = 4
    r = A.product_overtake_index(n, 10**6)
    logs = [math.log1p(n / ((2.0 * k - 1.0) * (2.0 * k + n))) for k in range(1, r + 1)]
    total = math.fsum(logs)
    target = 0.5 * math.log(math.pi * (2 * n + 1)) - math.log(2.0)
    assert total > target
    assert total - float(logs[-1]) <= target


def test_partials_stay_below_cap():
    assert A.partials_below_upper_cap(1, 10**5)
    assert A.partials_below_upper_cap(2, 10**5)
    assert A.partials_below_upper_cap(100, 10**4)


def test_verify_decides_klein_rota_from_the_doubles(monkeypatch):
    ids = [s.id for s in B.catalog()]

    def refuse(self, q):
        raise AssertionError("exact compare called")

    monkeypatch.setattr(bv.ExactBallValue, "compare_to_fraction", refuse)
    ok = A.verify_tally(ids, 2000).klein_rota_ok
    monkeypatch.undo()
    assert ok is True and ok == A.klein_rota_check(2000)


def test_klein_rota_guard_decides_or_raises():
    n = 10
    bound = 1.0 + 1.0 / n  # the double the guard is measured from
    assert bv._klein_rota_holds(n, A.exact_target("w", n)) is True  # at a point
    assert bv._klein_rota_holds(1, 4 / math.pi) is True  # w_1 = 4/pi < 2
    assert bv._klein_rota_holds(n, bound - 1e-6) is True
    assert bv._klein_rota_holds(n, bound + 1e-6) is False
    # doubles in [1, 2] are 2^-52 apart; the guard is 4 of them either side
    assert bv._klein_rota_holds(n, bound - 5 * 2**-52) is True
    assert bv._klein_rota_holds(n, bound + 5 * 2**-52) is False
    for k in (-4, -1, 0, 1, 4):
        with pytest.raises(BallRatioError, match="guard"):
            bv._klein_rota_holds(n, bound + k * 2**-52)


def test_klein_rota_violation_is_reported_not_raised(monkeypatch, capsys):
    # with pi taken as 10 the walk's w_2 = 3 pi / 8 reads 3.75 > 1 + 1/2; the
    # guarded comparison decides on it (pi's power in w_n: 1 at even n, -1 at odd)
    holds, scale = bv._klein_rota_holds, (10 / math.pi, math.pi / 10)
    monkeypatch.setattr(bv, "_klein_rota_holds", lambda n, w: holds(n, w * scale[n & 1]))
    assert A.klein_rota_check(1) is True
    assert A.klein_rota_check(2) is False
    assert A.verify_tally([B.W_UPPER_51], 30).klein_rota_ok is False
    assert main(["verify", "--n-max", "30"]) == 1
    assert "klein_rota_ok: no" in capsys.readouterr().out


def test_klein_rota_small():
    assert A.klein_rota_check(1)
    assert A.klein_rota_check(500)
    with pytest.raises(DomainError):
        A.klein_rota_check(0)


def test_exact_target_matches_oracles():
    assert A.exact_target("v", 3) == bv.v_exact(3).to_real()
    assert A.exact_target("w", 2) == bv.w_exact(2).to_real()
    with pytest.raises(DomainError):
        A.exact_target("v", 0)


def test_make_table_row_values_bit_for_bit():
    rep = A.make_table("v", [B.V_LOWER_BORGWARDT, B.V_LOWER_D(1)], [2])
    assert rep.headers == [
        "n", "exact", "lower-borgwardt", "lower-d:1",
        "gap:lower-borgwardt", "gap:lower-d:1",
    ]
    row = rep.rows[0]
    assert row[0] == 2
    assert row[1] == bv.v_exact(2).to_real()
    assert row[2] == B.eval_bound(B.V_LOWER_BORGWARDT, 2)
    assert row[3] == B.eval_bound(B.V_LOWER_D(1), 2)
    assert row[4] == row[1] - row[2]
    assert row[5] == row[1] - row[3]


def test_make_table_caller_column_order():
    rep = A.make_table("v", [B.V_LOWER_D(1), B.V_LOWER_BORGWARDT], [2, 5])
    assert rep.headers[2:4] == ["lower-d:1", "lower-borgwardt"]
    assert [r[0] for r in rep.rows] == [2, 5]
    assert rep.target == "v"


def test_make_table_with_no_ids_keeps_one_row_per_n():
    assert A.make_table("v", [], [5, 7, 5]).rows == [
        [n, bv.v_exact(n).to_real()] for n in (5, 7, 5)]


def test_make_table_partial_flag():
    ids = [B.W_UPPER_MERKLE_Q, B.W_UPPER_51]
    with pytest.raises(DomainError):
        A.make_table("w", ids, [1])
    rep = A.make_table("w", ids, [1, 2], partial=True)
    assert rep.rows[0][2] is None and rep.rows[0][4] is None
    assert rep.rows[0][3] is not None
    assert rep.rows[1][2] == B.eval_bound(B.W_UPPER_MERKLE_Q, 2)


def test_columns_cover_a_block_below_a_bounds_min_n():
    ids = [s.id for s in B.catalog((1, 2))]
    block = list(range(1, 9))
    (got, columns), = B._pass(ids, block)
    columns = dict(columns)
    assert got == block and sorted(columns) == list(range(len(ids)))
    for i, column in columns.items():
        # every bound has a finite value at every n of the block, below its
        # min_n too, where the readers mask it
        assert len(column) == len(block), ids[i].label()
        assert all(map(math.isfinite, column)), ids[i].label()
    for n, row in zip(block, B._rows(ids, block)):
        assert [v is None for v in row] == [n < bid.min_n for bid in ids], n
    rep = A.make_table("w", [B.W_UPPER_MERKLE_Q, B.W_UPPER_51], [1, 2], partial=True)
    assert rep.rows[0][2] is None and rep.rows[0][4] is None
    assert rep.rows[1][2] == B.eval_bound(B.W_UPPER_MERKLE_Q, 2)
    with pytest.raises(DomainError):
        B.eval_bound(B.W_UPPER_MERKLE_Q, 1)


def test_evaluated_blocks_keep_their_n():
    # read after the sweep has moved on, a block's values are still its own
    blocks = list(A._evaluate([B.W_UPPER_51], 2 * B._BLOCK))
    assert len(blocks) == 2
    for k, (_, bounds) in enumerate(blocks):
        (_, first, bv, ev, *_), = bounds
        assert first == k * B._BLOCK + 1
        assert (bv[0], ev[0]) == (B.eval_bound(B.W_UPPER_51, first), A.exact_target("w", first))


def test_make_table_rejects_target_mismatch_and_bad_n():
    with pytest.raises(ValueError):
        A.make_table("v", [B.W_UPPER_51], [2])
    with pytest.raises(DomainError):
        A.make_table("w", [B.W_UPPER_51], [0], partial=True)
    assert A.make_table("w", [B.W_UPPER_51], []).rows == []


def _point_rows(target, ids, ns):
    """make_table's rows from exact_target and eval_bound at each n alone."""
    rows = []
    for n in ns:
        ev = A.exact_target(target, n)
        values = [B.eval_bound(bid, n) if n >= bid.min_n else None for bid in ids]
        gaps = [None if x is None else (ev - x if bid.side == "lower" else x - ev)
                for x, bid in zip(values, ids)]
        rows.append([n, ev, *values, *gaps])
    return rows


def _refuse(monkeypatch, *targets):
    def refuse(*args):
        raise AssertionError("called")
    for module, name in targets:
        monkeypatch.setattr(module, name, refuse)


_POINT_READS = ((A, "exact_target"), (A, "v_exact"), (A, "w_exact"),
                (bv, "v_exact"), (bv, "w_exact"))


def test_dense_table_walks_the_oracle(monkeypatch):
    # bounds --target v over the odd n <= 9999: one walk, no exact value at a point
    ids = [s.id for s in B.catalog() if s.target == "v"]
    odd = list(range(1, 10_000, 2))
    _refuse(monkeypatch, *_POINT_READS)
    rows = A.make_table("v", ids, odd).rows
    monkeypatch.undo()
    assert [row[0] for row in rows] == odd
    picks = [1, 3, 511, 513, 4097, 9999]
    assert [rows[odd.index(n)] for n in picks] == _point_rows("v", ids, picks)


def test_sparse_table_reads_the_oracle_at_points(monkeypatch):
    ns = [30_000, 29_999, 12_345]
    _refuse(monkeypatch, (A, "ratio_walk"), (bv, "ratio_walk"))
    for target in ("v", "w"):
        ids = [s.id for s in B.catalog() if s.target == target]
        assert A.make_table(target, ids, ns).rows == _point_rows(target, ids, ns)


@pytest.mark.parametrize("ns", [[5, 3, 300, 3, *range(299, 0, -7), 5],
                                [30_000, 12_345, 30_000, 29_999, 1]])
def test_table_rows_keep_the_callers_order(ns):
    # a dense list and a sparse one, neither ascending, both with repeats
    for target in ("v", "w"):
        ids = [s.id for s in B.catalog() if s.target == target]
        assert A.make_table(target, ids, ns, partial=True).rows == _point_rows(target, ids, ns)


@pytest.mark.parametrize("bad", [0, bv.MAX_DIMENSION + 1])
@pytest.mark.parametrize("partial", [False, True])
def test_table_refuses_a_dimension_before_any_work(monkeypatch, bad, partial):
    _refuse(monkeypatch, (A, "ratio_walk"), (A, "_rows"), *_POINT_READS)
    for target in ("v", "w"):
        with pytest.raises(DomainError, match=f"{target}_n needs"):
            A.make_table(target, [], [*range(1, 300), bad], partial=partial)


def test_auxiliary_inequality_frozen_edges():
    lhs, rhs, holds = A.auxiliary_log_inequality(3)
    assert lhs == 0.25 and holds
    assert abs(rhs - 0.30610299640806162) < 1e-13
    _, rhs166, _ = A.auxiliary_log_inequality(166)
    _, rhs167, _ = A.auxiliary_log_inequality(167)
    assert rhs166 > 0.2416 > rhs167       # the 0.2416 floor first fails at n = 167
    assert rhs167 > math.log(4 / math.pi)  # the limiting value survives
    assert not A.auxiliary_log_inequality(2)[2]
    with pytest.raises(DomainError):
        A.auxiliary_log_inequality(1)


def test_auxiliary_inequality_holds_on_range():
    assert all(A.auxiliary_log_inequality(n)[2] for n in range(3, 3001))


@given(st.integers(1, 10**4))
def test_chain_margins_positive(n):
    assert A.w_upper_refined_vs_51_margin(n) > 0
    assert A.w_lower_p_vs_443_margin(n) > 0
    assert A.w_upper_merkle_vs_alzer_margin(n) == 2 * n + 3


def test_margins_match_value_space_at_small_n():
    for n in (1, 2, 3, 8):
        direct = math.log(B.eval_bound(B.W_UPPER_51, n)) - math.log(
            B.eval_bound(B.W_UPPER_REFINED(1), n))
        assert abs(direct - A.w_upper_refined_vs_51_margin(n)) < 1e-12
        direct = math.log(B.eval_bound(B.W_LOWER_P, n)) - math.log(
            B.eval_bound(B.W_LOWER_443, n))
        assert abs(direct - A.w_lower_p_vs_443_margin(n)) < 1e-12


def test_margins_stay_positive_and_accurate_at_large_n():
    # u - log1p(u) and log1p(u) - 1/(n+2)^2 cancel to about u^2/2 in double
    import mpmath

    for n in (*range(1, 1001), *(10**k for k in range(4, 16))):
        with mpmath.workdps(50):
            u, v = mpmath.mpf(1) / ((n + 1) * (n + 3)), mpmath.mpf(1) / (n + 2) ** 2
            refined, p = u - mpmath.log1p(u), mpmath.log1p(u) - v
        got = A.w_upper_refined_vs_51_margin(n)
        assert got > 0 and abs(got - refined) <= 1e-12 * refined, n
        got = A.w_lower_p_vs_443_margin(n)
        assert got > 0 and abs(got - p) <= 1e-12 * p, n


def test_tally_matches_a_per_bound_loop_over_eval_bound():
    # an independent reader: one eval_bound per (bound, n), as the tally was
    # once computed, against the per-n rows that verify_tally consumes
    ids = [s.id for s in B.catalog((1, 2, 3, 4))]
    exact = {t: [None] + [A.exact_target(t, n) for n in range(1, 301)] for t in ("v", "w")}
    tally = A.verify_tally(ids, 300)
    for bid in ids:
        checked = ok = 0
        low = at = None
        for n in range(bid.min_n, 301):
            bv, ev = B.eval_bound(bid, n), exact[bid.target][n]
            gap = ev - bv if bid.side == "lower" else bv - ev
            scale = max(1.0, abs(ev))
            checked += 1
            ok += gap > -A.TIE_REL * scale
            if at is None or gap / scale < low:
                low, at = gap / scale, n
        assert dataclasses.astuple(tally.bounds[bid]) == (checked, ok, low, at), bid.label()


def _per_record_tally(ids, n_max):
    # the loop of test_tally_matches_a_per_bound_loop_over_eval_bound: one
    # eval_bound per (bound, n), each record decided on its own
    exact = {t: [None] + [A.exact_target(t, n) for n in range(1, n_max + 1)] for t in ("v", "w")}
    tally = {}
    for bid in ids:
        checked = ok = 0
        low = at = None
        for n in range(bid.min_n, n_max + 1):
            bv, ev = B.eval_bound(bid, n), exact[bid.target][n]
            gap = ev - bv if bid.side == "lower" else bv - ev
            scale = max(1.0, abs(ev))
            checked += 1
            ok += gap > -A.TIE_REL * scale
            if at is None or gap / scale < low:
                low, at = gap / scale, n
        tally[bid] = (checked, ok, low, at)
    return tally


@pytest.mark.parametrize("n_max", [1, 2, B._BLOCK - 1, B._BLOCK, B._BLOCK + 1])
def test_tally_matches_the_per_record_loop_at_block_edges(n_max):
    ids = [s.id for s in B.catalog()]
    tally = A.verify_tally(ids, n_max)
    assert {bid: dataclasses.astuple(t) for bid, t in tally.bounds.items()} == \
        _per_record_tally(ids, n_max)
    # upper-merkle-q starts at n = 2: at n_max = 1 it is checked nowhere
    assert tally.bounds[B.W_UPPER_MERKLE_Q].checked == max(n_max - 1, 0)
    if n_max == B._BLOCK + 1:
        # smallest margins at the second block's only n, and at n = 1, which
        # the second block must not take over
        argmins = {t.argmin_n for t in tally.bounds.values()}
        assert {1, B._BLOCK + 1} <= argmins


def test_tally_matches_the_per_record_loop_over_many_blocks(monkeypatch):
    monkeypatch.setattr(B, "_BLOCK", 4)
    ids = [s.id for s in B.catalog((1, 3))]
    for n_max in (5, 21, 22):  # a last block of one n, and of two
        tally = A.verify_tally(ids, n_max)
        assert {bid: dataclasses.astuple(t) for bid, t in tally.bounds.items()} == \
            _per_record_tally(ids, n_max)


def test_verify_computes_each_shared_term_once_per_n(monkeypatch):
    monkeypatch.setattr(B, "_BLOCK", 16)
    # the kernel function columns record each element they compute
    calls = {"psi_slope": [], "psi_alpha": [], "trigamma": []}

    def recording(*args, real=sf._kernel_functions):
        return {name: lambda *a, name=name, fn=fn: calls[name].append(a) or fn(*a)
                for name, fn in real(*args).items()}
    monkeypatch.setattr(B, "_kernel_functions", recording)
    # each kernel's walk records the t it steps to, and a read alone its t
    steps = {"psi": [], "trigamma": []}
    reads = []
    for kernel in steps:
        def stepped(kernel=kernel, walked=getattr(sf, f"_{kernel}_walked")):
            for t, value in enumerate(walked(), 1):
                steps[kernel].append(t)
                yield value
        monkeypatch.setattr(sf, f"_{kernel}_walked", stepped)
    for name in ("_psi_rational", "_trigamma"):
        monkeypatch.setattr(sf, name, lambda t, real=getattr(sf, name): reads.append(t) or real(t))
    # each truncate's compiled step records, per block of n, the order whose
    # factor or summand it adds
    orders: dict = {}

    def compiled(fn, truncate=None, real=B._compiled):
        column, inputs = real(fn, truncate)
        if truncate is None:
            return column, inputs

        def counted(k, n, pairs):
            orders.setdefault(truncate, {}).setdefault(tuple(n), []).append(k)
            return column(k, n, pairs)
        return counted, inputs
    monkeypatch.setattr(B, "_compiled", compiled)

    def blocks(n_max):
        return [tuple(range(lo, min(lo + 16, n_max + 1))) for lo in range(1, n_max + 1, 16)]

    A.verify_tally([s.id for s in B.catalog()], 50)
    assert orders == {"f": {b: [1, 2, 3] for b in blocks(50)},
                      "sigma": {b: [1, 2, 3] for b in blocks(50)},
                      "s": {b: [0, 1, 2, 3] for b in blocks(50)},
                      "w": {b: [1, 2, 3] for b in blocks(50)}}
    # lower-d's (psi((n+1)/2) + gamma)/(n-1) (pi^2/12 at n = 1), upper-h's
    # psi(n/2) - alpha and lower-trigamma's psi'(n/2), each once per n; psi at
    # t = 1..51 and psi' at t = 1..51 each walked once over the pass, and no
    # t read alone
    assert calls == {name: [(n,) for n in range(1, 51)] for name in calls}
    assert steps == {"psi": list(range(1, 52)), "trigamma": list(range(1, 52))}
    assert reads == []

    # a crossover's pair is one column per block: the two orders share one product
    orders.clear()
    A.crossover(B.W_UPPER_REFINED(3), B.W_UPPER_REFINED(2), 40)
    assert orders == {"w": {b: [1, 2, 3] for b in blocks(40)}}
    # a short truncate is not built to the block's longest order
    orders.clear()
    next(B._rows([B.V_LOWER_TRUNC(1000), B.V_LOWER_D(1), B.V_UPPER_H(1)], [7]))
    assert orders == {"f": {(7,): list(range(1, 1001))}, "sigma": {(7,): [1]},
                      "s": {(7,): [0, 1]}}


# SHA-256 of one line "n target label bound exact gap side_ok" per record
# of verify_bounds(full catalog, 300), floats by repr; taken when every bound
# was evaluated once per (bound, n), before the bounds at one n shared a row
_VERIFY_300_RECORDS_SHA256 = "170e6a16d71134f96c0e00d5e099691f7515cdc6047b481d1d89e9377fc01cd6"


def test_verify_records_are_pinned():
    h = hashlib.sha256()
    for r in A.verify_bounds([s.id for s in B.catalog()], 300):
        h.update(f"{r.n} {r.bound.target} {r.bound.label()} {r.bound_value!r} "
                 f"{r.exact_value!r} {r.gap!r} {r.side_ok}\n".encode())
    assert h.hexdigest() == _VERIFY_300_RECORDS_SHA256


# SHA-256 of one line "target:label checked ok min_margin argmin_n" per bound
# of verify_tally(full catalog, 63000), min_margin by repr; taken when every
# (bound, n) was compared with its tie. From n = 54083 (w:upper-refined:2) on,
# blocks hold records whose margin is not positive, so the comparison path
# runs beyond the exact tie at n = 1
_TALLY_63000_SHA256 = "6e2380ce6368dec43b56c19dc9e07e06556c4713cdb4b71882c66dd88fe12a63"


def test_verify_tally_is_pinned_where_margins_reach_zero():
    tally = A.verify_tally([s.id for s in B.catalog()], 63_000)
    text = "".join(f"{bid.target}:{bid.label()} {t.checked} {t.ok} {t.min_margin!r} {t.argmin_n}\n"
                   for bid, t in tally.bounds.items())
    assert tally.klein_rota_ok
    assert hashlib.sha256(text.encode()).hexdigest() == _TALLY_63000_SHA256
