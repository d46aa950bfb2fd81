"""Bound catalog: identifier plumbing, exact helper sums, frozen values,
sidedness, and the chain orderings."""

import ast
import hashlib
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ballratio import analysis as A
from ballratio import ballvol as bv
from ballratio import bounds as B
from ballratio import specfun as sf
from ballratio.errors import DomainError


def test_catalog_shape():
    cat = B.catalog()
    assert len(cat) == 27
    assert len({(s.target, s.id.kind) for s in cat}) == 17
    # labels are unique within a target ("lower-trunc:1" exists on both sides)
    keyed = [(s.target, s.id.label()) for s in cat]
    assert len(set(keyed)) == 27
    for s in cat:
        if s.target == "v" and s.side == "lower":
            assert s.min_n == 1
    assert B.W_UPPER_MERKLE_Q.min_n == 2
    assert all(s.min_n == 1 for s in cat if s.id != B.W_UPPER_MERKLE_Q)


def test_catalog_custom_m_values():
    cat = B.catalog(m_values=(1,))
    assert len(cat) == 17
    assert all(s.id.m in (None, 1) for s in cat)


def test_catalog_roundtrips_through_labels():
    for s in B.catalog():
        assert B.parse_label(s.target, s.id.label()) == s.id
        assert s.id.side == s.side
        assert s.id.min_n == s.min_n


def test_bound_id_validation():
    with pytest.raises(ValueError):
        B.BoundId("v", "upper-bogus")
    with pytest.raises(ValueError):
        B.BoundId("q", "upper-alzer")
    with pytest.raises(ValueError):
        B.BoundId("w", "upper-h", 1)      # h bounds v only
    with pytest.raises(ValueError):
        B.BoundId("v", "lower-trunc")     # parametric kind needs m
    with pytest.raises(ValueError):
        B.BoundId("v", "lower-trunc", 0)
    with pytest.raises(ValueError):
        B.BoundId("v", "lower-borgwardt", 2)
    with pytest.raises(ValueError):
        B.parse_label("w", "upper-51:x")
    with pytest.raises(ValueError):
        B.parse_label("w", "no-such-kind")


def test_family_labels_listing():
    v_labels = B.family_labels("v")
    w_labels = B.family_labels("w")
    assert "lower-trunc:m" in v_labels and "upper-h:m" in v_labels
    assert "upper-merkle-q" in w_labels
    assert len(v_labels) + len(w_labels) == 17


def test_sigma_and_s_exact():
    assert B.sigma_m(2, 0) == 0
    assert B.sigma_m(2, 1) == Fraction(1, 3)
    assert B.sigma_m(2, 2) == Fraction(13, 30)
    assert B.s_m(2, 0) == Fraction(-1, 2)
    assert B.s_m(2, 1) == Fraction(-1, 4)
    assert B.s_m(1, 1) == Fraction(-2, 3)
    assert B.s_m(1, 2) == Fraction(-3, 5)
    with pytest.raises(DomainError):
        B.sigma_m(0, 1)
    for n, m in ((-1, 1), (-2, 1), (3, -1)):
        with pytest.raises(DomainError):
            B.w_trunc_exact(n, m)
    with pytest.raises(DomainError):
        B.s_m(1, -1)


@given(st.integers(1, 500))
def test_s1_closed_form(n):
    # first-order case collapses: -n * s_1(n) = 2/(n+2)
    assert -n * B.s_m(n, 1) == Fraction(2, n + 2)


def test_truncation_helpers_exact():
    assert B.f_m_exact(2, 1) == Fraction(3, 2)
    assert B.w_trunc_exact(2, 1) == Fraction(16, 15)
    assert isinstance(B.w_trunc_exact(3, 2), Fraction)


def test_eval_bound_frozen_values():
    cases = [
        (B.V_LOWER_TRUNC(1), 2, 0.47746482927568600731),
        (B.V_LOWER_D(1), 1, 0.4986682187343058),
        (B.V_LOWER_D(1), 2, 0.6319831970123727),
        (B.V_LOWER_BORGWARDT, 1, 0.3989422804014327),
        (B.V_LOWER_BORGWARDT, 2, 0.5641895835477563),
        (B.V_LOWER_ALZER, 1, 0.4886025119029199),
        (B.V_UPPER_H(1), 1, 0.5013849314150662),
        (B.V_UPPER_H(2), 2, 0.63789351147133831),
        (B.V_UPPER_H(2), 3, 0.75272749671253476),
        (B.V_UPPER_BORGWARDT, 1, 0.5641895835477563),
        (B.W_LOWER_TRUNC(1), 2, 16 / 15),
        (B.W_LOWER_TRIGAMMA, 1, 1.2632661506866421),
        (B.W_LOWER_TRIGAMMA, 2, 1.1749593094158024),
        (B.W_LOWER_TRIGAMMA, 3, 1.1304202192351535),
        (B.W_LOWER_443, 1, 1.2488488690016821),
        (B.W_LOWER_P, 2, 1.1715041496616807),
        (B.W_LOWER_CLASSIC, 1, 1.224744871391589),
        (B.W_UPPER_51, 1, 1.2840254166877414),
        (B.W_UPPER_MERKLE, 1, 1.299038105676658),
        (B.W_UPPER_MERKLE, 2, 1.1925695879998878),
        (B.W_UPPER_MERKLE_Q, 2, 1.1892071150027211),
        (B.W_UPPER_ALZER, 1, 1.4142135623730951),
        (B.W_UPPER_REFINED(1), 2, 1.1788489792806909),
    ]
    for bid, n, want in cases:
        got = B.eval_bound(bid, n)
        assert abs(got - want) <= 5e-15 * abs(want), (bid.label(), n, got, want)


def test_alzer_upper_exact_at_one():
    # sqrt((1 + (pi/2 - 1)) / (2 pi)) = 1/2 exactly, even in doubles
    assert B.eval_bound(B.V_UPPER_ALZER, 1) == 0.5


def test_upper_51_closed_form():
    assert B.eval_bound(B.W_UPPER_51, 2) == math.exp(0.5 / 3)


def test_min_n_rejection():
    with pytest.raises(DomainError):
        B.eval_bound(B.W_UPPER_MERKLE_Q, 1)
    with pytest.raises(DomainError):
        B.eval_bound(B.V_LOWER_D(1), 0)
    with pytest.raises(DomainError):
        B.eval_bound(B.W_UPPER_51, -3)


def test_dimension_above_the_cap_is_refused():
    top = bv.MAX_DIMENSION
    for s in B.catalog():
        assert B.eval_bound(s.id, top) > 0
        with pytest.raises(DomainError):
            B.eval_bound(s.id, top + 1)
        with pytest.raises(DomainError):
            B.eval_bound_mp(s.id, top + 1)


@given(st.integers(1, 50), st.integers(1, 20))
def test_v_truncates_increase_with_m(n, m):
    assert B.f_m_exact(n, m + 1) > B.f_m_exact(n, m)
    lo = B.eval_bound(B.V_LOWER_TRUNC(m), n)
    hi = B.eval_bound(B.V_LOWER_TRUNC(m + 1), n)
    assert hi > lo


@given(st.integers(1, 50), st.integers(1, 20))
def test_w_truncates_increase_with_m(n, m):
    assert B.w_trunc_exact(n, m + 1) > B.w_trunc_exact(n, m)


def test_sidedness_on_sparse_grid():
    grid = (1, 2, 3, 4, 7, 12, 50, 101, 1000)
    for s in B.catalog():
        for n in grid:
            if n < s.min_n:
                continue
            exact = (bv.v_exact(n) if s.target == "v" else bv.w_exact(n)).to_real()
            val = B.eval_bound(s.id, n)
            if s.id == B.V_UPPER_ALZER and n == 1:
                assert val == exact
            elif s.side == "lower":
                assert val < exact, (s.id.label(), n)
            else:
                assert val > exact, (s.id.label(), n)


def test_d_above_borgwardt_only_through_eight():
    # the digamma refinement beats the square-root lower bound for
    # n = 1..8 and then permanently loses the lead
    holds = [
        B.eval_bound(B.V_LOWER_D(1), n) > B.eval_bound(B.V_LOWER_BORGWARDT, n)
        for n in range(1, 101)
    ]
    assert holds[:8] == [True] * 8
    assert not any(holds[8:])
    assert abs(B.eval_bound(B.V_LOWER_D(1), 8) - 1.1298562212053496) < 1e-13
    assert abs(B.eval_bound(B.V_LOWER_D(1), 9) - 1.191224911252584) < 1e-13


def test_w_chain_orderings_value_space():
    for n in (1, 2, 3, 10, 100, 1500):
        p = B.eval_bound(B.W_LOWER_P, n)
        assert p > B.eval_bound(B.W_LOWER_CLASSIC, n)
        assert p > B.eval_bound(B.W_LOWER_443, n)
        assert B.eval_bound(B.W_UPPER_MERKLE, n) < B.eval_bound(B.W_UPPER_ALZER, n)
        assert B.eval_bound(B.W_UPPER_REFINED(1), n) < B.eval_bound(B.W_UPPER_51, n)
        if n >= 2:
            assert B.eval_bound(B.W_UPPER_51, n) < B.eval_bound(B.W_UPPER_MERKLE_Q, n)


# SHA-256 of the little-endian IEEE-754 bytes of eval_bound over
# catalog((1, 2, 3, 4)) in catalog order, each bound at n = min_n..3000 and
# then 9999, 10000, 29999, 30000. Computed from the earlier catalog, which
# spelled every formula twice (a float and an mpmath if-chain), before the
# formulas were written once per family: every double must keep its bits.
_CATALOG_BITS_SHA256 = "06c3e063a1e36f39a38f627717fad007f44b1c0731255050da2b59cbb8af1107"


def test_eval_bound_bits_are_pinned():
    h = hashlib.sha256()
    for s in B.catalog((1, 2, 3, 4)):
        for n in [*range(s.min_n, 3001), 9999, 10000, 29999, 30000]:
            h.update(struct.pack("<d", B.eval_bound(s.id, n)))
    assert h.hexdigest() == _CATALOG_BITS_SHA256


# The same hash over n = 3001, 3098, ... up to the oracle cap, taken before
# psi and psi' arguments were passed as the integer 2x.
_CAP_STRIDE_BITS_SHA256 = "ed381825b0f62135805f2a24743b7dfdaf364183a098cca67b35c9917818ccc7"


def test_eval_bound_bits_pinned_to_the_cap():
    h = hashlib.sha256()
    for s in B.catalog((1, 2, 3, 4)):
        for n in range(3001, 100_001, 97):
            h.update(struct.pack("<d", B.eval_bound(s.id, n)))
    assert h.hexdigest() == _CAP_STRIDE_BITS_SHA256


def test_catalog_takes_psi_arguments_as_integers(monkeypatch):
    # the formulas hand specfun the int 2x, so no half-integer is parsed
    from ballratio import specfun

    def refuse(x):
        raise AssertionError(f"parsed a half-integer {x!r}")

    monkeypatch.setattr(specfun, "_twice", refuse)
    for s in B.catalog():
        for n in (*range(max(1, s.min_n), 51), 30_000):
            B.eval_bound(s.id, n)


def test_mp_twin_agrees_with_float_path():
    for s in B.catalog():
        for n in (s.min_n, 5, 37, *range(1, 61), 3000, 30000):
            if n < s.min_n:
                continue
            a = B.eval_bound(s.id, n)
            b = float(B.eval_bound_mp(s.id, n))
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a)), (s.id.label(), n)


def test_mp_twin_is_within_1e_29_of_60_digits():
    # the reference is MP with psi and psi' from mpmath's digamma and polygamma
    import mpmath
    from types import SimpleNamespace

    def psi(t):
        return mpmath.digamma(mpmath.mpf(t) / 2)

    ref = SimpleNamespace(**{
        **vars(B._mp_backend()),
        # (psi((n+1)/2) + gamma)/(n-1), its limit pi^2/12 at n = 1
        "psi_slope": lambda n: (mpmath.pi ** 2 / 12 if n == 1
                                else (psi(n + 1) + mpmath.euler) / (n - 1)),
        "psi_alpha": lambda n: psi(n) - psi(3),  # psi(n/2) - psi(3/2)
        "trigamma": lambda n: mpmath.polygamma(1, mpmath.mpf(n) / 2),
    })
    for s in B.catalog((1, 2, 3, 7)):
        formula = B._BY_KEY[(s.target, s.id.kind)].formula
        for n in (*range(s.min_n, 120), 999, 5000, 29_999, 100_000):
            got = B.eval_bound_mp(s.id, n)
            with mpmath.workdps(60):
                want = formula(ref, mpmath.mpf(n), n, s.id.m)
                assert abs(got - want) <= 1e-29 * abs(want), (s.id.label(), n)


def test_mp_twin_reads_the_integer_kernels(monkeypatch):
    # psi and psi' come from specfun's fixed-point integers, not from mpmath
    import mpmath

    def refuse(*args):
        raise AssertionError("mpmath special function called")

    for name in ("digamma", "psi", "polygamma"):
        monkeypatch.setattr(mpmath, name, refuse)
    for s in B.catalog((1, 2, 3, 7)):
        for n in (*range(s.min_n, 40), 5000, 100_000):
            B.eval_bound_mp(s.id, n)


def test_mp_twin_min_n_rejection():
    with pytest.raises(DomainError):
        B.eval_bound_mp(B.W_UPPER_MERKLE_Q, 1)


def _exact_reference(bid, n):
    """The catalog formula over exact Fractions, rounded where eval_bound rounds."""
    from ballratio import specfun as sf
    from ballratio.gautschi import joint_factor_truncate

    m = bid.m
    half = Fraction(1, 2)
    f = float(joint_factor_truncate(Fraction(n + 1, 2), half, m or 0))
    w = 1.0
    if bid.target == "w" and m is not None:
        w = float(math.prod(Fraction((2 * k + n) ** 2, (2 * k + n) ** 2 - 1)
                            for k in range(1, m + 1)))
    if bid.kind == "lower-trunc":
        return f / math.pi if bid.target == "v" else w
    if bid.kind == "lower-d":
        if n == 1:
            bracket = math.pi * math.pi / 12.0
        else:
            rational, log4s = sf.digamma_parts(Fraction(n + 1, 2))
            bracket = (float(rational) - log4s * sf.LOG4) / (n - 1)
        sigma = sum((Fraction(1, k * (2 * k + n - 1)) for k in range(1, m + 1)), Fraction(0))
        return f / math.pi * math.exp(0.5 * n * (bracket - float(sigma)))
    if bid.kind == "upper-h":
        ru, cu = sf.digamma_parts(Fraction(n, 2))
        rv, cv = sf.digamma_parts(Fraction(3, 2))
        diff = float(ru - rv) - (cu - cv) * sf.LOG4
        s = sum((Fraction(1, (2 * k - 1) * (2 * k + n)) for k in range(0, m + 1)), Fraction(0))
        return f / math.pi * math.exp(n * (diff / (2.0 * (n + 1)) - float(s)))
    if bid.kind == "upper-refined":
        return w * math.exp(0.5 / (n + 2 * m + 1))
    assert bid == B.W_LOWER_P
    pre = Fraction((n + 2) ** 2, (n + 1) * (n + 3))
    return float(pre) * math.exp((n + 1) / (2.0 * (n + 2) ** 2))


def test_integer_truncates_match_the_fraction_formulas():
    ids = [B.W_LOWER_P]
    for m in (1, 2, 3):
        ids += [B.V_LOWER_TRUNC(m), B.V_LOWER_D(m), B.V_UPPER_H(m),
                B.W_LOWER_TRUNC(m), B.W_UPPER_REFINED(m)]
    for bid in ids:
        for n in range(1, 501):
            assert B.eval_bound(bid, n) == _exact_reference(bid, n), (bid.label(), n)


def test_truncation_order_is_capped():
    cap = B._MAX_ORDER
    for kind in ("lower-trunc", "lower-d", "upper-h"):
        with pytest.raises(DomainError):
            B.BoundId("v", kind, cap + 1)
        with pytest.raises(DomainError):
            B.parse_label("v", f"{kind}:{cap + 1}")
        assert B.eval_bound(B.BoundId("v", kind, cap), 7) > 0
    with pytest.raises(DomainError):
        B.parse_label("w", "upper-refined:1000000000")
    for helper in (B.f_m_exact, B.sigma_m, B.s_m, B.w_trunc_exact):
        with pytest.raises(DomainError):
            helper(5, cap + 1)
        assert helper(5, cap) > 0


def test_rows_are_the_eval_bound_doubles():
    # the full catalog shares its truncates and psi values, in ascending m
    # whatever the order of ids
    ns = [*range(1, 2001), 99_999, 100_000]
    for ids in ([s.id for s in B.catalog((1, 2, 3, 4))],
                [s.id for s in B.catalog((4, 1, 3, 2))][::-1],
                [B.W_UPPER_MERKLE_Q, B.V_UPPER_H(3), B.V_UPPER_ALZER]):
        for n, row in zip(ns, B._rows(ids, ns)):
            want = [B.eval_bound(bid, n) if n >= bid.min_n else None for bid in ids]
            assert row == want, n
    with pytest.raises(DomainError):
        next(B._rows(ids, [bv.MAX_DIMENSION + 1]))


def test_columns_refuse_n_out_of_range_before_any_work(monkeypatch):
    monkeypatch.setattr(B, "_compiled", None)  # no formula is compiled or run
    ids = [s.id for s in B.catalog()]
    for ns in ([bv.MAX_DIMENSION + 1], [5, bv.MAX_DIMENSION + 1, 7], [3, 0]):
        with pytest.raises(DomainError):
            next(B._pass(ids, sorted(ns)))
        with pytest.raises(DomainError):
            next(B._rows(ids, ns))


def test_pass_columns_keep_their_block():
    # read after the pass has moved on, a block's columns are still its own
    ids = [s.id for s in B.catalog((1, 2))]
    passes = list(B._pass(ids, range(1, 2 * B._BLOCK + 1)))
    assert len(passes) == 2
    for block, columns in passes:
        for i, column in columns:
            valid = [n >= ids[i].min_n for n in block]
            assert [v for v, ok in zip(column, valid) if ok] == [
                B.eval_bound(ids[i], n) for n, ok in zip(block, valid) if ok], ids[i].label()


def _refuse(monkeypatch, *names):
    # refused in specfun, whose _kernels resolves the walks and point readers
    def refuse(*args):
        raise AssertionError(f"{names} called")
    for name in names:
        monkeypatch.setattr(sf, name, refuse)


def test_sparse_rows_walk_no_kernel(monkeypatch):
    # bounds --target w --n 30000,29999,12345: psi' read at three points
    _refuse(monkeypatch, "_psi_walked", "_trigamma_walked")
    ids = [s.id for s in B.catalog() if s.target == "w"]
    ns = [30_000, 29_999, 12_345]
    assert list(B._rows(ids, ns)) == [[B.eval_bound(bid, n) for bid in ids] for n in ns]
    with pytest.raises(AssertionError, match="called"):  # a dense list walks
        next(B._rows(ids, range(1, 300)))


def test_dense_rows_read_no_t_alone(monkeypatch):
    # bounds --target v over the odd n <= 9999, and over n = 2000 down to 1
    # and shuffled: psi walked once, the rows in the caller's order
    ids = [s.id for s in B.catalog() if s.target == "v"]

    def values(ns):  # the bound values of make_table's rows
        return [row[2:2 + len(ids)] for row in A.make_table("v", ids, list(ns)).rows]
    odd = range(1, 10_000, 2)
    want = {n: [B.eval_bound(bid, n) for bid in ids] for n in (1, 3, 511, 513, 9999)}
    shuffled = [9999, 1, 513, 3, 511, 3]
    assert values(shuffled) == [want[n] for n in shuffled]
    dense = dict(zip(range(1, 2001), values(range(1, 2001))))
    shuffled = list(dense)
    random.Random(23).shuffle(shuffled)
    _refuse(monkeypatch, "_psi_rational", "_trigamma")
    rows = dict(zip(odd, values(odd)))
    assert {n: rows[n] for n in want} == want
    for ns in (range(2000, 0, -1), shuffled):
        assert values(ns) == [dense[n] for n in ns]
    with pytest.raises(AssertionError, match="called"):  # a sparse list reads alone
        values([30_000, 29_999, 12_345])


def test_a_walking_pass_holds_one_window(monkeypatch):
    ids = [s.id for s in B.catalog()]
    built = []  # the kernels of each pass, as _pass builds them
    monkeypatch.setattr(B, "_kernels", lambda ns: built.append(sf._kernels(ns)) or built[-1])
    for block, columns in B._pass(ids, range(1, 5001)):
        for _ in columns:
            pass
        assert all(len(k) <= B._BLOCK + 1 for k in built[0]), block[0]
    next(B._rows(ids, range(1, 5001)))  # an ascending list: its first block's rows
    next(B._rows(ids, range(5000, 0, -1)))  # a descending list, as one pass
    assert len(built) == 3  # one pair of kernels per pass
    for kernels in built:
        assert all(len(k) <= B._BLOCK + 1 for k in kernels)
    assert [k.t for k in built[1]] == [B._BLOCK + 1] * 2  # walked no further
    assert [k.t for k in built[0] + built[2]] == [5001] * 4


def test_truncates_go_on_from_a_lower_order():
    from ballratio.gautschi import joint_factor_truncate

    for n in (1, 2, 9, 500):
        ks = range(1, 7)
        direct = {
            B._f_m: [joint_factor_truncate(Fraction(n + 1, 2), Fraction(1, 2), m)
                     for m in range(7)],
            B._sigma: [sum(Fraction(1, k * (2 * k + n - 1)) for k in ks[:m]) for m in range(7)],
            B._s: [sum(Fraction(1, (2 * k - 1) * (2 * k + n)) for k in range(m + 1))
                   for m in range(7)],
            B._w_trunc: [math.prod(Fraction((2 * k + n) ** 2, (2 * k + n) ** 2 - 1)
                                   for k in ks[:m]) for m in range(7)],
        }
        for loop, want in direct.items():
            for m in range(7):
                assert Fraction(*loop(n, m)) == want[m], (loop.__name__, n, m)
                for k in range(m + 1):
                    assert loop(n, m, k, *loop(n, k)) == loop(n, m), (loop.__name__, n, k, m)


def test_sharing_truncates_start_again_below_their_last_order():
    n = [1, 2, 9, 500]
    get = B._inputs(n, {})
    for name in ("f", "sigma", "s", "w"):
        loop = getattr(B.FLOAT, name)
        # up, the same order again, then down: each is the loop's pair at every n
        for m in (3, 5, 5, 2, 1, 4):
            assert get(name, m) == [loop(k, m) for k in n], (name, m)


def test_sharing_psi_columns_follow_their_arguments():
    functions = B._kernel_functions(B._fixed, math.pi)
    for ns in (range(1, 40), range(2, 41), range(1, 40)):
        get = B._inputs(ns, functions)
        for name in ("psi_slope", "psi_alpha", "trigamma"):
            want = [getattr(B.FLOAT, name)(n) for n in ns]
            assert get(name, None) == want, (name, ns[0])
            assert get(name, None) is get(name, None)  # computed once per block


def test_compiled_columns_are_the_eval_bound_doubles():
    # each family alone, so that its truncates start from order 0 in every block
    seeded = sorted(random.Random(27).sample(range(2001, bv.MAX_DIMENSION + 1), 200))
    dense = [*range(1, 2001), *seeded]
    for fam in B._FAMILIES:
        for m in (1, 2, 3, 7, 1000) if fam.parametric else (None,):
            bid = B.BoundId(fam.target, fam.kind, m)
            # at m = 1000, one eval_bound takes about 1-2 ms: every 40th n
            ns = dense if m != 1000 else [*range(1, 2001, 40), *seeded[::10]]
            got = [v for block, columns in B._pass([bid], ns) for _, column in columns
                   for v in column]
            assert [v for n, v in zip(ns, got) if n >= bid.min_n] == [
                B.eval_bound(bid, n) for n in ns if n >= bid.min_n], bid.label()


def test_compiled_code_is_bounded_and_names_only_allowed_names(monkeypatch):
    sources = []

    def recording(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(B, "compile", recording, raising=False)
    B._compiled.cache_clear()
    orders = range(1, 1001)
    ids = [B.BoundId(f.target, f.kind, m) for f in B._FAMILIES
           for m in (orders if f.parametric else (None,))]
    for ns in ([7], range(1, 20), [300, 99_999]):
        list(B._rows(ids, ns))
    # orders down as well as up, each in a pass of its own
    for m in (1000, 3, 999, 1):
        list(B._rows([B.V_LOWER_D(m), B.W_UPPER_REFINED(m)], range(1, 5)))
    assert len(sources) <= len(B._FAMILIES) + len(B._TRUNCATES) == 21
    allowed = {"column", "m", "k", "N", "n", "pi", "sqrt", "exp", "zip",
               *(f"c{i}" for i in range(5)), *(f"_{i}" for i in range(2)),
               *B._KERNEL_FUNCTIONS, *(f"{t}_{x}" for t in B._TRUNCATES for x in "pq")}
    for source in sources:
        tree = ast.parse(source)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert names <= allowed, source
        # nothing but names, constants, arithmetic, calls of sqrt and exp, :=,
        # tuples, one comprehension and the def that returns it
        assert {type(node).__name__ for node in ast.walk(tree)} <= {
            "Module", "FunctionDef", "arguments", "arg", "Return", "ListComp",
            "comprehension", "Tuple", "Name", "Load", "Store", "Constant", "BinOp",
            "Add", "Sub", "Mult", "Div", "Pow", "Call", "NamedExpr"}, source
