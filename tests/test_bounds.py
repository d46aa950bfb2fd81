"""Bound catalog: identifier plumbing, exact helper sums, frozen values,
sidedness, and the chain orderings."""

import hashlib
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ballratio import ballvol as bv
from ballratio import bounds as B
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
