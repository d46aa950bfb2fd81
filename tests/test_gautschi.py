"""Joint-factor infinite product: exact truncations, tail certificates,
tolerance-mode stopping, and the assembled gamma quotient."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from ballratio import ballvol as bv
from ballratio import gautschi as ga
from ballratio import specfun as sf
from ballratio.errors import DomainError, NonConvergenceError
from ballratio.truncation import TruncationControl


def test_truncate_exact_rationals():
    x, a = Fraction(3, 2), Fraction(1, 2)
    assert ga.joint_factor_truncate(x, a, 0) == 1
    assert ga.joint_factor_truncate(x, a, 1) == Fraction(3, 2)
    assert ga.joint_factor_truncate(x, a, 2) == Fraction(5, 3)
    assert ga.joint_factor_truncate(1, a, 1) == Fraction(4, 3)
    assert ga.joint_factor_truncate(1, a, 2) == Fraction(64, 45)


def test_truncate_preserves_fraction_type():
    out = ga.joint_factor_truncate(Fraction(5, 2), Fraction(1, 2), 3)
    assert isinstance(out, Fraction)


def test_truncate_float_matches_exact():
    assert abs(ga.joint_factor_truncate(1.5, 0.5, 2) - 5 / 3) < 1e-14


def test_truncate_domain():
    with pytest.raises(DomainError):
        ga.joint_factor_truncate(0.0, 0.5, 1)
    with pytest.raises(DomainError):
        ga.joint_factor_truncate(2.0, 1.0, 1)
    with pytest.raises(DomainError):
        ga.joint_factor_truncate(0.25, -0.5, 1)  # x + a <= 0
    with pytest.raises(DomainError):
        ga.joint_factor_truncate(1.0, 0.5, -1)


@given(
    st.fractions(min_value=Fraction(3, 4), max_value=Fraction(40), max_denominator=64),
    st.integers(min_value=1, max_value=30),
)
def test_truncate_strictly_increasing_for_positive_c(x, m):
    # a(x+a-1) > 0 makes every factor exceed 1, so partials climb; the
    # comparison is exact rational arithmetic
    a = Fraction(1, 2)
    assert ga.joint_factor_truncate(x, a, m + 1) > ga.joint_factor_truncate(x, a, m)


@given(st.floats(min_value=0.75, max_value=10.0, allow_nan=False))
def test_half_shift_matches_gamma(x):
    want = math.gamma(x + 0.5) / math.gamma(x)
    got = ga.gautschi_ratio(x, 0.5, TruncationControl.tolerance(1e-5))
    assert abs(got - want) <= 2e-5 * want


@given(st.floats(min_value=0.6, max_value=6.0, allow_nan=False))
def test_half_shift_functional_equation(x):
    # the two half shifts compose to Gamma(x+1)/Gamma(x) = x
    ctrl = TruncationControl.tolerance(1e-5)
    prod = ga.gautschi_ratio(x, 0.5, ctrl) * ga.gautschi_ratio(x + 0.5, 0.5, ctrl)
    assert abs(prod - x) <= 4e-5 * x


def test_tolerance_stops_at_minimal_m():
    x, a, eps = 4.0, 0.5, 1e-4
    res = ga.joint_factor_result(x, a, TruncationControl.tolerance(eps))
    m = res.terms_used
    assert res.tail_bound == ga._tail_bound(x, a, m) < eps
    assert ga._tail_bound(x, a, m - 1) >= eps


# x on both sides of 1 - a, so that s = 2a + x - 1, the sign of the tail
# bound's log1p argument, takes both signs among the cases with c > 0
_PICK_GRID = [(x, a, eps)
              for a in (-0.9, -0.5, -0.25, 0.05, 0.25, 0.5, 0.95)
              for x in (0.6, 0.75, 1.2, 1.4, 3.0, 40.0, 1e4)
              for eps in (1e-9, 1e-6, 1e-3, 1e-1)
              if x + a > 0 and a * (x + a - 1) > 0]


def test_tolerance_pick_is_minimal_on_a_grid():
    assert any(2 * a + x - 1 < 0 for x, a, _ in _PICK_GRID)
    for x, a, eps in _PICK_GRID:
        ctrl = TruncationControl.tolerance(eps, max_terms=10**15)
        m = ga.joint_factor_result(x, a, ctrl).terms_used
        assert ga._tail_bound(x, a, m) < eps, (x, a, eps)
        assert m == 1 or ga._tail_bound(x, a, m - 1) >= eps, (x, a, eps)


def test_tolerance_pick_takes_a_few_tail_bounds(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return tail_bound(*args)
    tail_bound = ga._tail_bound
    monkeypatch.setattr(ga, "_tail_bound", counted)
    for x, a, eps in _PICK_GRID:
        calls.clear()
        ga.joint_factor_result(x, a, TruncationControl.tolerance(eps, max_terms=10**15))
        assert calls[0][2] == 10**15  # the budget test comes first
        assert len(calls) - 1 <= 4, (x, a, eps)


def test_a_budget_beyond_a_double_acts_as_a_large_one():
    # the budget test takes the tail bound at max_terms, which has no double
    # past about 1.8e308; a larger budget still leaves the least m to the tail
    large, huge = (TruncationControl.tolerance(1e-6, max_terms=cap) for cap in (10**308, 10**400))
    want = ga.joint_factor_result(3.0, 0.5, large)
    assert want.terms_used == 1250000
    assert ga.joint_factor_result(3.0, 0.5, huge) == want
    assert ga.gautschi_ratio(3.0, 0.5, huge) == ga.gautschi_ratio(3.0, 0.5, large)


_CONTROLS = {
    "fixed": lambda k: TruncationControl.fixed(k),
    "budget": lambda k: TruncationControl.tolerance(1e-6, max_terms=k),
    "m": lambda k: TruncationControl(m=k),
}


@pytest.mark.parametrize("make, count, want", [
    *((make, bad, None) for make in _CONTROLS
      for bad in (2.5, float("nan"), float("inf"), -float("inf"))),
    ("m", -3, None), ("fixed", 3.0, 3), ("budget", 1e15, 10**15),
    ("fixed", 10**400, 10**400), ("budget", 10**400, 10**400), ("m", 0, 0),
])
def test_term_counts_are_whole_numbers_or_refused(make, count, want):
    # a count that is not a whole number, or a negative m, is refused, never
    # truncated or read as tolerance mode; a whole one is kept as an int
    if want is None:
        with pytest.raises(DomainError):
            _CONTROLS[make](count)
    else:
        ctrl = _CONTROLS[make](count)
        got = ctrl.max_terms if make == "budget" else ctrl.m
        assert type(got) is int and got == want


@pytest.mark.parametrize("eps", [10**400, -(10**400), "x", None, float("nan"), 0, -1e-6])
def test_tolerance_that_no_double_holds_is_refused(eps):
    # an eps beyond a double, not a number, or not positive is refused as the
    # term counts are, never left to float() to raise
    with pytest.raises(DomainError):
        TruncationControl.tolerance(eps)


def test_refused_numbers_past_the_digit_limit_still_raise_domain_error():
    # the message that names a refused number must not fail to print it
    huge = -(10**5000)
    for make in (TruncationControl, TruncationControl.fixed, _CONTROLS["budget"],
                 TruncationControl.tolerance):
        with pytest.raises(DomainError):
            make(huge)


def _first_true(ok, lo: int, hi: int) -> int:
    """Least m in [lo, hi] with ok(m), for ok false then true and ok(hi) true."""
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid + 1, hi)
    return lo


# (consumer, its documented tail bound at m, the least m it may take, arguments,
# tolerances) of each user of the one tolerance rule; the w cases include
# eps 0.3 at n = 1, 2 and 0.1 at n = 5, where the empty product 1 already meets
# eps, and the digamma cases the benchmark pool x = j/4 at eps 1e-6, where
# |x|/ceil(|x|/eps) equals eps
_RULE_CASES = [
    (lambda x, ctrl: ga.joint_factor_result(x, 0.5, ctrl).value,
     lambda x, m: ga._tail_bound(x, 0.5, m), 1, (0.75, 1.5, 3.0, 40.0, 1e4), (1e-9, 1e-6, 1e-3)),
    (bv.w_product, lambda n, m: 1.0 / (2.0 * (2.0 * m + n + 1.0)), 0,
     (*range(1, 13), 100, 10**5), (0.3, 0.1, 1e-3, 1e-7)),
    (sf.digamma_series, lambda x, m: abs(x) / m, 1,
     [j / 4 for j in range(-3, 33) if j], (1.5e-3, 1e-6)),
]


@pytest.mark.parametrize("fn, tail, least, args, tolerances", _RULE_CASES)
def test_tolerance_mode_takes_the_least_m_with_tail_below_eps(fn, tail, least, args, tolerances):
    for arg in args:
        for eps in tolerances:
            m = _first_true(lambda m: tail(arg, m) < eps, least, 10**15)
            want = 1.0 if m == 0 else fn(arg, TruncationControl.fixed(m))
            assert fn(arg, TruncationControl.tolerance(eps, max_terms=10**15)) == want, (arg, eps)


@pytest.mark.parametrize("fn, arg", [(bv.w_product, 5), (sf.digamma_series, 1.5)])
def test_every_consumer_takes_a_budget_beyond_a_double(fn, arg):
    large, huge = (TruncationControl.tolerance(1e-6, max_terms=cap) for cap in (10**308, 10**400))
    assert fn(arg, huge) == fn(arg, large)


# (consumer, its tail bound at m); joint_factor reads joint_factor_result
_BUDGET_CASES = [
    (lambda c: ga.joint_factor(3.0, 0.5, c), lambda m: ga._tail_bound(3.0, 0.5, m)),
    (lambda c: bv.v_product(3, c), lambda m: ga._tail_bound(2.0, 0.5, m)),
    (lambda c: bv.w_product(3, c), lambda m: 0.25 / (m + 2.0)),
    (lambda c: sf.digamma_series(1.5, c), lambda m: 1.5 / m),
]


@pytest.mark.parametrize("fn, tail", _BUDGET_CASES)
def test_an_unmet_budget_beyond_a_double_reports_one_m(fn, tail):
    # the budget is taken at the largest double, and the error's terms, tail
    # bound and partial all describe that m
    cap = int(sys.float_info.max)
    with pytest.raises(NonConvergenceError) as exc:
        fn(TruncationControl.tolerance(1e-320, max_terms=10**400))
    err = exc.value
    assert err.terms == cap and err.tail_bound == tail(cap) >= 1e-320
    assert err.partial == fn(TruncationControl.fixed(cap))


@given(st.integers(-5, 40), st.integers(0, 40), st.integers(-60, 80),
       st.integers(-60, 80), st.integers(-60, 80))
def test_least_matches_a_linear_scan(lo, width, first, g, h):
    # pred is false below first and true from it; the guesses (g, h) may be
    # right, wrong either way, or outside (lo, hi]
    hi = lo + width
    seen = []

    def pred(r):
        seen.append(r)
        return r >= first
    want = next((r for r in range(lo + 1, hi + 1) if r >= first), None)
    assert ga._least(pred, lo, hi, (g, h)) == want
    assert all(lo < r <= hi for r in seen)


def test_tolerance_tail_bound_holds_at_high_precision():
    # in double, log((m+b)/(m-a)) loses ~1e-11 to cancellation at this m,
    # enough to stop one term before the certificate holds
    x, a, eps = 7.0, 0.4, 1e-6
    m = ga.joint_factor_result(x, a, TruncationControl.tolerance(eps)).terms_used
    assert m == 2559998
    with mpmath.workdps(50):
        x, a = mpmath.mpf(x), mpmath.mpf(a)
        b = x + a - 1
        tail = abs(a * b / (a + b) * mpmath.log((m + b) / (m - a)))
    assert tail < eps


def test_fixed_mode_precision_at_large_x():
    # the loggamma terms reach ~5e21 here, so the working precision must
    # grow with x for the partial to keep double accuracy
    got = ga.joint_factor_result(1e20, 0.5, TruncationControl.fixed(3)).value
    want = float(ga.joint_factor_truncate(Fraction(10**20), Fraction(1, 2), 3))
    assert abs(got - want) <= 1e-14 * want


def test_tail_bound_certifies_value():
    # f(x, a) = [Gamma(x+a)/Gamma(x)] * Gamma(1-a); the log shortfall of the
    # partial product must sit inside the reported tail bound
    want = math.gamma(5.25) / math.gamma(4.5) * math.gamma(0.25)
    res = ga.joint_factor_result(4.5, 0.75, TruncationControl.tolerance(1e-5))
    assert res.value <= want
    assert math.log(want) - math.log(res.value) <= res.tail_bound * (1 + 1e-9)


def test_fixed_mode_reports_tail():
    res = ga.joint_factor_result(2.0, 0.5, TruncationControl.fixed(1000))
    true_f = math.gamma(2.5) / math.gamma(2.0) * math.sqrt(math.pi)
    assert res.terms_used == 1000
    assert 0 < math.log(true_f) - math.log(res.value) <= res.tail_bound


def test_all_factors_one_when_c_vanishes():
    res = ga.joint_factor_result(0.5, 0.5)
    assert res.value == 1.0 and res.terms_used == 0 and res.tail_bound == 0.0
    assert ga.joint_factor(0.75, 0.25) == 1.0  # x + a = 1 again
    assert ga.joint_factor(3.0, 0) == 1.0      # a = 0 collapses every factor


def test_tolerance_rejects_factors_below_one():
    with pytest.raises(DomainError):
        ga.joint_factor(0.25, 0.5, TruncationControl.tolerance(1e-6))


def test_fixed_mode_allows_factors_below_one():
    got = ga.joint_factor(0.25, 0.5, TruncationControl.fixed(50_000))
    want = math.gamma(0.75) / math.gamma(0.25) * math.sqrt(math.pi)
    assert abs(got - want) / want < 1e-4


def test_budget_exhaustion_carries_partial():
    with pytest.raises(NonConvergenceError) as exc:
        ga.joint_factor(2.0, 0.5, TruncationControl.tolerance(1e-10))
    err = exc.value
    assert err.terms == 10**8
    assert 0 < err.tail_bound < 1e-7
    true_f = math.gamma(2.5) / math.gamma(2.0) * math.sqrt(math.pi)
    assert 0 < true_f - err.partial < 2 * err.tail_bound * true_f


@pytest.mark.parametrize("eps", [1e-310, 5e-324])
@pytest.mark.parametrize("fn", [ga.joint_factor, ga.joint_factor_result, ga.gautschi_ratio])
def test_tiny_tolerance_exhausts_the_budget(fn, eps):
    # c / eps overflows a float here; the budget is exceeded all the same
    with pytest.raises(NonConvergenceError) as exc:
        fn(2.0, 0.5, TruncationControl.tolerance(eps, max_terms=1000))
    err = exc.value
    assert err.terms == 1000
    assert err.partial == float(mpmath.exp(ga._log_partial(2.0, 0.5, 1000)))
    assert err.tail_bound == ga._tail_bound(2.0, 0.5, 1000)


@pytest.mark.parametrize("call", [
    lambda: ga.joint_factor_result(10**400, 0.5),
    lambda: ga.gautschi_ratio(10**400, 0.5),
    lambda: ga.joint_factor_truncate(10**400, 0.5, 3),
    lambda: ga.joint_factor(2.0, 0.5, TruncationControl.fixed(10**400)),
])
def test_arguments_beyond_a_double_are_refused(call):
    with pytest.raises(DomainError):
        call()


def test_dps_stays_finite_for_huge_arguments():
    # 1e306 log(1e306) overflows a double; its log10 is 308.85
    assert ga._dps(1e306, 0) == 20 + 309
    assert ga._dps(1e308, 10**8) == 20 + 311
    got = ga.joint_factor(1e306, 0.5, TruncationControl.fixed(5))
    want = float(ga.joint_factor_truncate(Fraction(10**306), Fraction(1, 2), 5))
    assert abs(got - want) < 1e-15 * want


def test_ratio_half_shift_spot_values():
    ctrl = TruncationControl.tolerance(1e-6)
    cases = [
        (0.5, 0.56418958354775628695),
        (1.0, 0.88622692545275801365),
        (1.5, 1.1283791670955125739),
    ]
    for x, want in cases:
        got = ga.gautschi_ratio(x, 0.5, ctrl)
        assert abs(got - want) <= 2e-6 * want


def test_ratio_denominator_selection():
    # x = a = 1/2 makes the product trivial, so only the built-in
    # 1/Gamma(1/2) enters and the result is exact
    assert ga.gautschi_ratio(0.5, 0.5) == 1.0 / math.sqrt(math.pi)
    assert ga.gautschi_ratio(7.0, 0) == 1.0
    got = ga.gautschi_ratio(2.0, 0.25, TruncationControl.tolerance(1e-6),
                            gamma_one_minus_a=math.gamma(0.75))
    assert abs(got - 1.1330030963193463) < 3e-6
    with pytest.raises(DomainError):
        ga.gautschi_ratio(2.0, 0.25)
