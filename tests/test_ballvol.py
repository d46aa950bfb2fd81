"""Exact unit-ball volumes, the two ratio sequences, and their product
evaluators."""

import decimal
import hashlib
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ballratio import ballvol as bv
from ballratio.errors import BallRatioError, DomainError, NonConvergenceError
from ballratio.truncation import TruncationControl


def test_omega_spot_values():
    assert bv.omega_exact(0) == bv.ExactBallValue(Fraction(1), 0)
    assert bv.omega_exact(1) == bv.ExactBallValue(Fraction(2), 0)
    assert bv.omega_exact(2) == bv.ExactBallValue(Fraction(1), 1)
    assert bv.omega_exact(3) == bv.ExactBallValue(Fraction(4, 3), 1)
    assert bv.omega_exact(4) == bv.ExactBallValue(Fraction(1, 2), 2)
    assert abs(bv.omega_exact(3).to_real() - 4.1887902047863909846) < 1e-14


def test_omega_matches_gamma_formula():
    # independent cross-check: omega_n = pi^(n/2) / Gamma(1 + n/2)
    for n in range(0, 30):
        want = math.pi ** (n / 2) / math.gamma(1 + n / 2)
        assert abs(bv.omega_exact(n).to_real() - want) < 1e-13 * want


def test_to_real_handles_big_pi_powers():
    assert abs(bv.omega_exact(51).to_real() - 6.0433427554615918e-14) < 1e-27
    assert abs(bv.omega_exact(200).to_real() - 5.5588328420278266e-109) < 1e-121
    tiny = bv.ExactBallValue(Fraction(1), -40)
    assert abs(tiny.to_real() - math.pi ** -40.0) < 1e-32


def _to_real_whole(value):
    """to_real's big-power branch as it was before the integer pi bracket:
    the quotient of both integers read whole, times mpmath's pi^p, at 128
    bits, rounded once."""
    import mpmath

    with mpmath.workprec(128):
        x = mpmath.mpf(value.mantissa.numerator) / value.mantissa.denominator
        man, exp = (x * mpmath.pi ** value.pi_power).man_exp
    return man / (1 << -exp) if exp < 0 else float(man << exp)


def test_to_real_reads_leading_bits_bit_for_bit():
    # Omega_n underflows a double from n = 453 on
    for n in range(10, 3001):
        omega = bv.omega_exact(n)
        assert omega.to_real() == _to_real_whole(omega), n
    # the edge cases of a reader of leading 192 bits: a numerator whose
    # leading bits lie just below a rounding tie at 128 bits, which one more
    # unit on them reaches and rounds up to even; and a denominator just past
    # 2^378 / c, so that 1/den lies just below the tie c 2^-378 (c odd, of
    # 129 bits) and one over its leading bits above it
    below_tie = ((2**127 + 1) << 64) + (1 << 63) - 1
    straddle = (1 << 378) // ((1 << 128) + 3) + 1
    for num, den in ((below_tie << 40 | 12345, 3), (below_tie << 40, 1), (1, straddle),
                     (3**200, 5**150)):
        for p in (5, -9):
            value = bv.ExactBallValue(Fraction(num, den), p)
            assert value.to_real() == _to_real_whole(value), (num, den, p)


def test_to_real_big_powers_round_correctly_or_raise():
    # random mantissas at |p| in 5..300, for values from 2^1000 down past the
    # underflow to 0.0: each double is the 600-bit product rounded once, or
    # the call raises
    import mpmath

    rng = random.Random(2856)
    kinds = set()
    for _ in range(600):
        p = rng.choice((-1, 1)) * rng.randint(5, 300)
        # half of the exponents near the subnormal range
        e = rng.randint(-1100, -1000) if rng.random() < 0.5 else rng.randint(-1180, 1000)
        shift = e - round(p * math.log2(math.pi))
        den_bits = max(1, 1 - shift) + rng.randint(0, 300)
        num, den = (rng.getrandbits(bits) | 1 << bits - 1
                    for bits in (den_bits + shift, den_bits))
        with mpmath.workprec(600):
            man, exp = (mpmath.mpf(num) / den * mpmath.pi**p).man_exp
        want = man / (1 << -exp) if exp < 0 else float(man << exp)
        try:
            got = bv.ExactBallValue(Fraction(num, den), p).to_real()
        except BallRatioError:
            continue
        assert got == want, (num, den, p)
        kinds.add("zero" if got == 0.0 else "subnormal" if got < 2.0**-1022 else "normal")
    assert kinds == {"zero", "subnormal", "normal"}


def test_to_real_certifies_underflow_only_below_half_the_least_subnormal():
    # (2^64 - 1) 2^-1147 pi^5 = 2^-1074.74 rounds to the least subnormal, one
    # bit above what bit lengths certify below 2^-1075; its half they certify
    edge = Fraction((1 << 64) - 1, 1 << 1147)
    assert bv.ExactBallValue(edge, 5).to_real() == 5e-324
    assert bv.ExactBallValue(edge / 2, 5).to_real() == 0.0


def test_to_real_raises_where_the_ends_straddle_a_midpoint():
    # (1 + 2^-53) (pi / c)^5 with c the midpoint of pi's bracket: at its low
    # end below 1 + 2^-53, the midpoint of 1 and the next double, at its high
    # end above it
    c = Fraction(2 * bv._PI + 1, 2 << 256)
    value = bv.ExactBallValue(Fraction(2**53 + 1, 2**53) / c**5, 5)
    with pytest.raises(BallRatioError):
        value.to_real()


def test_v_spot_values():
    assert bv.v_exact(1) == bv.ExactBallValue(Fraction(1, 2), 0)
    assert bv.v_exact(2) == bv.ExactBallValue(Fraction(2), -1)
    assert bv.v_exact(3) == bv.ExactBallValue(Fraction(3, 4), 0)
    assert bv.v_exact(4) == bv.ExactBallValue(Fraction(8, 3), -1)
    assert abs(bv.v_exact(2).to_real() - 0.63661977236758134308) < 1e-16
    assert abs(bv.v_exact(4).to_real() - 0.8488263631567751241) < 1e-15
    assert abs(bv.v_exact(100).to_real() - 3.999408671744203) < 1e-13
    assert abs(bv.v_exact(10_000).to_real() - 39.895225408309659) < 1e-12


def test_w_spot_values():
    assert bv.w_exact(1) == bv.ExactBallValue(Fraction(4), -1)
    assert bv.w_exact(2) == bv.ExactBallValue(Fraction(3, 8), 1)
    assert bv.w_exact(3) == bv.ExactBallValue(Fraction(32, 9), -1)
    assert abs(bv.w_exact(1).to_real() - 1.2732395447351626862) < 1e-15
    assert abs(bv.w_exact(3).to_real() - 1.1317684842090334988) < 1e-15
    assert abs(bv.w_exact(10_000).to_real() - 1.0000499962501875) < 1e-14


def test_dimension_domain():
    with pytest.raises(DomainError):
        bv.omega_exact(-1)
    for bad in (0, -3):
        with pytest.raises(DomainError):
            bv.v_exact(bad)
        with pytest.raises(DomainError):
            bv.w_exact(bad)


def test_w_is_v_quotient_exactly():
    for n in range(1, 501):
        w, vn, vn1 = bv.w_exact(n), bv.v_exact(n), bv.v_exact(n + 1)
        assert w.mantissa * vn.mantissa == vn1.mantissa
        assert w.pi_power + vn.pi_power == vn1.pi_power
        assert w.pi_power in (-1, 1)


def test_v_recurrence_exact():
    # v_n v_{n+1} = (n+1) / (2 pi)
    for n in range(1, 501):
        a, b = bv.v_exact(n), bv.v_exact(n + 1)
        assert a.mantissa * b.mantissa == Fraction(n + 1, 2)
        assert a.pi_power + b.pi_power == -1


def test_omega_quotients_define_v():
    for n in range(1, 80):
        prev, cur, v = bv.omega_exact(n - 1), bv.omega_exact(n), bv.v_exact(n)
        assert prev.mantissa / cur.mantissa == v.mantissa
        assert prev.pi_power - cur.pi_power == v.pi_power


def test_v_strictly_increasing():
    vals = [bv.v_exact(n).to_real() for n in range(1, 1001)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_compare_to_fraction_brackets():
    w1 = bv.w_exact(1)  # 4/pi = 1.27323...
    assert w1.compare_to_fraction(Fraction(14, 11)) == 1
    assert w1.compare_to_fraction(Fraction(13, 10)) == -1
    assert bv.v_exact(1).compare_to_fraction(Fraction(1, 2)) == 0
    assert bv.w_exact(2).compare_to_fraction(1) == 1
    assert bv.v_exact(2).compare_to_fraction(Fraction(2, 3)) == -1


def test_compare_raises_when_brackets_cannot_separate():
    # a rational chosen inside the bracket around pi itself
    q = Fraction(2 * bv._PI + 1, 2 << 256)
    with pytest.raises(BallRatioError):
        bv.ExactBallValue(Fraction(1), 1).compare_to_fraction(q)


def test_symbolic_rendering():
    assert bv.omega_exact(3).symbolic() == "4/3 * pi^1"
    assert bv.omega_exact(0).symbolic() == "1 * pi^0"
    assert bv.v_exact(2).symbolic() == "2 * pi^-1"


def test_v_product_fixed_one_term():
    got = bv.v_product(2, TruncationControl.fixed(1))
    assert abs(got - 0.47746482927568600731) < 1e-15  # 3 / (2 pi)


def test_v_product_tolerance_under_approximates():
    for n in (1, 2, 17):
        exact = bv.v_exact(n).to_real()
        got = bv.v_product(n, TruncationControl.tolerance(1e-6))
        shortfall = exact - got
        assert -1e-12 <= shortfall <= 1.1e-6 * exact


def test_w_product_fixed_values():
    assert abs(bv.w_product(2, TruncationControl.fixed(1)) - 16 / 15) < 1e-15
    got = bv.w_product(1000, TruncationControl.fixed(1))
    assert abs(got - 1.0000009960129601206) < 1e-14


def test_w_product_tolerance_hits_target():
    for n in (1, 2, 9):
        exact = bv.w_exact(n).to_real()
        got = bv.w_product(n, TruncationControl.tolerance(1e-6))
        shortfall = exact - got
        assert -1e-12 <= shortfall <= 2.1e-6 * exact


@given(st.integers(1, 100), st.integers(1, 200))
def test_w_partials_increase(n, m):
    lo = bv.w_product(n, TruncationControl.fixed(m))
    hi = bv.w_product(n, TruncationControl.fixed(m + 1))
    assert hi > lo


def test_w_product_budget():
    with pytest.raises(NonConvergenceError) as exc:
        bv.w_product(1, TruncationControl.tolerance(1e-12))
    assert exc.value.terms == 10**8
    assert 0 < exc.value.partial < bv.w_exact(1).to_real()


@pytest.mark.parametrize("eps", [1e-310, 5e-324])
@pytest.mark.parametrize("fn, over", [(bv.v_product, 1.0), (bv.w_product, 1.0)])
def test_products_tiny_tolerance_exhausts_the_budget(fn, over, eps):
    # the needed term count overflows a float; the budget is exceeded all the
    # same, and each product reports its own partial (v_n's is f_m over pi)
    with pytest.raises(NonConvergenceError) as exc:
        fn(3, TruncationControl.tolerance(eps, max_terms=1000))
    assert exc.value.terms == 1000
    assert exc.value.partial / over == fn(3, TruncationControl.fixed(1000))


def test_w_product_tail_stays_positive_at_a_budget_near_the_largest_double():
    # 2(2m + n + 1) has no double at m = 10^308; the tail bound must not read 0
    with pytest.raises(NonConvergenceError) as exc:
        bv.w_product(3, TruncationControl.tolerance(1e-320, max_terms=10**308))
    assert exc.value.terms == 10**308 and exc.value.tail_bound > 1e-320


def test_v_product_takes_a_budget_beyond_a_double():
    huge = TruncationControl.tolerance(1e-6, max_terms=10**400)
    assert bv.v_product(5, huge) == bv.v_product(5, TruncationControl.tolerance(1e-6, 10**308))


def test_products_at_huge_dimensions():
    # x = (n + 1)/2 near 5e306: only the first factors' k/(k - 1/2) remain
    assert abs(bv.v_product(10**307, TruncationControl.fixed(3)) - 3.2 / math.pi) < 1e-15
    assert bv.w_product(10**307, TruncationControl.fixed(3)) == 1.0


@pytest.mark.parametrize("call", [
    lambda: bv.v_product(10**400),
    lambda: bv.w_product(10**400),
    lambda: bv.w_product(3, TruncationControl.fixed(10**400)),
])
def test_products_refuse_arguments_beyond_a_double(call):
    with pytest.raises(DomainError):
        call()


def test_product_domains():
    for fn in (bv.v_product, bv.w_product):
        with pytest.raises(DomainError):
            fn(0)
        with pytest.raises(DomainError):
            fn(-2)


def test_ratio_walk_matches_closed_forms():
    walked = list(bv.ratio_walk(bv.MAX_DIMENSION))
    assert [n for n, *_ in walked] == list(range(1, bv.MAX_DIMENSION + 1))
    for n in [*range(1, 2001), *range(2001, bv.MAX_DIMENSION, 19_999), bv.MAX_DIMENSION]:
        _, v, w, klein = walked[n - 1]
        w_exact = bv.w_exact(n)
        assert v == bv.v_exact(n).to_real(), n
        assert w == w_exact.to_real(), n
        assert klein == (w_exact.compare_to_fraction(Fraction(n + 1, n)) == -1), n


def test_ratio_walk_doubles_are_pinned_to_the_cap():
    # SHA-256 of the little-endian doubles v_1..v_N, then w_1..w_N, at
    # N = MAX_DIMENSION, taken from the exact rational walk it replaced
    walked = list(bv.ratio_walk(bv.MAX_DIMENSION))
    blob = b"".join(struct.pack(f"<{len(walked)}d", *(row[k] for row in walked))
                    for k in (1, 2))
    assert (hashlib.sha256(blob).hexdigest()
            == "407c8de1a789ab8e4fa235eb4c9e3ecd905ff8b778def196c8941e2ed91ae93e")


def test_ratio_walk_keeps_its_doubles_with_32_bits_fewer(monkeypatch):
    # the precision margin of _WALK_BITS: 32 bits fewer still give the pin
    # above at every n to the cap (80 bits raise at n = 78479)
    monkeypatch.setattr(bv, "_WALK_BITS", bv._WALK_BITS - 32)
    walked = list(bv.ratio_walk(bv.MAX_DIMENSION))
    blob = b"".join(struct.pack(f"<{len(walked)}d", *(row[k] for row in walked))
                    for k in (1, 2))
    assert (hashlib.sha256(blob).hexdigest()
            == "407c8de1a789ab8e4fa235eb4c9e3ecd905ff8b778def196c8941e2ed91ae93e")


def test_ratio_walk_raises_on_a_bracket_too_narrow(monkeypatch):
    # 16 bits leave M_n = 8/3 at n = 4 (and W_3 = 32/9) with ends that
    # round to different doubles
    monkeypatch.setattr(bv, "_WALK_BITS", 16)
    with pytest.raises(BallRatioError, match="too wide"):
        list(bv.ratio_walk(50))


def test_omega_matches_factorial_formula():
    # Omega_{2k} = pi^k/k!, Omega_{2k+1} = 2^{2k+1} k! pi^k/(2k+1)!, reduced
    # by the Fraction constructor
    for n in range(0, 601):
        k, odd = divmod(n, 2)
        if odd:
            want = Fraction(2 ** (2 * k + 1) * math.factorial(k), math.factorial(2 * k + 1))
        else:
            want = Fraction(1, math.factorial(k))
        got = bv.omega_exact(n)
        assert (got.mantissa.numerator, got.mantissa.denominator) == (want.numerator,
                                                                        want.denominator)
        assert got.pi_power == k


def test_to_real_big_powers_round_like_the_exact_bracket():
    # the exact product with a 34-digit pi, rounded once, is the reference;
    # n = 400..460 crosses the subnormal range and the underflow to 0.0
    pi_34 = Fraction(31415926535897932384626433832795028, 10**34)
    for n in range(10, 461):  # pi powers 5..230
        om = bv.omega_exact(n)
        assert om.to_real() == float(om.mantissa * pi_34**om.pi_power), n
    assert bv.omega_exact(20_000).to_real() == 0.0


def test_symbolic_renders_beyond_the_int_string_limit():
    for n in (20_000, 100_000):
        text = bv.omega_exact(n).symbolic()
        num, _, rest = text.partition("/")
        den, _, power = rest.partition(" * pi^")
        assert num == "1" and power == str(n // 2)
        # (n/2)!: 35,660 digits at n = 20000, 213,237 at n = 100000
        assert decimal.Decimal(den) == decimal.Decimal(math.factorial(n // 2))


def test_dimension_cap():
    top = bv.MAX_DIMENSION
    for fn in (bv.omega_exact, bv.v_exact, bv.w_exact):
        with pytest.raises(DomainError):
            fn(top + 1)
    for n_max in (0, top + 1):
        with pytest.raises(DomainError):  # at the call, before the walk is read
            bv.ratio_walk(n_max)
    a, b = bv.v_exact(top - 1), bv.v_exact(top)
    assert a.mantissa * b.mantissa == Fraction(top, 2)


def test_oracle_memory_stays_small():
    import tracemalloc

    from ballratio import specfun

    tracemalloc.start()
    try:
        bv.v_exact(30_000)
        bv.w_exact(29_999)
        specfun.trigamma_closed(Fraction(30_001, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
