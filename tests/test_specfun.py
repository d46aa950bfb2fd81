"""Half-integer digamma/trigamma closed forms, the integer walks behind them,
the shifted series, and the two minorant inequalities."""

import hashlib
import math
import random
import struct
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ballratio import ballvol as bv
from ballratio import bounds as B
from ballratio import specfun as sf
from ballratio.errors import DomainError, NonConvergenceError
from ballratio.truncation import TruncationControl

HALF = Fraction(1, 2)


def test_constants():
    assert abs(sf.EULER_GAMMA - 0.57721566490153286061) < 1e-16
    assert sf.LOG4 == math.log(4.0)
    assert sf.ALPHA == 2.0 - sf.EULER_GAMMA - sf.LOG4
    assert 0.036 < sf.ALPHA < 0.037


def test_kernel_constants_are_mpmaths_at_288_bits():
    # the literals are the floors of pi^2 2^192, gamma 2^256 and log(2) 2^256,
    # and B_2..B_40, as mpmath gives them
    import mpmath

    with mpmath.workprec(288):
        assert sf._PI2 == int(mpmath.pi ** 2 * 2 ** 192)
        assert sf._EULER == int(mpmath.euler * 2 ** sf._P)
        assert sf._LN2 == int(mpmath.ln2 * 2 ** sf._P)
    assert sf._TRIGAMMA_SERIES == tuple(tuple(map(int, mpmath.bernfrac(2 * k)))
                                        for k in range(1, 21))


def test_digamma_closed_spot_values():
    # psi(1) = -gamma and psi(3/2) = alpha + log4 - log4 hold bit-exactly
    # because the same float constants appear on both sides.
    assert sf.digamma_closed(1) == -sf.EULER_GAMMA
    assert sf.digamma_closed(Fraction(3, 2)) == sf.ALPHA
    assert abs(sf.digamma_closed(HALF) - (-1.9635100260214234794)) < 1e-14
    assert abs(sf.digamma_closed(2) - 0.42278433509846713939) < 1e-15
    assert abs(sf.digamma_closed(5) - 1.5061176684318004727) < 1e-14


def test_digamma_parts_are_exact_rationals():
    r, c = sf.digamma_parts(3)
    assert (r, c) == (Fraction(3, 2), 0)
    r, c = sf.digamma_parts(Fraction(5, 2))
    assert (r, c) == (Fraction(8, 3), 1)
    r, c = sf.digamma_parts(HALF)
    assert (r, c) == (0, 1)


@given(st.integers(min_value=1, max_value=400))
def test_digamma_recurrence_exact(twice_x):
    # psi(x+1) = psi(x) + 1/x, checked on the rational parts so there is
    # no floating-point slack at all
    x = Fraction(twice_x, 2)
    r0, c0 = sf.digamma_parts(x)
    r1, c1 = sf.digamma_parts(x + 1)
    assert c1 == c0
    assert r1 - r0 == 1 / x


def test_half_integer_domain():
    # psi(m + 1/2) = -gamma - log 4 + 2 * sum_{j=1}^{m} 1/(2j-1), at m = 2 and 3
    assert abs(sf.digamma_closed(2.5) - (8 / 3 - sf.EULER_GAMMA - sf.LOG4)) < 1e-15
    assert abs(sf.digamma_closed(Fraction(7, 2)) - (46 / 15 - sf.EULER_GAMMA - sf.LOG4)) < 1e-15
    for bad in (0, -1, Fraction(-1, 2), 0.3, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            sf.digamma_closed(bad)
        with pytest.raises(DomainError):
            sf.trigamma_closed(bad)


def test_digamma_diff_exact_cancellation():
    # psi(1/2) - psi(3/2) = -2 exactly: gamma and log 4 cancel before any
    # float arithmetic happens
    assert sf.digamma_diff(HALF, Fraction(3, 2)) == -2.0
    assert sf.digamma_diff(Fraction(7, 2), Fraction(7, 2)) == 0.0
    assert abs(sf.digamma_diff(1, HALF) - sf.LOG4) < 1e-15


@given(st.integers(1, 200), st.integers(1, 200))
def test_digamma_diff_antisymmetric(a, b):
    u, v = Fraction(a, 2), Fraction(b, 2)
    assert sf.digamma_diff(u, v) == -sf.digamma_diff(v, u)
    ref = sf.digamma_closed(u) - sf.digamma_closed(v)
    assert abs(sf.digamma_diff(u, v) - ref) < 1e-12 * max(1.0, abs(ref))


def test_series_matches_closed_forms():
    ctrl = TruncationControl.tolerance(1e-6)
    cases = [
        (0.0, -sf.EULER_GAMMA),
        (1.0, sf.digamma_closed(2)),
        (0.5, sf.digamma_closed(Fraction(3, 2))),
        (-0.5, sf.digamma_closed(HALF)),
        (2.5, sf.digamma_closed(Fraction(7, 2))),
        (10.0, sf.digamma_closed(11)),
    ]
    for x, ref in cases:
        assert abs(sf.digamma_series(x, ctrl) - ref) <= 1.05e-6


def test_series_fixed_mode_tail():
    # the partial sum after K terms undershoots psi(x+1) by at most x/K
    x = 3.0
    ref = sf.digamma_closed(4)
    for terms in (10, 100, 10_000):
        got = sf.digamma_series(x, TruncationControl.fixed(terms))
        assert 0.0 < ref - got <= x / terms + 1e-12


def test_series_budget_exhaustion():
    with pytest.raises(NonConvergenceError) as exc:
        sf.digamma_series(1.0, TruncationControl.tolerance(1e-9))
    err = exc.value
    assert err.terms == 10**8
    assert err.tail_bound <= 1e-8
    assert abs(err.partial - sf.digamma_closed(2)) < 1e-7


@pytest.mark.parametrize("eps", [1e-310, 5e-324])
def test_series_tiny_tolerance_exhausts_the_budget(eps):
    # |x| / eps overflows a float; the budget is exceeded all the same
    with pytest.raises(NonConvergenceError) as exc:
        sf.digamma_series(1.5, TruncationControl.tolerance(eps, max_terms=1000))
    err = exc.value
    assert err.terms == 1000 and err.tail_bound == 1.5 / 1000
    assert err.partial == sf.digamma_series(1.5, TruncationControl.fixed(1000))


def test_series_tolerance_needs_the_tail_bound_strictly_below_eps():
    # 1.5/1000 equals eps, so 1000 terms do not meet it and 1001 exceed the budget
    with pytest.raises(NonConvergenceError) as exc:
        sf.digamma_series(1.5, TruncationControl.tolerance(1.5e-3, max_terms=1000))
    assert exc.value.terms == 1000


def test_series_refuses_an_argument_beyond_a_double():
    with pytest.raises(DomainError):
        sf.digamma_series(10**400)


def test_series_domain():
    with pytest.raises(DomainError):
        sf.digamma_series(-1.0)
    with pytest.raises(DomainError):
        sf.digamma_series(-2.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            sf.digamma_series(bad)
        with pytest.raises(DomainError):
            sf.digamma_series(bad, TruncationControl.fixed(5))


def test_trigamma_closed_spot_values():
    assert abs(sf.trigamma_closed(1) - 1.6449340668482264365) < 5e-16
    assert abs(sf.trigamma_closed(HALF) - 4.9348022005446793094) < 2e-15
    assert abs(sf.trigamma_closed(2) - 0.64493406684822643647) < 5e-16
    assert abs(sf.trigamma_closed(Fraction(3, 2)) - 0.93480220054467930942) < 1e-15


def test_psi_lower_spot_values():
    lhs, rhs, holds = sf.psi_lower_ineq(1)
    assert abs(lhs - (-0.59453489189183562)) < 1e-14
    assert rhs == sf.digamma_closed(1)
    assert holds
    lhs, _, holds = sf.psi_lower_ineq(2)
    assert abs(lhs - 0.41629073187415507) < 1e-14
    assert holds
    lhs, _, holds = sf.psi_lower_ineq(Fraction(3, 2))
    assert abs(lhs - 0.026480513893278643) < 1e-14
    assert holds


def test_psi_lower_sweep_half_integers():
    assert all(sf.psi_lower_ineq(Fraction(k, 2))[2] for k in range(1, 401))


def test_psi_lower_general_argument():
    # off the half-integer grid the reference side comes from mpmath
    lhs, rhs, holds = sf.psi_lower_ineq(2.3)
    assert holds and lhs < rhs
    assert sf.digamma_closed(2) < rhs < sf.digamma_closed(Fraction(5, 2))


def test_trigamma_lower_spot_values():
    lhs, rhs, holds = sf.trigamma_lower_ineq(1)
    assert lhs == 1.625
    assert holds and rhs == sf.trigamma_closed(1)
    lhs, _, holds = sf.trigamma_lower_ineq(HALF)
    assert abs(lhs - 44 / 9) < 1e-14
    assert holds
    lhs, _, holds = sf.trigamma_lower_ineq(2)
    assert abs(lhs - 23 / 36) < 1e-15
    assert holds


def test_trigamma_lower_sweep():
    assert all(sf.trigamma_lower_ineq(Fraction(k, 2))[2] for k in range(1, 401))


def test_trigamma_lower_general_argument():
    lhs, rhs, holds = sf.trigamma_lower_ineq(1.7)
    assert holds and lhs < rhs
    assert sf.trigamma_closed(2) < rhs < sf.trigamma_closed(Fraction(3, 2))


def test_inequality_domains():
    for fn in (sf.psi_lower_ineq, sf.trigamma_lower_ineq):
        with pytest.raises(DomainError):
            fn(0)
        with pytest.raises(DomainError):
            fn(-1.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                fn(bad)


def test_trigamma_closed_matches_40_digit_mpmath():
    # every half-integer through 1000, then a stride up to 15000.5
    import mpmath

    for t in [*range(1, 2001), *range(2001, 30_002, 50)]:
        got = sf.trigamma_closed(Fraction(t, 2))
        with mpmath.workdps(40):
            want = mpmath.psi(1, mpmath.mpf(t) / 2)
            assert abs(got - want) <= 1e-15 * want, t


def test_trigamma_closed_stops_at_the_cap():
    top = bv.MAX_DIMENSION
    assert sf.trigamma_closed(top) == sf._trigamma(2 * top) / 2**128
    for bad in (top + HALF, top + 1, 1e25, 1e40):
        with pytest.raises(DomainError):
            sf.trigamma_closed(bad)


def test_trigamma_kernel_error_budget():
    # |_trigamma(t) - psi'(t/2) 2^128| <= 2^-115 of the value plus 64 units
    import mpmath

    with mpmath.workdps(60):
        for t in [*range(1, 3001), *range(3001, 2 * bv.MAX_DIMENSION + 1, 997)]:
            want = mpmath.psi(1, mpmath.mpf(t) / 2) * 2**128
            assert abs(sf._trigamma(t) - want) <= want / 2**115 + 64, t


def test_minorant_checks_resolve_gaps_below_a_double():
    # gaps of 1/(24 t^2) = 2.27e-15 and 1/(6 x^3) = 5.23e-24 under sides of
    # 15.3 and 3.2e-8, and sides of about 1/x or 1/x^2 near 0
    assert sf.psi_lower_ineq(4287959.5)[2]
    assert sf.trigamma_lower_ineq(31696541.0)[2]
    for x in (1e-300, 1e-8, 1e8, 1e300):
        assert sf.psi_lower_ineq(x)[2], x
        assert sf.trigamma_lower_ineq(x)[2], x
    for fn in (sf.psi_lower_ineq, sf.trigamma_lower_ineq):
        with pytest.raises(DomainError):
            fn(10**400)


def test_float_parts_round_the_exact_parts_once():
    # the exact binary-splitting sums, rounded once, are the reference
    for t in [*range(1, 401), 2001, 2002, 5001, 5002]:
        x = Fraction(t, 2)
        rational, log4s = sf.digamma_parts(x)
        assert sf.digamma_closed(x) == float(rational) - sf.EULER_GAMMA - log4s * sf.LOG4
        r3, c3 = sf.digamma_parts(Fraction(3, 2))
        assert sf.digamma_diff(x, Fraction(3, 2)) == float(rational - r3) - (log4s - c3) * sf.LOG4


def test_psi_gamma_is_the_difference_from_psi_one():
    # psi(1) = -gamma and alpha = psi(3/2) have rational parts of exactly 0
    # and 2, so psi_slope's psi((n+1)/2) + gamma and psi_alpha's
    # psi(n/2) - alpha each need one kernel read and keep the bits of the
    # differences psi((n+1)/2) - psi(1) and psi(n/2) - psi(3/2)
    assert sf._psi_rational(2) == 0 and sf._psi_rational(3) == 2 << 128
    reads = []
    fns = sf._kernel_functions(sf._fixed, math.pi,
                               lambda t: reads.append(t) or sf._psi_rational(t))
    for n in [*range(2, 3001), *range(3001, 2 * bv.MAX_DIMENSION, 997)]:
        assert fns["psi_slope"](n) == sf.digamma_diff(Fraction(n + 1, 2), 1) / (n - 1), n
        assert fns["psi_alpha"](n) == sf.digamma_diff(Fraction(n, 2), Fraction(3, 2)), n
    reads.clear()
    fns["psi_slope"](1000)
    fns["psi_alpha"](1001)
    assert reads == [1001, 1001]


def test_psi_rational_rounds_the_exact_sum_to_nearest():
    # digamma_parts, summed by binary splitting, is the reference
    for t in [*range(1, 2001), *range(2001, 2 * bv.MAX_DIMENSION + 1, 99_999)]:
        r, _ = sf.digamma_parts(Fraction(t, 2))
        assert sf._psi_rational(t) == round(r * 2**128), t


def _point_ts(seed):
    """Every 97th t to the cap, and 2000 t drawn at random, for the point reads."""
    rng = random.Random(seed)
    return {*range(1, 2 * bv.MAX_DIMENSION + 1, 97),
            *(rng.randrange(1, 2 * bv.MAX_DIMENSION + 1) for _ in range(2000))}


def _check_walk(walked, lo, hi, step, point, seed):
    """Floor and ceiling walks from lo and hi (values at t = 2 and 1, in units
    of 2^-192), adding at t = d + 2 the term step(d, up) rounded down (up
    False) or up, round alike to walked's value at every t to the cap, and
    the floor walk never sits on a rounding boundary. So the exact value,
    which lies between, is at least 2^-192 from one and rounds to the walk's
    value, as does any reader within 2^-193 of it; the point reader must give
    the walk's value at the t of _point_ts."""
    ts = _point_ts(seed)
    boundary = 1 << 63  # x rounds up from x = k 2^64 + 2^63 on
    for t, value in zip(range(1, 2 * bv.MAX_DIMENSION + 1), walked()):
        if t > 2:
            lo[t % 2] += step(t - 2, False)
            hi[t % 2] += step(t - 2, True)
        assert value == (lo[t % 2] + boundary) >> 64 == (hi[t % 2] + boundary) >> 64, t
        assert lo[t % 2] % (1 << 64) != boundary, t
        if t in ts:
            assert point(t) == value, t


def test_psi_rational_is_correctly_rounded_up_to_the_cap():
    # the walk floors each term 2/d in units of 2^-192; ceiling every term
    # instead must round to the same value
    _check_walk(sf._psi_walked, [0, 0], [0, 0],
                lambda d, up: -(-(1 << 193) // d) if up else (1 << 193) // d,
                sf._psi_rational, 1)


def test_trigamma_is_correctly_rounded_up_to_the_cap():
    # floor and ceiling walks from pi^2/6 and pi^2/2 (x = 1 and 1/2) bracket
    # psi' in units of 2^-192, each term 4/d^2 rounded the other way
    import mpmath

    with mpmath.workprec(300):
        starts = [mpmath.pi ** 2 * 2**192 / k for k in (6, 2)]
        lo = [int(mpmath.floor(s)) for s in starts]
        hi = [int(mpmath.ceil(s)) for s in starts]
    four = 4 << 192
    _check_walk(sf._trigamma_walked, lo, hi,
                lambda d, up: -(four // d**2) if up else -four // d**2, sf._trigamma, 2)


def test_digamma_doubles_are_pinned():
    h = hashlib.sha256()
    for t in range(1, 200_001, 7):
        h.update(struct.pack("<d", sf.digamma_closed(Fraction(t, 2))))
    assert h.hexdigest() == "72e5c509d22452c1adf6c663bd37d41a13e2f87033bf21cf0c7f712c367aceb1"


def test_trigamma_doubles_are_pinned():
    h = hashlib.sha256()
    for t in range(1, 200_001, 7):
        h.update(struct.pack("<d", sf.trigamma_closed(Fraction(t, 2))))
    assert h.hexdigest() == "9b07c28b0a833c7ad62d5ce302eb8332e4208c128e16cbf597194178a8fab6b2"


def test_digamma_closed_stops_at_the_cap():
    top = bv.MAX_DIMENSION
    assert sf.digamma_closed(top) == sf._psi_rational(2 * top) / 2**128 - sf.EULER_GAMMA
    for bad in (top + HALF, top + 1):
        with pytest.raises(DomainError):
            sf.digamma_closed(bad)
        with pytest.raises(DomainError):
            sf.digamma_diff(bad, 1)
    # psi_lower_ineq goes to mpmath above the cap, as at non-half-integers
    _, rhs, holds = sf.psi_lower_ineq(top + 0.5)
    assert holds and 0 < rhs - sf.digamma_closed(top) < 1 / top


def _walk_peak(walked):
    tracemalloc.start()
    try:
        deque(walked(), maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_cold_walk_to_the_cap_stays_small():
    # a walk keeps two parity sums, not the values it has passed
    assert _walk_peak(sf._psi_walked) < 2**20


def test_cold_trigamma_walk_to_the_cap_stays_small():
    assert _walk_peak(sf._trigamma_walked) < 2**20


def test_walk_needs_no_mpmath_harmonic(monkeypatch):
    import mpmath

    def refuse(*args):
        raise AssertionError("mpmath.harmonic called")

    monkeypatch.setattr(mpmath, "harmonic", refuse)
    for s in B.catalog():
        for n in [*range(s.min_n, 51), 30_000]:
            assert math.isfinite(B.eval_bound(s.id, n))
