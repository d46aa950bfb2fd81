"""Half-integer digamma/trigamma closed forms, the integer walk behind psi,
the shifted series, and the two minorant inequalities."""

import hashlib
import math
import random
import struct
import sys
import threading
import tracemalloc
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
    assert sf.is_half_integer(2.5)
    assert sf.is_half_integer(Fraction(7, 2))
    assert not sf.is_half_integer(0.3)
    assert not sf.is_half_integer(math.inf)
    assert not sf.is_half_integer(math.nan)
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


def test_psi_gamma_is_the_difference_from_psi_one(monkeypatch):
    # psi(1) = -gamma has a rational part of exactly 0, so psi(t/2) + gamma
    # needs one table read and keeps the bits of psi(t/2) - psi(1)
    assert sf._psi_rational(2) == 0
    for t in [*range(1, 3001), *range(3001, 2 * bv.MAX_DIMENSION + 1, 997)]:
        assert sf._psi_gamma(t) == sf._psi_diff(t, 2), t
    reads = []
    real = sf._psi_rational
    monkeypatch.setattr(sf, "_psi_rational", lambda t: reads.append(t) or real(t))
    sf._psi_gamma(1001)
    assert reads == [1001]


def _cold(monkeypatch):
    monkeypatch.setattr(sf, "_walk", sf._START)


def test_psi_rational_rounds_the_exact_sum_to_nearest():
    # digamma_parts, summed by binary splitting, is the reference
    for t in [*range(1, 2001), *range(2001, 2 * bv.MAX_DIMENSION + 1, 99_999)]:
        r, _ = sf.digamma_parts(Fraction(t, 2))
        assert sf._psi_rational(t) == round(r * 2**128), t


def test_psi_rational_is_correctly_rounded_up_to_the_cap():
    # the walk floors each term; ceiling every term instead must round to the
    # same value, so the exact sum, which lies between, rounds to it too
    ceil = [0, 0]
    for t in range(3, 2 * bv.MAX_DIMENSION + 1):
        ceil[t % 2] += -(-(1 << 193) // (t - 2))
        assert sf._psi_rational(t) == (ceil[t % 2] + (1 << 63)) >> 64, t


def test_psi_rational_ignores_call_order(monkeypatch):
    _cold(monkeypatch)
    far = sf._psi_rational(150_001)
    assert sf._psi_rational(7) == round(sf.digamma_parts(Fraction(7, 2))[0] * 2**128)
    jumped = [sf._psi_rational(t) for t in range(1, 150_002)]
    _cold(monkeypatch)
    ascending = [sf._psi_rational(t) for t in range(1, 150_002)]
    assert jumped == ascending and ascending[-1] == far


def test_concurrent_walks_agree(monkeypatch):
    # readers and extenders race on the published (sums, table) state
    want = [sf._psi_rational(t) for t in range(1, 60_001)]
    _cold(monkeypatch)
    bad = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(300):
            t = rng.randrange(1, 60_001)
            if sf._psi_rational(t) != want[t - 1]:
                bad.append(t)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads) and bad == []


def test_digamma_doubles_are_pinned():
    h = hashlib.sha256()
    for t in range(1, 200_001, 7):
        h.update(struct.pack("<d", sf.digamma_closed(Fraction(t, 2))))
    assert h.hexdigest() == "72e5c509d22452c1adf6c663bd37d41a13e2f87033bf21cf0c7f712c367aceb1"


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


def test_cold_walk_to_the_cap_stays_small(monkeypatch):
    _cold(monkeypatch)
    tracemalloc.start()
    try:
        sf._psi_rational(2 * bv.MAX_DIMENSION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # 17 bytes per argument: about 3.4 MB


def test_walk_needs_no_mpmath_harmonic(monkeypatch):
    import mpmath

    def refuse(*args):
        raise AssertionError("mpmath.harmonic called")

    monkeypatch.setattr(mpmath, "harmonic", refuse)
    _cold(monkeypatch)
    for s in B.catalog():
        for n in [*range(s.min_n, 51), 30_000]:
            assert math.isfinite(B.eval_bound(s.id, n))
