"""Exact exponent recursion, closed-form bounds, and window membership."""

import math
import random
from fractions import Fraction

import pytest

from weilsums import exponents
from weilsums.exponents import (
    AdmissibleRange,
    admissible_range,
    as_fraction,
    binomial_bound,
    curve_bound,
    eta,
    eta_table,
    induction_trace,
    kappa,
    kloosterman_bound,
    monomial_bound,
    q3_bound,
    theorem_bound,
    window_limits,
)
from weilsums.field import divisors, is_prime

TENTH = Fraction(1, 10)


def test_as_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("7/10") == Fraction(7, 10)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)
    with pytest.raises(TypeError):
        as_fraction(0.1)
    with pytest.raises(TypeError):
        as_fraction(None)


def test_eta_base_values():
    assert eta(1, TENTH) == Fraction(7, 270)
    assert eta(2, TENTH) == Fraction(7, 270)
    assert eta(2, Fraction(3, 10)) == Fraction(7, 90)
    rng = random.Random("etabase")
    for _ in range(20):
        eps = Fraction(rng.randrange(1, 50), rng.randrange(50, 200))
        assert eta(1, eps) == eta(2, eps) == Fraction(7, 27) * eps


def test_eta_kappa_frozen():
    assert kappa(3, TENTH) == 18
    assert eta(3, TENTH) == Fraction(7, 3240)
    assert eta(3, TENTH) == Fraction(7, 18 * 18) * TENTH


def test_kappa_closed_form_level3():
    # kappa_3 = ceil((1 - 7e/3) * 27/(14e) + 3) = ceil(27/(14e) - 3/2 + 3)
    rng = random.Random("kappa3")
    for _ in range(50):
        eps = Fraction(rng.randrange(1, 99), rng.randrange(100, 400))
        if eps >= Fraction(1, 2):
            continue
        want = math.ceil((1 - Fraction(7, 3) * eps) / (2 * Fraction(7, 27) * eps) + 3)
        assert kappa(3, eps) == want
        assert eta(3, eps) == Fraction(7, 18) * eps / want


def test_recursion_consistency():
    # each level satisfies its defining pair of equations exactly
    for eps in (Fraction(1, 100), TENTH, Fraction(1, 4)):
        for n in range(3, 12):
            k = kappa(n, eps)
            prev = eta(n - 1, eps)
            assert k == math.ceil((n - 2 - Fraction(7, 3) * eps) / (2 * prev) + 3)
            assert eta(n, eps) == Fraction(7, 18) * eps / k
            assert k >= 4


def test_eta_memo_hits_equal_the_recursion(monkeypatch):
    # a memo hit returns what the upward walk computed, in any query order, from an empty memo
    for eps in (TENTH, Fraction(1, 3), Fraction(7, 100), Fraction(1, 1000)):
        want = [Fraction(7, 27) * eps] * 2
        for n in range(3, 41):
            k = math.ceil((n - 2 - Fraction(7, 3) * eps) / (2 * want[-1]) + 3)
            want.append(Fraction(7, 18) * eps / k)
        for order in (range(40, 0, -1), range(1, 41), random.Random(str(eps)).sample(range(1, 41), 40)):
            monkeypatch.setattr(exponents, "_eta_memo", {})
            for n in order:
                assert eta(n, eps) == want[n - 1]
                assert eta(n, str(eps)) == want[n - 1]


def test_eta_positive_and_decreasing():
    for eps in (Fraction(1, 100), TENTH, Fraction(1, 4)):
        prev = None
        for n in range(2, 11):
            val = eta(n, eps)
            assert val > 0
            if prev is not None:
                assert val < prev
            prev = val


def test_kappa_monotone_in_eps():
    # a larger eps never needs a larger auxiliary moment order
    grid = [Fraction(1, d) for d in (20, 16, 12, 10, 8, 6, 4)]
    for n in (3, 4, 5):
        vals = [kappa(n, e) for e in grid]
        assert vals == sorted(vals, reverse=True)


def test_eta_table():
    table = eta_table(4, TENTH)
    assert table.eps == TENTH
    assert table.rows == (
        (1, None, Fraction(7, 270)),
        (2, None, Fraction(7, 270)),
        (3, 18, Fraction(7, 3240)),
        (4, kappa(4, TENTH), eta(4, TENTH)),
    )
    with pytest.raises(ValueError):
        eta_table(0, TENTH)


def test_validation():
    with pytest.raises(ValueError):
        eta(0, TENTH)
    with pytest.raises(ValueError):
        eta(3, Fraction(0))
    with pytest.raises(ValueError):
        kappa(2, TENTH)
    with pytest.raises(TypeError):
        eta(3, 0.1)


def test_binomial_bound_crossover():
    # tau^(20/27) p^(1/9) = p^(1/2) exactly at tau = p^(21/40)
    for p in (10**3, 10**6, 10**9):
        tau = p ** (21 / 40)
        assert abs(binomial_bound(p, tau) - math.sqrt(p)) < 1e-9 * math.sqrt(p)
    assert kloosterman_bound(101, 10) == binomial_bound(101, 10)


def test_monomial_bound():
    # small tau: the subgroup term wins; tau near p: the Weil term wins
    p = 10007
    assert monomial_bound(p, 4) == math.sqrt(4) * p ** (1 / 6) * math.log(p) ** (1 / 6)
    assert monomial_bound(p, p - 1) == math.sqrt(p)


def test_q3_bound_crossover():
    # the two terms meet at tau = p^(3/4)
    for p in (10**4, 10**8):
        tau = p ** (3 / 4)
        t1 = tau ** (11 / 3)
        t2 = tau**5 / p
        assert abs(t1 - t2) < 1e-9 * t1
        assert abs(q3_bound(p, tau) - 2 * t1) < 1e-6 * t1


def test_curve_bound_values():
    assert abs(curve_bound(1, 13) - (4 * 13 ** (2 / 3) + 39)) < 1e-12
    assert abs(curve_bound(1, 13) - 61.11507) < 1e-4
    with pytest.raises(ValueError):
        curve_bound(0, 13)


def test_bound_validation():
    with pytest.raises(ValueError):
        binomial_bound(13, 0)
    with pytest.raises(ValueError):
        binomial_bound(13, 13)
    with pytest.raises(ValueError):
        monomial_bound(1, 1)


def test_admissible_range_examples():
    rng = admissible_range(13, 4, TENTH)
    assert isinstance(rng, AdmissibleRange)
    assert rng.above_lower and rng.below_upper and rng.inside
    # tau = 1 is below the lower edge for every p >= 2
    assert not admissible_range(13, 1, TENTH).above_lower
    # the full group overshoots the upper edge once p is moderately large
    for p in (17, 101, 1009):
        assert not admissible_range(p, p - 1, TENTH).below_upper


def test_admissible_range_exact_boundaries():
    # the comparisons are exact integer power tests: tau^b >= p^a
    # with eps = 1/14 the lower edge is p^(1/2); 4^2 = 16 sits exactly on it
    eps = Fraction(1, 14)
    assert admissible_range(16, 4, eps).above_lower
    assert not admissible_range(17, 4, eps).above_lower
    # upper edge tau^4 <= p^3: 8^4 = 4096 = 16^3
    assert admissible_range(16, 8, eps).below_upper
    assert not admissible_range(16, 9, eps).below_upper


def test_window_limits_match_admissible_range():
    # the limits that verify's sweeps decide once per prime give every tau | p - 1
    # the verdicts of admissible_range, and each is the exact edge of its window
    for eps in (Fraction(1, 10), Fraction(1, 7), Fraction(2, 5)):
        lower = Fraction(3, 7) + eps
        a, b = lower.numerator, lower.denominator
        for p in (p for p in range(2, 3001) if is_prime(p)):
            lo, hi = window_limits(p, eps)
            assert lo**b >= p**a > (lo - 1) ** b
            assert hi**4 <= p**3 < (hi + 1) ** 4
            for tau in divisors(p - 1):
                w = admissible_range(p, tau, eps)
                assert (w.above_lower, w.below_upper) == (tau >= lo, tau <= hi), (p, tau, eps)
    # an exponent of 1 or more leaves no tau < p above the lower edge
    assert window_limits(1009, Fraction(4, 7))[0] == 1009
    assert window_limits(16, Fraction(1, 14)) == (4, 8)


def test_theorem_bound():
    val = theorem_bound(13, 4, 3, TENTH)
    assert abs(val - 4 * 13 ** (-float(Fraction(7, 3240)))) < 1e-12
    with pytest.raises(ValueError):
        theorem_bound(13, 1, 3, TENTH)  # below the window


def test_theorem_value_is_the_bound_without_the_check():
    # the theorem suite's bound: theorem_bound's value, without the window check
    # that _cells has made
    for p, tau, n in ((13, 4, 3), (1009, 1008, 1), (1009, 252, 2)):
        assert exponents._theorem_value(p, tau, n, TENTH) == theorem_bound(p, tau, n, TENTH)
    assert exponents._theorem_value(13, 1, 3, TENTH) == 13 ** (-float(eta(3, TENTH)))


def test_induction_trace():
    levels = induction_trace(3, TENTH)
    assert len(levels) == 1
    lv = levels[0]
    assert (lv.level, lv.k, lv.l, lv.u, lv.v) == (3, 18, 3, 2, 2)
    deep = induction_trace(6, TENTH)
    assert [lv.level for lv in deep] == [6, 5, 4, 3]
    for lv in deep:
        assert lv.k == kappa(lv.level, TENTH)
        assert lv.l == 3
        assert lv.u == lv.level - 1
        assert lv.v == 2
    with pytest.raises(ValueError):
        induction_trace(2, TENTH)
