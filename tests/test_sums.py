"""Exponential sum evaluators: complete, subgroup, twisted, Kloosterman, inversive."""

import cmath
import math
import random

import pytest

from weilsums import field, sums
from weilsums.sums import SparsePolynomial


def poly(*pairs, constant=0):
    return SparsePolynomial.from_pairs(pairs, constant)


# --- polynomial container ---


def test_parse_format_roundtrip():
    f = SparsePolynomial.parse("3*x^2+1*x^7")
    assert f.terms == ((2, 3), (7, 1))
    assert f.format() == "3*x^2+1*x^7"
    assert SparsePolynomial.parse(f.format()) == f
    # uppercase accepted on input, lowercase emitted
    assert SparsePolynomial.parse("2*X^5").format() == "2*x^5"


def test_parse_errors():
    for bad in ("", "x^2", "3*x^0", "3*x^2+", "-1*x^2", "3*x^2+4*x^2", "0*x^2"):
        with pytest.raises(ValueError):
            SparsePolynomial.parse(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SparsePolynomial(((0, 3),))
    with pytest.raises(ValueError):
        SparsePolynomial(((2, 3), (2, 4)))
    with pytest.raises(ValueError):
        SparsePolynomial(((3, 1), (2, 4)))
    with pytest.raises(ValueError):
        SparsePolynomial(((2, 0),))


def test_from_pairs_merges():
    # from_pairs merges duplicate exponents and drops zeros
    assert poly((2, 3), (2, 4)).terms == ((2, 7),)
    assert poly((2, 3), (2, -3)).terms == ()
    assert poly((5, 1), (2, 4)).terms == ((2, 4), (5, 1))


def test_evaluate():
    f = poly((1, 2), (3, 5))  # 2x + 5x^3
    for x in range(13):
        assert f.evaluate(x, 13) == (2 * x + 5 * x**3) % 13
    g = poly((1, 1), constant=4)
    assert g.evaluate(3, 13) == 7


def test_dilate():
    f = poly((1, 2), (3, 5))  # 2x + 5x^3
    g = f.dilate(2, 13)  # f(2x): 4x + 40x^3 = 4x + x^3
    assert g.terms == ((1, 4), (3, 1))
    for x in range(13):
        assert g.evaluate(x, 13) == f.evaluate(2 * x % 13, 13)
    # dilation by 0 collapses to the constant
    assert f.dilate(0, 13).terms == ()


def test_degree_and_accessors():
    f = poly((2, 3), (7, 1))
    assert f.degree == 7
    assert f.exponents() == (2, 7)
    assert f.coefficients() == (3, 1)


# --- complete sums ---


def test_complete_sum_linear_cancels():
    for p in (3, 13, 101):
        s = sums.complete_sum(p, poly((1, 1)))
        assert abs(s.value) < 1e-10 * p
        assert s.term_count == p


def test_complete_sum_gauss():
    s = sums.complete_sum(13, poly((2, 1)))
    assert abs(abs(s.value) - math.sqrt(13)) < 1e-9


def test_subgroup_sum_example():
    G = field.subgroup(13, 4)
    s = sums.subgroup_sum(G, poly((1, 1)))
    direct = sum(cmath.exp(2j * cmath.pi * g / 13) for g in (8, 12, 5, 1))
    assert abs(s.value - direct) < 1e-12
    assert abs(s.value - 0.2738905549642181) < 1e-12
    assert abs(s.value.imag) < 1e-12
    assert s.term_count == 4


def test_subgroup_sum_full_group_linear():
    # over all of F_p^* a nonzero linear exponent sums to -1
    for p in (5, 13, 31):
        G = field.subgroup(p, p - 1)
        for a in (1, 2, p - 1):
            s = sums.subgroup_sum(G, poly((1, a)))
            assert abs(s.value - (-1)) < 1e-8 * p


def test_subgroup_sum_trivial_group():
    G = field.subgroup(13, 1)
    f = poly((3, 5))
    s = sums.subgroup_sum(G, f)
    assert abs(s.value - field.prime_modulus(13).character(5)) < 1e-15


def test_subgroup_sum_shift_covariance():
    # adding a constant multiplies the sum by a unit
    rng = random.Random("shift")
    G = field.subgroup(31, 6)
    for _ in range(40):
        e = rng.randrange(1, 10)
        a = rng.randrange(1, 31)
        c = rng.randrange(31)
        f = poly((e, a))
        g = poly((e, a), constant=c)
        lhs = sums.subgroup_sum(G, g).value
        rhs = field.prime_modulus(31).character(c) * sums.subgroup_sum(G, f).value
        assert abs(lhs - rhs) < 1e-10 * G.tau


def test_subgroup_sum_dilation_invariance():
    # substituting x -> hx for h in the subgroup permutes the orbit
    rng = random.Random("dilation")
    G = field.subgroup(101, 20)
    f = poly((1, 3), (4, 7), (9, 2))
    base = sums.subgroup_sum(G, f).value
    for _ in range(10):
        h = rng.choice(G.elements)
        assert abs(sums.subgroup_sum(G, f.dilate(h, 101)).value - base) < 1e-10 * G.tau


def test_subgroup_sum_conjugation():
    rng = random.Random("conj")
    for _ in range(20):
        p, tau = 31, 10
        G = field.subgroup(p, tau)
        e = rng.randrange(1, 12)
        a = rng.randrange(1, p)
        s = sums.subgroup_sum(G, poly((e, a))).value
        t = sums.subgroup_sum(G, poly((e, p - a))).value
        assert abs(t - s.conjugate()) < 1e-10 * tau


def test_magnitude_triangle_inequality():
    rng = random.Random("tri")
    for _ in range(50):
        p = rng.choice((13, 31, 101))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        e = rng.randrange(1, 2 * tau + 1)
        a = rng.randrange(1, p)
        s = sums.subgroup_sum(G, poly((e, a)))
        assert s.magnitude <= tau + 1e-9


def test_incomplete_subgroup_sum():
    G = field.subgroup(13, 4)
    f = poly((1, 1))
    assert sums.incomplete_subgroup_sum(G, f, 0).value == 0
    first = sums.incomplete_subgroup_sum(G, f, 1)
    assert abs(first.value - field.prime_modulus(13).character(8)) < 1e-15
    full = sums.incomplete_subgroup_sum(G, f, 4)
    assert full.value == sums.subgroup_sum(G, f).value
    with pytest.raises(ValueError):
        sums.incomplete_subgroup_sum(G, f, 5)


def test_twisted_sum_zero_twist_is_plain():
    G = field.subgroup(13, 4)
    f = poly((1, 1), (3, 5))
    assert sums.twisted_sum(G, f, 0).value == sums.subgroup_sum(G, f).value


def test_twisted_sum_pure_twist_cancels():
    # f = 0: sum of tau-th roots of unity weighted by a nontrivial twist
    G = field.subgroup(13, 4)
    zero = SparsePolynomial(())
    for b in (1, 2, 3):
        s = sums.twisted_sum(G, zero, b)
        assert abs(s.value) < 1e-10
    assert abs(sums.twisted_sum(G, zero, 4).value - 4) < 1e-10


def test_twisted_sum_direct():
    G = field.subgroup(13, 4)
    f = poly((1, 1))
    b = 1
    direct = sum(
        cmath.exp(2j * cmath.pi * pow(8, x, 13) / 13)
        * cmath.exp(2j * cmath.pi * b * x / 4)
        for x in range(1, 5)
    )
    assert abs(sums.twisted_sum(G, f, b).value - direct) < 1e-12


# --- Kloosterman and inversive sums ---


def test_kloosterman_example():
    G = field.subgroup(13, 4)
    s = sums.kloosterman_subgroup_sum(G, 1, 1)
    want = 2 + 2 * math.cos(4 * math.pi / 13)
    assert abs(s.value - want) < 1e-12
    assert abs(s.value - 3.136129493462312) < 1e-12


def test_kloosterman_symmetry():
    # K(a,b) = K(b,a): substituting g -> g^{-1} swaps the roles
    rng = random.Random("kloos")
    for _ in range(100):
        p = rng.choice((13, 31, 61))
        tau = rng.choice([t for t in field.divisors(p - 1) if t > 1])
        G = field.subgroup(p, tau)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        lhs = sums.kloosterman_subgroup_sum(G, a, b).value
        rhs = sums.kloosterman_subgroup_sum(G, b, a).value
        assert abs(lhs - rhs) < 1e-10 * tau


def test_kloosterman_degenerate_b_zero():
    G = field.subgroup(13, 4)
    s = sums.kloosterman_subgroup_sum(G, 2, 0)
    t = sums.subgroup_sum(G, poly((1, 2)))
    assert abs(s.value - t.value) < 1e-12


def test_inversive_example():
    G = field.subgroup(13, 4)
    s = sums.inversive_subgroup_sum(G, 1, 1)
    want = complex(-0.28234039043957426, -0.06959065608316048)
    assert abs(s.value - want) < 1e-12
    assert s.excluded == 1
    assert s.term_count == 3
    assert abs(s.magnitude - 0.29079022591492987) < 1e-12


def test_inversive_excluded_count():
    # a*g + b = 0 has at most one solution in the subgroup
    rng = random.Random("invex")
    for _ in range(60):
        p = rng.choice((13, 31, 101))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        s = sums.inversive_subgroup_sum(G, a, b)
        hit = sum(1 for g in G.elements if (a * g + b) % p == 0)
        assert s.excluded == hit <= 1
        assert s.term_count == tau - hit


def test_inversive_b_zero_reduces_to_subgroup_sum():
    # (a g)^{-1} runs over a^{-1} G
    G = field.subgroup(13, 4)
    a = 3
    ainv = pow(a, -1, 13)
    s = sums.inversive_subgroup_sum(G, a, 0)
    t = sums.subgroup_sum(G, poly((1, ainv)))
    assert abs(s.value - t.value) < 1e-12
    assert s.excluded == 0


def test_inversive_degenerate_a_zero():
    G = field.subgroup(13, 4)
    # a = 0, b != 0: every term is the constant e_p(b^{-1})
    s = sums.inversive_subgroup_sum(G, 0, 2)
    want = 4 * field.prime_modulus(13).character(pow(2, -1, 13))
    assert abs(s.value - want) < 1e-12
    assert s.excluded == 0
    # a = b = 0: everything is excluded
    z = sums.inversive_subgroup_sum(G, 13, 0)
    assert z.value == 0
    assert z.term_count == 0
    assert z.excluded == 4


def test_finish_checks_triangle_inequality():
    # every summand is on the unit circle, so |S| <= terms; the check survives python -O
    assert sums._finish([1j, 1j], 2).magnitude == 2
    with pytest.raises(ArithmeticError):
        sums._finish([1.0, 1.0, 1.0], 2)
