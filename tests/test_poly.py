"""Dense F_p[X] arithmetic, and sympy as an independent oracle for the code built on it."""

import random

import pytest

from weilsums import curves, field, poly

PRIMES = (3, 5, 7, 11, 13, 31, 101)


def random_poly(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def test_trim_and_zero():
    assert poly.trim([1, 2, 0, 0]) == [1, 2]
    assert poly.trim([0, 0]) == []
    assert poly.mul([], [1, 2], 7) == []
    assert poly.sub([1, 2], [1, 2], 7) == []
    assert poly.deriv([5], 7) == []
    assert poly.gcd([], [], 7) == []


def test_small_known_values():
    p = 7
    # (X + 1)(X + 6) = X^2 - 1
    assert poly.mul([1, 1], [6, 1], p) == [6, 0, 1]
    assert poly.sub([1, 2, 3], [1, 2, 4], p) == [0, 0, 6]
    assert poly.deriv([4, 3, 2, 1], p) == [3, 4, 3]
    # X^7 has derivative 7 X^6 = 0 over F_7
    assert poly.deriv([0] * 7 + [1], p) == []
    assert poly.rem([6, 0, 1], [1, 1], p) == []
    assert poly.rem([0, 0, 1], [1, 1], p) == [1]
    assert poly.power([1, 1], 7, p) == [1] + [0] * 6 + [1]  # Frobenius
    assert poly.power([3, 1], 0, p) == [1]
    assert poly.gcd([6, 0, 1], [2, 2], p) == [1, 1]
    with pytest.raises(ZeroDivisionError):
        poly.rem([1, 2], [0, 0], p)


def test_division_identity_and_power_mod():
    rng = random.Random("polydiv")
    for _ in range(100):
        p = rng.choice(PRIMES)
        f = random_poly(rng, p, rng.randrange(0, 8))
        g = random_poly(rng, p, rng.randrange(1, 5))
        r = poly.rem(f, g, p)
        assert len(r) < len(g)
        # f - r is divisible by g: it vanishes modulo g, and gcd picks g up
        assert poly.rem(poly.sub(f, r, p), g, p) == []
        e = rng.randrange(0, 12)
        assert poly.power(f, e, p, g) == poly.rem(poly.power(f, e, p), g, p)
        d = poly.gcd(poly.mul(f, g, p), g, p)
        assert d[-1] == 1 and poly.rem(g, d, p) == []
        assert len(d) == len(g)
        # the exact quotient undoes a product, and refuses a division that leaves a remainder
        assert poly.quo(poly.mul(f, g, p), g, p) == poly.trim(f)
        if r:
            with pytest.raises(ArithmeticError):
                poly.quo(f, g, p)


def _sympy_poly(sympy, f, p):
    return sympy.Poly(list(reversed(f)), sympy.Symbol("x"), modulus=p)


def test_resultant_and_discriminant_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy-res")
    for _ in range(100):
        p = rng.choice(PRIMES)
        f = random_poly(rng, p, rng.randrange(1, 7))
        g = random_poly(rng, p, rng.randrange(1, 7))
        F, G = _sympy_poly(sympy, f, p), _sympy_poly(sympy, g, p)
        # sympy 1.14 returns -Res(F, G) when deg F < deg G and deg F * deg G is
        # odd, so it is asked with the higher degree first and the sign
        # (-1)^(deg F * deg G) of the swap is applied here
        if len(f) >= len(g):
            want = int(F.resultant(G))
        else:
            want = (-1) ** ((len(f) - 1) * (len(g) - 1)) * int(G.resultant(F))
        assert curves.resultant(f, g, p) == want % p
        assert curves.discriminant(f, p) == int(F.discriminant()) % p


def test_irreducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy-irr")
    for _ in range(100):
        p = rng.choice(PRIMES)
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [1]
        assert field._is_irreducible(f, p) == _sympy_poly(sympy, f, p).is_irreducible
