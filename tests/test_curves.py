"""Resultants, fiber discriminants, degeneracy products, and point counts."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from weilsums import cli, curves, field, poly
from weilsums.curves import CurveSpec
from weilsums.field import GuardExceeded


# --- independent oracle: Sylvester determinant over F_p ---


def sylvester_resultant(f, g, p):
    df, dg = len(f) - 1, len(g) - 1
    N = df + dg
    if N == 0:
        return 1
    rows = []
    frev = list(reversed(f))
    grev = list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (N - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (N - dg - 1 - i))
    mat = [[x % p for x in row] for row in rows]
    det = 1
    for c in range(N):
        piv = next((r for r in range(c, N) if mat[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det % p
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], p - 2, p)
        for r in range(c + 1, N):
            if mat[r][c]:
                fac = mat[r][c] * inv % p
                for cc in range(c, N):
                    mat[r][cc] = (mat[r][cc] - fac * mat[c][cc]) % p
    return det


def independent_discriminant(f, p):
    D = len(f) - 1
    if D <= 1:
        return 1
    fp = [i * c % p for i, c in enumerate(f)][1:]
    while fp and fp[-1] == 0:
        fp.pop()
    if not fp:
        return 0
    r = sylvester_resultant(f, fp, p)
    sign = -1 if (D * (D - 1) // 2) % 2 else 1
    return sign * r * pow(f[-1], p - 2, p) % p


def random_poly(rng, p, deg):
    f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
    return f


# --- resultant and discriminant ---


def test_resultant_frozen():
    # Res(X - 2, X - 3) = 3 - 2 ... as product of g over roots of f: g(2) = -1
    assert curves.resultant([-2, 1], [-3, 1], 13) == 12
    assert curves.resultant([5], [1, 0, 1], 13) == 25 % 13
    assert curves.resultant([1, 0, 1], [5], 13) == 25 % 13


def test_resultant_shared_root_is_zero():
    # both vanish at X = 1
    assert curves.resultant([-1, 1], [-1, 0, 1], 13) == 0


def test_resultant_zero_inputs():
    assert curves.resultant([], [1, 2], 13) == 0
    with pytest.raises(ValueError):
        curves.resultant([], [], 13)


def test_resultant_matches_sylvester():
    rng = random.Random("res")
    for _ in range(100):
        p = rng.choice((7, 13, 31, 101))
        f = random_poly(rng, p, rng.randrange(1, 6))
        g = random_poly(rng, p, rng.randrange(1, 6))
        assert curves.resultant(f, g, p) == sylvester_resultant(f, g, p)


def test_resultant_swap_sign():
    rng = random.Random("resswap")
    for _ in range(50):
        p = 31
        f = random_poly(rng, p, rng.randrange(1, 5))
        g = random_poly(rng, p, rng.randrange(1, 5))
        sign = -1 if ((len(f) - 1) * (len(g) - 1)) % 2 else 1
        assert curves.resultant(g, f, p) == sign * curves.resultant(f, g, p) % p


def test_resultant_multiplicative():
    rng = random.Random("resmul")
    for _ in range(50):
        p = 13
        f = random_poly(rng, p, rng.randrange(1, 4))
        g = random_poly(rng, p, rng.randrange(1, 4))
        h = random_poly(rng, p, rng.randrange(1, 4))
        lhs = curves.resultant(poly.mul(f, g, p), h, p)
        rhs = curves.resultant(f, h, p) * curves.resultant(g, h, p) % p
        assert lhs == rhs


def test_discriminant_quadratic():
    rng = random.Random("disc2")
    for _ in range(50):
        p = 31
        a, b, c = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
        assert curves.discriminant([c, b, a], p) == (b * b - 4 * a * c) % p


def test_discriminant_repeated_root():
    # (X - 1)^2
    assert curves.discriminant([1, -2, 1], 13) == 0


def test_discriminant_low_degree_and_validation():
    assert curves.discriminant([5], 13) == 1
    assert curves.discriminant([3, 4], 13) == 1
    with pytest.raises(ValueError):
        curves.discriminant([], 13)


def test_discriminant_matches_sylvester():
    rng = random.Random("discs")
    for _ in range(60):
        p = rng.choice((7, 13, 31))
        f = random_poly(rng, p, rng.randrange(2, 6))
        assert curves.discriminant(f, p) == independent_discriminant(f, p)


# --- the Y-fiber discriminant ---


def test_discriminant_f0y_frozen():
    assert curves.discriminant_f0y(2, 3, 1, 1, 31) == 0
    assert curves.discriminant_f0y(2, 3, 1, 2, 31) == 22
    assert curves.discriminant_f0y(2, 3, 5, 7, 31) == 12
    assert curves.discriminant_f0y(1, 3, 2, 1, 13) == 2
    # degree-1 fiber: empty root-difference product
    assert curves.discriminant_f0y(1, 2, 2, 1, 13) == 1
    # leading terms cancel: (Y-1)^4 - Y^4 has degree 3
    assert curves.discriminant_f0y(1, 4, 1, 0, 7) == 5


def test_discriminant_f0y_zero_fiber():
    with pytest.raises(ValueError):
        curves.discriminant_f0y(1, 2, 0, 0, 13)


def test_family_validation():
    with pytest.raises(ValueError):
        curves.discriminant_f0y(2, 4, 1, 1, 13)  # not coprime
    with pytest.raises(ValueError):
        curves.discriminant_f0y(3, 2, 1, 1, 13)  # m >= n
    with pytest.raises(ValueError):
        curves.delta_eval(1, 2, 1, 1, 2)  # p | n - m fails char condition
    with pytest.raises(ValueError):
        curves.delta_eval(2, 3, 1, 1, 3)  # p | m*n


# --- the degeneracy product ---


def test_delta_frozen_base_field():
    assert curves.delta_eval(1, 2, 2, 1, 13) == 12
    assert curves.delta_eval(1, 2, 1, 1, 13) == 0  # A^n = B^m
    assert curves.delta_eval(1, 2, 0, 0, 13) == 0  # zero fiber
    assert curves.delta_eval(1, 2, 3, 5, 13) == 6
    assert curves.delta_eval(1, 3, 2, 1, 13) == 11
    assert curves.delta_eval(2, 3, 1, 2, 31) == 12


def test_delta_frozen_extension_field():
    # n - m = 3 and 3 does not divide 10, so the roots live in F_121
    assert curves.delta_eval(2, 5, 1, 2, 11) == 0
    assert curves.delta_eval(2, 5, 3, 1, 11) == 0
    assert curves.delta_eval(2, 5, 0, 1, 11) == 6
    assert curves.delta_eval(1, 4, 2, 3, 7) == 5


def independent_delta(m, n, A, B, p):
    """Full recompute for cases whose roots of unity lie in the base field."""
    e = n - m
    roots = [x for x in range(1, p) if pow(x, e, p) == 1]
    assert len(roots) == e  # split case only
    A %= p
    B %= p
    if A == 0 and B == 0:
        return 0
    an, bm = pow(A, n, p), pow(B, m, p)
    out = m * n % p
    out = out * ((pow(-A % p, n, p) - pow(-B % p, m, p)) % p) % p
    out = out * ((an - bm) % p) % p
    for z in roots:
        if z == 1:
            continue
        t = (pow(pow(z, n, p) - 1, m, p) * an - pow(pow(z, m, p) - 1, n, p) * bm) % p
        out = out * t % p
    for z1 in roots:
        for z2 in roots:
            c1 = (1 + pow(z1, n, p) - pow(z2, n, p)) % p
            c2 = (1 + pow(z1, m, p) - pow(z2, m, p)) % p
            if c1 == 0 and c2 == 0:
                continue
            out = out * ((pow(c1, m, p) * an - pow(c2, n, p) * bm) % p) % p
    left = [0] * (m + 1)
    left[0] = -A % p
    left[m] = 1
    right = [0] * (n + 1)
    right[0] = -B % p
    right[n] = 1
    f0 = poly.sub(poly.power(left, n, p), poly.power(right, m, p), p)
    return out * independent_discriminant(f0, p) % p


def test_delta_matches_independent_on_split_cases():
    # (1,3) over p=13: square roots of unity in F_p; (1,4) over p=7: cube roots
    for m, n, p in ((1, 3, 13), (1, 4, 7), (2, 3, 31)):
        for A in range(p):
            for B in range(p):
                assert curves.delta_eval(m, n, A, B, p) == independent_delta(m, n, A, B, p)


def reference_products(m, n, A, B, p):
    """delta_eval's two root-of-unity products and its number of pairs with c = 0, taken
    over the splitting field F_p[X]/(f) of the (n - m)-th roots of unity that
    field.roots_of_unity builds: phi(w - 1) for w != 1, and phi(1 + w1 - w2) for c != 0."""
    f, roots = field.roots_of_unity(p, n - m)
    an, bm = pow(A, n, p), pow(B, m, p)

    def times(a, b):
        return poly.rem(poly.mul(a, b, p), f, p)

    def phi(c):
        return poly.sub(times(poly.power(c, m, p, f), [an]), times(poly.power(c, n, p, f), [bm]), p)

    first = [1]
    for w in roots[1:]:
        first = times(first, phi(poly.sub(w, [1], p)))
    second, zeros = [1], 0
    for w1 in roots:
        for w2 in roots:
            c = poly.sub([1], poly.sub(w2, w1, p), p)
            if c:
                second = times(second, phi(c))
            else:
                zeros += 1
    assert len(first) <= 1 and len(second) <= 1  # both lie in F_p
    return (first or [0])[0], (second or [0])[0], zeros


def test_cond_first_product_matches_resultant():
    # prod over e-th roots z != 1 of h(z) = Res((X^e-1)/(X-1), h) for monic quotient
    p, m, n = 11, 2, 5
    for A, B in ((0, 1), (3, 4), (7, 2)):
        h = poly.sub(
            poly.mul(poly.power([p - 1, 0, 0, 0, 0, 1], m, p), [pow(A, n, p)], p),
            poly.mul(poly.power([p - 1, 0, 1], n, p), [pow(B, m, p)], p),
            p,
        )
        first, _, _ = reference_products(m, n, A, B, p)
        assert first == curves.resultant([1, 1, 1], h, p)


def test_cond_first_product_is_resultant_of_phi():
    # prod over e-th roots w != 1 of phi(w - 1) = Res(1 + X + ... + X^(e-1), phi(X - 1)),
    # phi(c) = c^m A^n - c^n B^m, over F_p; the cyclotomic factor is monic
    rng = random.Random("phi-resultant")
    x_minus_1 = [-1, 1]
    for p in (5, 7, 11, 13, 17, 19, 23):
        for n in range(3, 7):
            for m in range(1, n - 1):  # e >= 2, so the product is not empty
                if math.gcd(m, n) != 1 or (m * n * (n - m)) % p == 0:
                    continue
                e = n - m
                for _ in range(3):
                    A, B = rng.randrange(p), rng.randrange(p)
                    an, bm = pow(A, n, p), pow(B, m, p)
                    phi = poly.sub(
                        poly.mul(poly.power(x_minus_1, m, p), [an], p),
                        poly.mul(poly.power(x_minus_1, n, p), [bm], p),
                        p,
                    )
                    first, _, _ = reference_products(m, n, A, B, p)
                    assert first == curves.resultant([1] * e, phi, p), (p, m, n, A, B)


def test_unity_products_match_the_splitting_field():
    # the F_p products of delta_eval against the splitting-field reference on every
    # coprime m < n <= 9 at p <= 31, with A = 0, B = 0 and random pairs; some
    # shapes have pairs with c = 0, which both routes must skip
    rng = random.Random("unity-oracle")
    shapes, with_zero = 0, 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for n in range(2, 10):
            for m in range(1, n):
                if math.gcd(m, n) != 1 or (m * n * (n - m)) % p == 0:
                    continue
                pairs = [(0, 1), (1, 0), (1, 1), (1, 2), (0, rng.randrange(1, p)), (rng.randrange(p), rng.randrange(1, p))]
                for A, B in pairs:
                    first, second, zeros = reference_products(m, n, A, B, p)
                    assert curves._unity_products(m, n, A, B, p) == first * second % p, (p, m, n, A, B)
                assert curves._unity_polys(p, n - m)[2] == zeros, (p, m, n)
                shapes += 1
                with_zero += zeros > 0
    assert with_zero >= 10 and shapes - with_zero >= 100, (shapes, with_zero)


def delta_grid_digest():
    # SHA-256 of delta_eval over every admissible (p, m, n) with p <= 31 and
    # n <= 7, on a strided (A, B) grid
    h = hashlib.sha256()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for n in range(2, 8):
            for m in range(1, n):
                if math.gcd(m, n) != 1 or (m * n * (n - m)) % p == 0:
                    continue
                for A in range(0, p, 8):
                    for B in range(0, p, 11):
                        h.update(f"{p},{m},{n},{A},{B},{curves.delta_eval(m, n, A, B, p)}\n".encode())
    return h.hexdigest()


DELTA_GRID_DIGEST = "8c81102e801f07fb9ab0b015d059bdc9168c1a8f52edd3f4b73403a81ecf9a44"


def test_delta_grid_digest():
    # recorded before the root-of-unity products were rewritten, so it pins their values exactly
    assert delta_grid_digest() == DELTA_GRID_DIGEST


def test_delta_builds_no_splitting_field(monkeypatch):
    # the products are taken over F_p: the splitting-field reference is never called
    def refuse(*args):
        raise AssertionError("delta_eval built a splitting field")

    monkeypatch.setattr(field, "roots_of_unity", refuse)
    monkeypatch.setattr(field, "_least_irreducible", refuse)
    curves._unity_polys.cache_clear()
    assert delta_grid_digest() == DELTA_GRID_DIGEST


def test_delta_with_roots_in_a_degree_60_extension():
    # the 61st roots of unity lie in F_{7^60}; the splitting-field route took 35 s here
    assert curves.delta_eval(1, 62, 1, 2, 7) == 3


def test_delta_reduces_arguments():
    assert curves.delta_eval(1, 2, 15, 14, 13) == curves.delta_eval(1, 2, 2, 1, 13)


# --- curve specs and point counts ---


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(13, 2, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        CurveSpec(13, 1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        CurveSpec(13, 1, 2, 13, 0, 0)
    spec = CurveSpec(13, 1, 2, 1, 15, -1)
    assert (spec.A, spec.B) == (2, 12)
    assert CurveSpec(13, 2, 3, 4, 0, 0).degree == 24


def test_count_points_axes():
    # A = B = 0, (m,n,s) = (1,2,1): F = 2XY, so the zero set is the two axes
    for p in (3, 5, 13, 31, 199):
        assert curves.count_points(CurveSpec(p, 1, 2, 1, 0, 0)) == 2 * p - 1


def test_count_points_frozen():
    assert curves.count_points(CurveSpec(31, 1, 2, 1, 2, 1)) == 30
    # p divides n: F collapses to the nonzero constant B - A
    assert curves.count_points(CurveSpec(13, 1, 13, 1, 0, 1)) == 0
    # non-coprime pairs are countable even though delta_eval rejects them
    assert curves.count_points(CurveSpec(13, 2, 4, 1, 0, 0)) == 73


def double_loop_count(spec):
    """Points of F(X, Y) = 0 by evaluating F at every (x, y) in F_p^2."""
    p, m, n, s = spec.p, spec.m, spec.n, spec.s
    want = 0
    for x in range(p):
        for y in range(p):
            u = (pow(x, s * m, p) + pow(y, s * m, p) - spec.A) % p
            v = (pow(x, s * n, p) + pow(y, s * n, p) - spec.B) % p
            if pow(u, n, p) == pow(v, m, p):
                want += 1
    return want


def test_count_points_matches_double_loop():
    rng = random.Random("curvepts")
    for _ in range(8):
        p = rng.choice((5, 7, 11, 13))
        m = rng.randrange(1, 3)
        n = m + rng.randrange(1, 3)
        s = rng.randrange(1, 4)
        if s % p == 0:
            s += 1
        spec = CurveSpec(p, m, n, s, rng.randrange(p), rng.randrange(p))
        assert curves.count_points(spec) == double_loop_count(spec)


# the verify suite's cells, a pair that is not coprime, s = 3, and p | n at p = 13;
# three with c = gcd(s*gcd(m, n), p - 1) > 1 at some p and axis moduli
# gcd(sm, p - 1) != gcd(sn, p - 1); and exponents past 2^63, which are reduced
# mod p - 1 before any int64 product
_BIG = 2**64 + 1
_ORACLE_SHAPES = cli._CURVE_CELLS + ((2, 4, 1), (1, 2, 3), (2, 3, 3), (1, 13, 1), (2, 5, 3), (2, 6, 4), (3, 6, 2))
_ORACLE_SHAPES += ((_BIG, _BIG + 2, 1), (2, _BIG, 3), (_BIG, 2 * _BIG, 1), (3, 2**70, 2**65 + 1))


@pytest.mark.parametrize("m,n,s", _ORACLE_SHAPES, ids=lambda v: str(v))
def test_count_points_every_draw_matches_double_loop(m, n, s):
    # at p = 2 and 3 the table of g^j has one and two entries
    for p in (2, 3, 5, 7, 11, 13):
        if s % p == 0:  # CurveSpec rejects these
            continue
        for A in range(p):
            for B in range(p):
                spec = CurveSpec(p, m, n, s, A, B)
                assert curves.count_points(spec) == double_loop_count(spec), (p, A, B)


def test_count_tables_cache_serves_only_its_cell():
    # alternate two cells of one prime and return to the first: each count
    # must come from its own cell's tables, and one entry is ever held
    curves._count_tables.cache_clear()
    draws = [(2, 3, 1, 4, 9), (1, 3, 2, 4, 9), (2, 3, 1, 7, 1), (1, 3, 2, 0, 5), (2, 3, 1, 4, 9)]
    for m, n, s, A, B in draws:
        spec = CurveSpec(31, m, n, s, A, B)
        assert curves.count_points(spec) == double_loop_count(spec), (m, n, s, A, B)
        assert curves._count_tables.cache_info().currsize == 1
    # another draw of the last cell is served from the cache
    hits = curves._count_tables.cache_info().hits
    curves.count_points(CurveSpec(31, 2, 3, 1, 1, 1))
    assert curves._count_tables.cache_info().hits == hits + 1


@pytest.mark.parametrize("p", (307, 1999, 100003))
def test_count_points_closed_form(p):
    # (m, n, s) = (1, 2, 1): F = 2(X - A)(Y - A) - (A^2 - B), two lines through
    # (A, A) when B = A^2 and a hyperbola with p - 1 points otherwise
    rng = random.Random(f"closed:{p}")
    for _ in range(4):
        A = rng.randrange(p)
        for B in (A * A % p, rng.randrange(p)):
            want = 2 * p - 1 if B == A * A % p else p - 1
            assert curves.count_points(CurveSpec(p, 1, 2, 1, A, B)) == want, (A, B)


def pair_histogram(p, m, n, s):
    """{(a, b): #{(x, y) : x^{sm} + y^{sm} = a, x^{sn} + y^{sn} = b}} by enumeration."""
    hist = {}
    for x in range(p):
        for y in range(p):
            key = ((pow(x, s * m, p) + pow(y, s * m, p)) % p, (pow(x, s * n, p) + pow(y, s * n, p)) % p)
            hist[key] = hist.get(key, 0) + 1
    return hist


def test_count_tables_read_only():
    H, label, su, sv = curves._count_tables(13, 2, 3, 1)
    for table in (H, su, sv):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize("m,n,s", _ORACLE_SHAPES, ids=lambda v: str(v))
def test_count_tables_invariants(m, n, s):
    for p in (2, 3, 5, 7, 11, 13):
        if s % p == 0:
            continue
        H, label, su, sv = curves._count_tables(p, m, n, s)
        a, b = np.divmod(np.arange(p * p), p)
        labels = label(a, b)
        # every label is an orbit: reached, and of the size the segment says
        N = p - 1
        d = math.gcd(m, n)
        c, ca, cb = math.gcd(s * d, N), math.gcd(s * m, N), math.gcd(s * n, N)
        sizes = np.bincount(labels, minlength=H.size)
        assert H.size == N * c + ca + cb + 1
        assert sizes.tolist() == [N // c] * (N * c) + [N // ca] * ca + [N // cb] * cb + [1]
        # sum of H times orbit size is p^2, and H is the pair histogram
        assert int((H * sizes).sum()) == p * p
        hist = pair_histogram(p, m, n, s)
        assert H[labels].tolist() == [hist.get((int(x), int(y)), 0) for x, y in zip(a, b)]
        # S = {u^n = v^m} has 1 + N gcd(d, N) <= H.size points
        pairs = sorted(zip(su.tolist(), sv.tolist()))
        assert pairs == [(u, v) for u in range(p) for v in range(p) if pow(u, n, p) == pow(v, m, p)]
        assert len(pairs) == 1 + N * math.gcd(d, N) <= H.size


def test_count_tables_allocate_o_of_p():
    # a p x p table at p = 1999 is 4 million entries, 32 MB as int64
    curves._count_tables.cache_clear()
    tracemalloc.start()
    try:
        curves._count_tables(1999, 2, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_count_tables_peak_at_a_million():
    # the four power maps are built one at a time: tracemalloc peaked at 91.6 MiB here,
    # and at 114.5 MiB when they were built as one 4 x p block
    curves._count_tables.cache_clear()
    tracemalloc.start()
    try:
        curves._count_tables(1000003, 1, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        curves._count_tables.cache_clear()
    assert peak < 104 << 20, peak


def test_count_points_guard():
    # c = gcd(2052, 2052): the label table would hold 2052^2 + 2*2052 + 1 entries
    with pytest.raises(GuardExceeded) as exc:
        curves.count_points(CurveSpec(2053, 1, 2, 2052, 0, 0))
    assert exc.value.guard == "label table"
    assert exc.value.actual == 2053**2 > curves.LABEL_TABLE_LIMIT
    # the largest table below p = 2000 fits.  With s = p - 1, x^s is 1 for x != 0,
    # so a point with k nonzero coordinates has (u, v) = (k - A, k - B): the
    # count is the number of (x, y) with the k that solve (k - A)^2 = k - B
    p = 1999
    for k, points in ((1, 2 * (p - 1)), (2, (p - 1) ** 2)):
        B = (k - (k - 5) ** 2) % p
        assert curves.count_points(CurveSpec(p, 1, 2, p - 1, 5, B)) == points


def test_check_curve_bound_asserted():
    rep = curves.check_curve_bound(CurveSpec(31, 2, 3, 2, 1, 2))
    assert rep.spec.degree == 12
    assert rep.count == 48
    assert rep.delta == 12
    assert rep.in_hypothesis
    assert rep.holds is True
    assert abs(rep.bound - (4 * 12 ** (4 / 3) * 31 ** (2 / 3) + 3 * 31)) < 1e-9
    assert abs(rep.ratio - rep.count / rep.bound) < 1e-15


def test_check_curve_bound_not_asserted():
    # degree 15 >= p = 13: outside the hypothesis
    rep = curves.check_curve_bound(CurveSpec(13, 1, 3, 5, 2, 1))
    assert not rep.in_hypothesis
    assert rep.holds is None
    assert rep.delta == 11
    # degenerate member: delta = 0
    rep0 = curves.check_curve_bound(CurveSpec(13, 1, 2, 1, 1, 1))
    assert rep0.delta == 0
    assert rep0.holds is None
    assert rep0.count == 25


def test_check_curve_bound_sweep_holds():
    rng = random.Random("curvesweep")
    hits = 0
    for _ in range(30):
        p = rng.choice((31, 61, 101))
        m, n = rng.choice(((1, 2), (2, 3), (1, 3)))
        s = rng.randrange(1, 3)
        A, B = rng.randrange(p), rng.randrange(p)
        rep = curves.check_curve_bound(CurveSpec(p, m, n, s, A, B))
        if rep.holds is not None:
            assert rep.holds is True
            hits += 1
    assert hits > 10  # the sweep must actually exercise the asserted branch
