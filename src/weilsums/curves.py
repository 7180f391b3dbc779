"""Point counts and nondegeneracy certificates for the curve family

    F(X, Y) = (X^{sm} + Y^{sm} - A)^n - (X^{sn} + Y^{sn} - B)^m

over F_p, with n > m >= 1 coprime and d = s*m*n.  delta_eval evaluates the
product of degeneracy conditions whose nonvanishing certifies that the s = 1
member is irreducible of full degree, so the point count obeys the generic
bound.  Univariate polynomials are dense ascending coefficient lists over F_p
(see weilsums.poly).

Point counts factor through two tables of the cell (p, m, n, s) that do not
depend on (A, B): the pair histogram H[a, b] = #{(x, y) : x^{sm} + y^{sm} = a,
x^{sn} + y^{sn} = b} and the set S = {(u, v) : u^n = v^m}.  A point (x, y) is
on the curve exactly when its pair (a, b) satisfies (a - A, b - B) in S, so
grouping the points by their pair gives
count(A, B) = sum over (u, v) in S of H[u + A, v + B], one gather of |S| entries
per (A, B).
"""

import functools
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import poly
from .field import GuardExceeded, least_primitive_root, powers, prime_modulus, roots_of_unity

POINT_COUNT_LIMIT = 2000


def resultant(f, g, p: int) -> int:
    """Res(f, g) = lc(f)^deg(g) * prod of g over the roots of f, computed mod p.

    Uses the Euclidean recurrence; returns 0 when f and g share a root.
    """
    f = poly.trim(c % p for c in f)
    g = poly.trim(c % p for c in g)
    if not f and not g:
        raise ValueError("resultant of two zero polynomials")
    if not f or not g:
        return 0
    res = 1
    while True:
        df, dg = len(f) - 1, len(g) - 1
        if df == 0:
            return res * pow(f[0], dg, p) % p
        if dg == 0:
            return res * pow(g[0], df, p) % p
        if df < dg:
            f, g = g, f
            if (df * dg) % 2:
                res = -res % p
            continue
        r = poly.rem(f, g, p)
        if not r:
            return 0
        # Res(f, g) = (-1)^(df*dg) lc(g)^(df - deg r) Res(g, r)
        if (df * dg) % 2:
            res = -res % p
        res = res * pow(g[-1], df - (len(r) - 1), p) % p
        f, g = g, r


def discriminant(f, p: int) -> int:
    """disc(f) = (-1)^(D(D-1)/2) Res(f, f') / lc(f) mod p, D = deg f.

    Degree 0 and 1 have empty root-difference product, so the result is 1.
    """
    f = poly.trim(c % p for c in f)
    if not f:
        raise ValueError("discriminant of the zero polynomial")
    D = len(f) - 1
    if D <= 1:
        return 1
    fp = poly.deriv(f, p)
    if not fp:
        return 0
    r = resultant(f, fp, p)
    sign = -1 if (D * (D - 1) // 2) % 2 else 1
    return sign * r * pow(f[-1], p - 2, p) % p


def _f0y(m: int, n: int, A: int, B: int, p: int):
    """F(0, Y) at s = 1, i.e. (Y^m - A)^n - (Y^n - B)^m over F_p."""
    left = [0] * (m + 1)
    left[0] = -A % p
    left[m] = 1
    right = [0] * (n + 1)
    right[0] = -B % p
    right[n] = 1
    return poly.sub(poly.power(left, n, p), poly.power(right, m, p), p)


def _validate_family(m: int, n: int, p: int):
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} must be coprime")
    if (m * n * (n - m)) % p == 0:
        raise ValueError(f"characteristic {p} divides m*n*(n-m)")


def discriminant_f0y(m: int, n: int, A: int, B: int, p) -> int:
    """Discriminant of the Y-fiber F(0, Y) of the s = 1 curve."""
    mod = prime_modulus(p)
    _validate_family(m, n, mod.p)
    f0 = _f0y(m, n, A % mod.p, B % mod.p, mod.p)
    if not f0:
        raise ValueError("F(0, Y) is identically zero")
    return discriminant(f0, mod.p)


def _cond_products(m: int, n: int, A: int, B: int, field, roots):
    """Products of the root-of-unity degeneracy factors, as field elements.

    Every factor is phi(c) = c^m A^n - c^n B^m for one inner constant c: on the
    e-th roots of unity (e = n - m) z^n = z^m, and z -> z^m permutes them since
    gcd(m, e) = 1, so both products run over the roots w directly.
    First: prod over roots w != 1 of phi(w - 1).
    Second: prod over pairs (w1, w2) of phi(1 + w1 - w2), skipping pairs with
    c = 0 (the factor is not a genuine condition there).
    """
    p = field.base.p
    an = field.embed(pow(A, n, p))
    bm = field.embed(pow(B, m, p))
    one, zero = field.one(), field.zero()

    def phi(c):
        return field.sub(field.mul(field.pow(c, m), an), field.mul(field.pow(c, n), bm))

    first = one
    for w in roots[1:]:  # roots[0] is the identity
        first = field.mul(first, phi(field.sub(w, one)))
    second = one
    for w1 in roots:
        shifted = field.add(one, w1)
        for w2 in roots:
            c = field.sub(shifted, w2)
            if c != zero:
                second = field.mul(second, phi(c))
    return first, second


def delta_eval(m: int, n: int, A: int, B: int, p) -> int:
    """Pointwise product of the degeneracy conditions for the (m, n, A, B) curve.

    Nonzero exactly when every condition holds: the factors are m*n,
    (-A)^n - (-B)^m, A^n - B^m, the two products of phi(c) = c^m A^n - c^n B^m
    over the (n-m)-th roots of unity w (phi(w - 1) for w != 1, and
    phi(1 + w1 - w2) for c != 0; taken in their splitting field, the products
    lie in F_p), and the discriminant of F(0, Y).
    """
    mod = prime_modulus(p)
    P = mod.p
    _validate_family(m, n, P)
    A %= P
    B %= P
    out = m * n % P
    out = out * ((pow(-A % P, n, P) - pow(-B % P, m, P)) % P) % P
    out = out * ((pow(A, n, P) - pow(B, m, P)) % P) % P
    field, roots = roots_of_unity(mod, n - m)
    first, second = _cond_products(m, n, A, B, field, roots)
    out = out * field.to_base(first) % P
    out = out * field.to_base(second) % P
    if A == 0 and B == 0:
        # F(0, Y) degenerates to the zero polynomial; the A^n - B^m factor
        # above is already zero, so the product is zero without it
        return 0
    return out * discriminant_f0y(m, n, A, B, mod) % P


@dataclass(frozen=True)
class CurveSpec:
    """Parameters (p, m, n, s, A, B) of one curve in the family."""

    p: int
    m: int
    n: int
    s: int
    A: int
    B: int

    def __post_init__(self):
        mod = prime_modulus(self.p)
        if not (1 <= self.m < self.n):
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.s % mod.p == 0:
            raise ValueError("s must not be divisible by p")
        # coprimality and characteristic restrictions belong to delta_eval;
        # point counting is meaningful for any member of the family
        object.__setattr__(self, "A", self.A % mod.p)
        object.__setattr__(self, "B", self.B % mod.p)

    @property
    def degree(self) -> int:
        return self.s * self.m * self.n


_ROW_BLOCK = 256  # rows of the pair grid keyed per step of _count_tables


@functools.lru_cache(maxsize=1)
def _count_tables(p: int, m: int, n: int, s: int) -> tuple:
    """(H, su, sv) for the cell (p, m, n, s), read-only.

    H is the p x p int32 pair histogram of (x^{sm} + y^{sm}, x^{sn} + y^{sn})
    over F_p^2 (counts are at most p^2 < 2^31), and (su, sv) lists the points
    of S = {(u, v) : u^n = v^m}.  One entry is cached: the curve suite draws
    each cell's (A, B) back to back.
    """
    # free the previous cell's tables before the p^2 temporaries below are
    # allocated; with both alive, heap fragmentation raised the peak RSS of
    # `verify --suite curve --pmin 1900 --pmax 2000` from 118 to 182 MB
    # (x86-64 Linux, glibc malloc, numpy 2.4)
    _count_tables.cache_clear()
    # x -> x^e on F_p for e >= 1: x = g^j goes to g^(e*j mod (p - 1)), and 0 to 0
    g_j = powers(1, least_primitive_root(p), p - 1, p)
    pw = np.zeros((4, p), dtype=np.int64)
    pw[:, g_j] = g_j[np.outer([e % (p - 1) for e in (s * m, s * n, n, m)], np.arange(p - 1)) % (p - 1)]
    psm, psn, pw_n, pw_m = pw
    # the pair of (x, y) is a * p + b; for t the sum of two residues, a_key[t] is
    # (t mod p) * p and b_key[t] is t mod p
    b_key = np.arange(2 * p, dtype=np.int64) % p
    a_key = b_key * p
    # (x, y) and (y, x) have the same pair: key the p(p - 1)/2 grid points with
    # x < y, in row blocks, count them twice and add the diagonal x = y
    key = np.empty(p * (p - 1) // 2, dtype=np.int64)
    idx = np.arange(p)
    filled = 0
    for i in range(0, p, _ROW_BLOCK):
        j = min(p, i + _ROW_BLOCK)
        block = a_key[psm[i:j, None] + psm[i:]]
        block += b_key[psn[i:j, None] + psn[i:]]
        upper = block[idx[i:j, None] < idx[i:]]
        key[filled : filled + upper.size] = upper
        filled += upper.size
    H = np.bincount(key, minlength=p * p)
    del key
    H *= 2
    np.add.at(H, a_key[2 * psm] + b_key[2 * psn], 1)
    H = H.astype(np.int32).reshape(p, p)
    su, sv = np.divmod(np.flatnonzero(pw_n[:, None] == pw_m), p)
    for table in (H, su, sv):
        table.setflags(write=False)
    return H, su, sv


def count_points(spec: CurveSpec) -> int:
    """Number of affine F_p-points of F(X, Y) = 0.

    F(x, y) = u^n - v^m with u = x^{sm} + y^{sm} - A and v = x^{sn} + y^{sn} - B,
    so (x, y) is a point exactly when (u, v) lies in S = {(u, v) : u^n = v^m}.
    Counting the points by their pair (u + A, v + B) gives, with no
    approximation, count = sum over (u, v) in S of H[u + A, v + B], where
    H[a, b] = #{(x, y) : x^{sm} + y^{sm} = a, x^{sn} + y^{sn} = b}.  H and S
    depend only on (p, m, n, s) and are built once per cell in O(p^2); each
    (A, B) then costs one gather of |S| entries (|S| = p when gcd(m, n) = 1).
    """
    p = spec.p
    if p > POINT_COUNT_LIMIT:
        raise GuardExceeded("p", p, POINT_COUNT_LIMIT)
    H, su, sv = _count_tables(p, spec.m, spec.n, spec.s)
    return int(H[(su + spec.A) % p, (sv + spec.B) % p].sum())


@dataclass(frozen=True)
class CurveBoundReport:
    """Point count versus the generic degree-d bound for one curve."""

    spec: CurveSpec
    count: int
    bound: float
    ratio: float
    delta: int
    in_hypothesis: bool
    holds: object  # True/False, or None when the bound is not asserted


def check_curve_bound(spec: CurveSpec) -> CurveBoundReport:
    """Count points and compare against the generic bound 4d^(4/3)p^(2/3) + 3p.

    The bound is only asserted when d < p and the degeneracy product is
    nonzero; otherwise holds is None and the count is reported as is.
    """
    from .exponents import curve_bound

    count = count_points(spec)
    d = spec.degree
    bound = curve_bound(d, spec.p)
    delta = delta_eval(spec.m, spec.n, spec.A, spec.B, spec.p)
    in_hypothesis = d < spec.p
    holds = (count <= bound) if (in_hypothesis and delta != 0) else None
    return CurveBoundReport(spec, count, bound, count / bound, delta, in_hypothesis, holds)
