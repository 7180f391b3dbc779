"""Point counts and nondegeneracy certificates for the curve family

    F(X, Y) = (X^{sm} + Y^{sm} - A)^n - (X^{sn} + Y^{sn} - B)^m

over F_p, with n > m >= 1 coprime and d = s*m*n.  delta_eval evaluates the
product of degeneracy conditions whose nonvanishing certifies that the s = 1
member is irreducible of full degree, so the point count obeys the generic
bound.  Univariate polynomials are dense ascending coefficient lists over F_p
(see weilsums.poly).  Two of its factors are products over the (n-m)-th roots
of unity, which may lie in a large extension of F_p.  Those products lie in
F_p and are taken there: each is a resultant with a monic polynomial over F_p
whose roots are the factors' inner constants, built once per (p, n - m) from
a characteristic polynomial (_unity_polys).

Point counts factor through two tables of the cell (p, m, n, s) that do not
depend on (A, B): the pair histogram H[a, b] = #{(x, y) : x^{sm} + y^{sm} = a,
x^{sn} + y^{sn} = b} and the set S = {(u, v) : u^n = v^m}.  A point (x, y) is
on the curve exactly when (a - A, b - B) is in S for its pair (a, b), so
count(A, B) = sum over (u, v) in S of H[u + A, v + B].  H is constant on the
orbits (a, b) -> (l^{sm} a, l^{sn} b), l in F_p*, and is held as one entry per
orbit, filled in O(p) from the pairs of the points (z, 1).
"""

import functools
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from . import poly
from .field import GuardExceeded, least_primitive_root, log_table, orbit_labels, powers, prime_modulus

LABEL_TABLE_LIMIT = 1 << 22  # entries of one cell's table of H over orbit labels
# Largest degree m*n of F(0, Y): it bounds the discriminant's (m n)^2 steps and the e^3 steps that
# build the root-of-unity products' polynomials, e = n - m < m n.  On a 2-core x86-64 host
# delta_eval(1, n, 1, 2, p) took 0.05 s at n = 64 (p = 127, roots of unity in F_p) and 0.08 s
# (p = 71, in F_{p^2}); at n = 128, 0.8 s (p = 131, in F_{p^7}) and 0.9 s (p = 71).
FIBER_DEGREE_LIMIT = 64


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


def _validate_family(m: int, n: int, p: int):
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if gcd(m, n) != 1:
        raise ValueError(f"m={m} and n={n} must be coprime")
    if (m * n * (n - m)) % p == 0:
        raise ValueError(f"characteristic {p} divides m*n*(n-m)")


def discriminant_f0y(m: int, n: int, A: int, B: int, p) -> int:
    """Discriminant of the Y-fiber F(0, Y) = (Y^m - A)^n - (Y^n - B)^m of the s = 1 curve, of degree m*n."""
    p = prime_modulus(p).p
    _validate_family(m, n, p)
    if m * n > FIBER_DEGREE_LIMIT:
        raise GuardExceeded("fiber degree", m * n, FIBER_DEGREE_LIMIT)
    left, right = [-A % p] + [0] * (m - 1) + [1], [-B % p] + [0] * (n - 1) + [1]
    f0 = poly.sub(poly.power(left, n, p), poly.power(right, m, p), p)
    if not f0:
        raise ValueError("F(0, Y) is identically zero")
    return discriminant(f0, p)


def _charpoly(rows, p: int) -> list:
    """det(s I - M) over F_p for the square matrix M given by its rows, for every p.

    M is reduced to upper Hessenberg form H by similarities (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2.9), and the characteristic
    polynomials chi_j of H's leading j x j blocks follow from
    chi_{j+1} = (s - h_jj) chi_j - sum over i < j of h_ij h_{i+1,i} ... h_{j,j-1} chi_i.
    """
    H = [[x % p for x in row] for row in rows]
    k = len(H)
    for m in range(1, k - 1):
        piv = next((i for i in range(m, k) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(H[m][m - 1], p - 2, p)
        for i in range(m + 1, k):
            u = H[i][m - 1] * inv % p
            if u:  # row i -= u * row m, then column m += u * column i
                H[i] = [(x - u * y) % p for x, y in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % p
    chis = [[1]]
    for j in range(k):
        nxt = [0] + chis[j]
        t = 1  # h_{i+1,i} ... h_{j,j-1}
        for i in range(j, -1, -1):
            c = H[i][j] * t
            for d, x in enumerate(chis[i]):
                nxt[d] -= c * x
            if i == 0 or not H[i][i - 1]:
                break
            t = t * H[i][i - 1] % p
        chis.append([x % p for x in nxt])
    return chis[k]


@functools.lru_cache(maxsize=1)
def _unity_polys(p: int, e: int) -> tuple:
    """(U, Q, z): monic polynomials over F_p whose roots are y = c - 1 for the inner
    constants c of delta_eval's root-of-unity factors, e = n - m.

    U's roots are y = w - 2 for the e-th roots of unity w != 1 (the first product),
    and then y = w1 - w2 for every pair with c != 0 (the second).  With
    w1 = u w2, the y of a fixed u are the roots of y^e = s_u = (u - 1)^e, so the
    pairs give R(y^e) for R(s) = prod over u of (s - s_u), the characteristic
    polynomial of multiplication by (X - 1)^e in F_p[X]/(X^e - 1).  c = 0,
    y = -1, occurs exactly for the z roots u with s_u = (-1)^e: those leave
    (s - (-1)^e)^z in R, and z times the roots of Q = (y^e - (-1)^e)/(y + 1).
    Everything depends on (p, e) only, so one entry is cached, as the curve
    suite evaluates each cell's draws back to back.
    """
    sign = (-1) ** e % p
    h = poly.power([p - 1, 1], e, p, [p - 1] + [0] * (e - 1) + [1]) + [0] * e
    R = _charpoly([[h[(i - j) % e] for j in range(e)] for i in range(e)], p)
    z = 0
    while not poly.rem(R, [-sign, 1], p):
        R, z = poly.quo(R, [-sign, 1], p), z + 1
    spread = [0] * (e * (len(R) - 1) + 1)
    spread[::e] = R
    first = poly.quo(poly.sub(poly.power([2, 1], e, p), [1], p), [1, 1], p)
    Q = poly.quo([-sign] + [0] * (e - 1) + [1], [1, 1], p)
    return tuple(poly.mul(first, spread, p)), tuple(Q), z


def _unity_products(m: int, n: int, A: int, B: int, p: int) -> int:
    """Both root-of-unity products of delta_eval, as one residue of F_p.

    They are prod of phi(c) = c^m A^n - c^n B^m over c = w - 1 for the
    (n-m)-th roots of unity w != 1, and over c = 1 + w1 - w2 for every pair
    with c != 0.  In y = c - 1 that is psi(y) = phi(y + 1) over the roots of U
    and, z times, of Q (see _unity_polys), and a product of a polynomial over
    the roots of a monic one is their resultant.
    """
    an, bm = pow(A, n, p), pow(B, m, p)
    psi = [(an * comb(m, k) - bm * comb(n, k)) % p for k in range(n + 1)]
    U, Q, z = _unity_polys(p, n - m)
    return resultant(U, psi, p) * pow(resultant(Q, psi, p), z, p) % p


def delta_eval(m: int, n: int, A: int, B: int, p) -> int:
    """Pointwise product of the degeneracy conditions for the (m, n, A, B) curve.

    Nonzero exactly when every condition holds: the factors are m*n,
    (-A)^n - (-B)^m, A^n - B^m, the two products of phi(c) = c^m A^n - c^n B^m
    over the (n-m)-th roots of unity w (phi(w - 1) for w != 1, and
    phi(1 + w1 - w2) for c != 0), and the discriminant of F(0, Y).  The products
    lie in F_p and are taken there, as resultants (_unity_products).
    """
    mod = prime_modulus(p)
    P = mod.p
    _validate_family(m, n, P)
    A, B = A % P, B % P
    out = m * n % P
    out = out * ((pow(-A % P, n, P) - pow(-B % P, m, P)) % P) % P
    out = out * ((pow(A, n, P) - pow(B, m, P)) % P) % P
    if A == 0 and B == 0:  # F(0, Y) is zero, and so is the A^n - B^m factor above
        return 0
    # F(0, Y) and its degree guard come first: the products' polynomials take O(e^3) steps to build
    out = out * discriminant_f0y(m, n, A, B, mod) % P
    return out * _unity_products(m, n, A, B, P) % P


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


@functools.lru_cache(maxsize=1)
def _count_tables(p: int, m: int, n: int, s: int) -> tuple:
    """(H, label, su, sv) for the cell (p, m, n, s), read-only.

    label maps int64 arrays (a, b) to orbit labels, H[label(a, b)] is the pair
    histogram and (su, sv) lists the points of S.  One entry is cached: the
    curve suite draws each cell's (A, B) back to back.
    """
    N = p - 1
    # labels (`field.orbit_labels`): a, b != 0 below N*c, then (a, 0), (0, b) and (0, 0),
    # c = gcd(s*gcd(m, n), N).  The guard bounds S too, which has 1 + N*gcd(m, n, N) <= count points
    label, sizes, count = orbit_labels(p, s, (m, n))
    if count > LABEL_TABLE_LIMIT:
        raise GuardExceeded("label table", count, LABEL_TABLE_LIMIT)
    g_j, log = powers(1, least_primitive_root(p), N, p), log_table(p)

    def power(e):  # x -> x^e over F_p: g^(e log x mod N) for x != 0, and 0 at 0
        out = g_j[np.int64(e % N) * log % N]
        out[0] = 0
        return out

    # (x, y) with y != 0 is y*(z, 1), z = x/y, in the orbit of (z, 1)'s pair; the
    # N points (x, 0), x != 0, are in the orbit of (1, 1), label 0, and (0, 0) is
    # its own, the last label; then each orbit's total over its size
    H = np.bincount(label((power(s * m) + 1) % p, (power(s * n) + 1) % p), minlength=count)
    H *= N
    H[[0, count - 1]] += (N, 1)
    for (start, size), (stop, _) in zip(sizes, sizes[1:] + ((count, 0),)):
        H[start:stop] //= size
    # S = {u^n = v^m} by an equi-join: the v with v^m = w are a run of the v sorted by v^m
    pw_m = power(m)
    order = np.argsort(pw_m, kind="stable")
    runs = np.bincount(pw_m, minlength=p)
    del pw_m  # each map is dropped before the next is built
    pw_n = power(n)
    lo, run = (np.cumsum(runs) - runs)[pw_n], runs[pw_n]
    su = np.repeat(np.arange(p), run)
    sv = order[np.arange(su.size) - np.repeat(np.cumsum(run) - run - lo, run)]
    for table in (H, su, sv):
        table.setflags(write=False)
    return H, label, su, sv


def count_points(spec: CurveSpec) -> int:
    """Number of affine F_p-points of F(X, Y) = 0.

    count = sum over (u, v) in S of H[u + A, v + B], with no approximation (see
    the module docstring).  H and S are built once per cell in O(p) time; each
    (A, B) then costs one label gather of |S| entries (|S| = p when gcd(m, n) = 1).
    """
    p = spec.p
    H, label, su, sv = _count_tables(p, spec.m, spec.n, spec.s)
    return int(H[label((su + spec.A) % p, (sv + spec.B) % p)].sum())


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
