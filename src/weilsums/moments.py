"""Exact moment counts for power-sum equation systems over multiplicative subgroups.

Q_k counts 2k-tuples (u_1..u_k, v_1..v_k) in G^2k solving the diagonal system
sum_i u_i^{n_j} = sum_i v_i^{n_j} for j = 1..r, so Q_k = sum_x H(x)^2 for H the
k-fold cyclic self-convolution of the histogram h of the power vectors
(g^{n_1}, ..., g^{n_r}), g in G.  Three exact routes compute it: enumeration of
the tau^k tuples (`q_bruteforce`, the oracle), sparse dict convolution, and the
orbit route.  With w of order p modulo a prime q = 1 (mod p) and
h^(xi) = sum_v h(v) w^(xi.v), orthogonality gives
p^r Q_k = sum_xi (h^(xi) h^(-xi))^k mod q.  h^ is constant on the orbits
xi -> (g^{n_1} xi_1, ..., g^{n_r} xi_r): the xi with xi_1 != 0 reduce to one xi_1
per coset of H_1 = {g^{n_1}} in F_p*, weighted |H_1|, and those with xi_1 = 0 to
the same sum for the marginal of h on the other coordinates.  That leaves about
p^r gcd(n_1, tau)/tau points xi, each a sum over the support of h.  Residues
modulo primes q < 2^31 keep int64 products below 2^62, and CRT over moduli
whose product exceeds p^r tau^(2k) >= p^r Q_k recovers p^r Q_k exactly; the
result is checked to be divisible by p^r.  `q_convolution` and `t3_count` take
the route with the smaller estimated work.  Where the sparse route is the only
one (`j_histogram`, which needs all of H, or too few such q for the bound), it
refuses more than SPARSE_WORK_LIMIT dict updates.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from . import convolution
from .field import GuardExceeded, is_prime, least_primitive_root, prime_modulus
from .sums import SparsePolynomial, subgroup_sum

BRUTE_FORCE_LIMIT = 10**8
GRID_SIZE_LIMIT = 10**8  # largest p^r the convolution routes accept
SPARSE_WORK_LIMIT = 20_000_000  # sparse work accepted where no other route can run, about 10-30 s

_MODULUS_LIMIT = 2**31
_CHUNK = 2**20  # int64 entries of an orbit-route temporary (8 MB), or one support row if longer
# Largest p with whole tables of w^j and w^-j (256 KB per modulus); above it (r = 1 only, by
# GRID_SIZE_LIMIT) each is two tables of about sqrt(p) entries, at 4x the cost per gather.
_FULL_TABLE = 2**14
# Cost of one sparse dict update in orbit work units (see `_route`).  On a 2-core
# x86-64 host (Python 3.11, numpy 2.4) the k=3, r=2 cells of subgroup(601, 30) and
# subgroup(601, 40) took 560-620 ns per sparse update and 9-12 ns per orbit unit;
# at tau=30 the routes tie (27900 updates in 15.6 ms, 1443602 units in 17.2 ms).
_SPARSE_COST = 40


def _validate_exponents(nvec) -> tuple:
    nvec = tuple(nvec)
    if not nvec:
        raise ValueError("need at least one exponent")
    last = 0
    for n in nvec:
        if not isinstance(n, int) or n <= last:
            raise ValueError(f"exponents must be strictly increasing positive ints: {nvec}")
        last = n
    return nvec


def _power_vectors(G, nvec, coeffs=None):
    """(a_1 g^{n_1}, ..., a_r g^{n_r}) mod p for each g in G, in generator order."""
    p = G.modulus.p
    if coeffs is None:
        coeffs = (1,) * len(nvec)
    return [tuple(a * pow(g, n, p) % p for n, a in zip(nvec, coeffs)) for g in G.elements]


def q_bruteforce(G, nvec, k: int) -> int:
    """Q_k by direct enumeration of all tau^k power-sum tuples."""
    nvec = _validate_exponents(nvec)
    if k < 1:
        raise ValueError("k must be >= 1")
    if G.tau**k > BRUTE_FORCE_LIMIT:
        raise GuardExceeded("tau^k", G.tau**k, BRUTE_FORCE_LIMIT)
    p = G.modulus.p
    counts: dict = {}
    if len(nvec) == 1:
        n0 = nvec[0]
        powers = [pow(g, n0, p) for g in G.elements]
        for t in product(powers, repeat=k):
            key = sum(t) % p
            counts[key] = counts.get(key, 0) + 1
    else:
        vecs = _power_vectors(G, nvec)
        for t in product(vecs, repeat=k):
            key = tuple(sum(col) % p for col in zip(*t))
            counts[key] = counts.get(key, 0) + 1
    return sum(c * c for c in counts.values())


def _hist_from_vectors(vecs, r: int) -> dict:
    return Counter(v[0] for v in vecs) if r == 1 else Counter(vecs)


@functools.lru_cache(maxsize=4096)
def _modulus(p: int, i: int):
    """(q, w): the i-th largest prime q = 1 (mod p) below 2^31, w of order p mod q; None past the last."""
    prev = _modulus(p, i - 1) if i else (_MODULUS_LIMIT, 0)
    if prev is None:
        return None
    step = p if p == 2 else 2 * p
    for q in range(1 + (prev[0] - 2) // step * step, p, -step):
        if is_prime(q):
            a = 2
            while (w := pow(a, (q - 1) // p, q)) == 1:
                a += 1
            return q, w
    return None


def _moduli(p: int, bound: int):
    """The first moduli of `_modulus(p, .)` whose product exceeds bound, or None if too few exist."""
    out = []
    while math.prod(q for q, _ in out) <= bound:
        if (m := _modulus(p, len(out))) is None:
            return None
        out.append(m)
    return out


def _geometric(x: int, n: int, q: int):
    """x^j mod q for j = 0..n-1, as an int64 array."""
    table = np.ones(n, dtype=np.int64)
    m, xm = 1, x
    while m < n:
        table[m : 2 * m] = table[: min(m, n - m)] * xm % q
        m, xm = 2 * m, xm * xm % q
    return table


def _root_tables(q: int, w: int, p: int, s: int) -> tuple:
    """(low, high) with w^j = low[j % s] * high[j // s] mod q for j = 0..p-1, as int64 arrays."""
    return _geometric(w, min(s, p), q), _geometric(pow(w, s, q), (p - 1) // s + 1, q)


def _orbit_count(hist: dict, k: int, p: int, r: int, moduli) -> int:
    """sum_x H(x)^2 for H = hist^{*k}, by the orbit route (see the module docstring).

    hist must be the power-vector histogram of a subgroup of F_p*, of mass
    below p < 2^27; moduli must come from `_moduli(p, p^r * mass^(2k))`.
    Up to p = _FULL_TABLE, w^j and w^-j are one lookup each in tables of p
    entries; above, each is the product of two lookups in tables of about sqrt(p).
    """
    vecs = np.array(list(hist), dtype=np.int64).reshape(len(hist), r)
    wts = np.array(list(hist.values()), dtype=np.int64)
    split = p > _FULL_TABLE
    s = math.isqrt(p) + 1 if split else p
    tables = [(q, _root_tables(q, w, p, s), _root_tables(q, pow(w, p - 1, q), p, s)) for q, w in moduli]
    sums = [pow(int(wts.sum()), 2 * k, q) for q, _ in moduli]  # xi = 0
    gen = least_primitive_root(p)
    for j in range(r):
        # xi_1..xi_j = 0 and xi_{j+1} != 0, over the marginal of hist on coordinates j+1..r
        if j:
            vecs, inverse = np.unique(vecs[:, 1:], axis=0, return_inverse=True)
            wts = np.bincount(inverse.ravel(), weights=wts, minlength=len(vecs)).astype(np.int64)
        orbit = len(np.unique(vecs[:, 0]))
        reps = _geometric(gen, (p - 1) // orbit, p)  # one point per coset of H_1
        free = p ** (r - j - 1)
        rows = len(reps) * free
        step = max(1, _CHUNK // len(vecs))
        for start in range(0, rows, step):
            t = np.arange(start, min(rows, start + step), dtype=np.int64)
            expo = reps[t // free][:, None] * vecs[:, 0]
            rest = t % free
            for col in range(1, r - j):
                expo += (rest % p)[:, None] * vecs[:, col]
                rest //= p
            expo %= p
            a, b = divmod(expo, s) if split else (None, expo)
            for i, (q, *roots) in enumerate(tables):
                # h^(xi) and h^(-xi); a dot product is below q * mass < 2^31 * 2^27
                pos, neg = ((low[b] if a is None else low[b] * high[a] % q) @ wts % q for low, high in roots)
                pair = pos * neg % q
                term, e = np.ones_like(pair), k
                while e:  # term = pair^k mod q by squaring
                    term = term * pair % q if e & 1 else term
                    pair, e = pair * pair % q, e >> 1
                sums[i] = (sums[i] + orbit * int(term.sum())) % q
    total, modulus = 0, 1
    for (q, _), s in zip(moduli, sums):
        total += modulus * ((s - total) * pow(modulus, -1, q) % q)
        modulus *= q
    q_k, rem = divmod(total, p**r)
    if rem:
        raise ArithmeticError(f"orbit route: p^r does not divide {total}")
    return q_k


def _route(hist: dict, k: int, p: int, r: int):
    """The moduli for the orbit route, or None for the sparse route.

    Sparse work counts dict updates (`convolution.sparse_work`), each worth
    _SPARSE_COST orbit units.  Orbit work counts the moduli, estimated at 30
    bits each, times the int64 gathers per modulus: points xi times support
    size, plus the root tables.  The sparse route is taken when it costs no
    more, and, up to SPARSE_WORK_LIMIT dict updates, when too few primes
    q = 1 (mod p) lie below 2^31 for the bound (large p and k).
    """
    bound = p**r * sum(hist.values()) ** (2 * k)
    orbit_size = len({key[0] for key in hist}) if r > 1 else len(hist)
    points = (p - 1) // orbit_size * p ** (r - 1)
    orbit = (bound.bit_length() // 30 + 1) * (points * len(hist) + p)
    sparse = convolution.sparse_work(len(hist), k, p**r)
    if _SPARSE_COST * sparse <= orbit:
        return None
    moduli = _moduli(p, bound)
    if moduli is None and sparse > SPARSE_WORK_LIMIT:
        raise GuardExceeded("sparse work", sparse, SPARSE_WORK_LIMIT)
    return moduli


def _collision_count(hist: dict, k: int, p: int, r: int) -> int:
    """sum_x H(x)^2 for H = hist^{*k}, exactly, by the cheaper of the sparse and orbit routes."""
    if (moduli := _route(hist, k, p, r)) is not None:
        return _orbit_count(hist, k, p, r, moduli)
    power = convolution.self_convolution_power(hist, k, p, r, value_bound=sum(hist.values()) ** k)
    return convolution.sum_of_squares(power)


def q_convolution(G, nvec, k: int) -> int:
    """Q_k from the power-vector histogram, by the sparse or the orbit route."""
    nvec = _validate_exponents(nvec)
    if k < 1:
        raise ValueError("k must be >= 1")
    r = len(nvec)
    if r > 2:
        raise GuardExceeded("r", r, 2)
    p = G.modulus.p
    if p**r > GRID_SIZE_LIMIT:
        raise GuardExceeded("p^r", p**r, GRID_SIZE_LIMIT)
    return _collision_count(_hist_from_vectors(_power_vectors(G, nvec), r), k, p, r)


@dataclass(frozen=True)
class PowerVectorHistogram:
    """Counts J(lam) of k-tuples from G whose weighted power sums equal lam."""

    p: int
    k: int
    counts: dict

    def mass(self) -> int:
        return sum(self.counts.values())

    def sum_of_squares(self) -> int:
        return sum(c * c for c in self.counts.values())

    def __getitem__(self, key) -> int:
        return self.counts.get(key, 0)


def j_histogram(G, nvec, coeffs, k: int) -> PowerVectorHistogram:
    """Histogram of (sum_i a_1 g_i^{n_1}, ..., sum_i a_r g_i^{n_r}) over k-tuples."""
    nvec = _validate_exponents(nvec)
    r = len(nvec)
    coeffs = tuple(c % G.modulus.p for c in coeffs)
    if len(coeffs) != r:
        raise ValueError("need one coefficient per exponent")
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero mod p")
    if k < 1:
        raise ValueError("k must be >= 1")
    if r > 2:
        raise GuardExceeded("r", r, 2)
    p = G.modulus.p
    if p**r > GRID_SIZE_LIMIT:
        raise GuardExceeded("p^r", p**r, GRID_SIZE_LIMIT)
    hist = _hist_from_vectors(_power_vectors(G, nvec, coeffs), r)
    work = convolution.sparse_work(len(hist), k, p**r)
    if work > SPARSE_WORK_LIMIT:
        raise GuardExceeded("sparse work", work, SPARSE_WORK_LIMIT)
    return PowerVectorHistogram(p, k, convolution.self_convolution_power(hist, k, p, r, value_bound=G.tau**k))


def t3_count(p, s: int, m: int, n: int) -> int:
    """Number of 6-tuples in (F_p*)^6 with matching sm-th and sn-th power sums.

    Counts x_1..x_6 with x_1^{sm}+x_2^{sm}+x_3^{sm} = x_4^{sm}+x_5^{sm}+x_6^{sm}
    and the same for exponent sn.
    """
    mod = prime_modulus(p)
    if s < 1:
        raise ValueError("s must be >= 1")
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    P = mod.p
    if P**2 > GRID_SIZE_LIMIT:
        raise GuardExceeded("p^2", P**2, GRID_SIZE_LIMIT)
    hist = Counter((pow(x, s * m, P), pow(x, s * n, P)) for x in range(1, P))
    return _collision_count(hist, 3, P, 2)


def t3_gcd_reduction(m: int, n: int, p) -> tuple:
    """Reduce (m, n) by d = gcd(m, n); returns (m/d, n/d, e) with e = gcd(d, p-1).

    The count for (m, n) is at most e**6 times the count for (m/d, n/d),
    because x -> x^d is e-to-1 onto its image.
    """
    P = prime_modulus(p).p
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    d = gcd(m, n)
    return m // d, n // d, gcd(d, P - 1)


@dataclass(frozen=True)
class MomentInequalityReport:
    """One checked instance of the moment bound |S|^(2kl) <= p^r tau^(2kl-2k-2l) Q_k Q_l."""

    p: int
    tau: int
    k: int
    l: int
    magnitude: float
    lhs: float  # |S|^(2kl), inf beyond the float range
    rhs: Fraction
    q_k: int
    q_l: int
    holds: bool


def verify_moment_inequality(G, f: SparsePolynomial, k: int, l: int) -> MomentInequalityReport:
    """Check |S(G;f)|^(2kl) <= p^r tau^(2kl-2k-2l) Q_k Q_l for one instance."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if not f.terms:
        raise ValueError("polynomial must have at least one nonconstant term")
    p = G.modulus.p
    if any(c % p == 0 for c in f.coefficients()):
        raise ValueError("coefficients must be nonzero mod p")
    nvec = f.exponents()
    r = len(nvec)
    q_k = _q_best_route(G, nvec, k)
    q_l = q_k if l == k else _q_best_route(G, nvec, l)
    mag = subgroup_sum(G, f).magnitude
    e = 2 * k * l
    rhs = Fraction(p) ** r * Fraction(G.tau) ** (e - 2 * k - 2 * l) * q_k * q_l
    try:
        lhs = mag**e
    except OverflowError:
        lhs = math.inf
    # in log space: for large k*l both sides can leave the float range
    log_rhs = math.log(rhs.numerator) - math.log(rhs.denominator)
    holds = mag == 0 or e * math.log(mag) <= log_rhs + math.log1p(1e-6)
    return MomentInequalityReport(p, G.tau, k, l, mag, lhs, rhs, q_k, q_l, holds)


def _q_best_route(G, nvec, k: int) -> int:
    """Prefer the convolution route, fall back to enumeration when guards block it."""
    try:
        return q_convolution(G, nvec, k)
    except GuardExceeded:
        return q_bruteforce(G, nvec, k)


def xi_exponent(r: int, k: int, eta, eps) -> Fraction:
    """Saving exponent min(r, eta*(2k-6) + 1 + 7*eps/3) for one induction step."""
    from .exponents import as_fraction

    if r < 2:
        raise ValueError("r must be >= 2")
    if k < 3:
        raise ValueError("k must be >= 3")
    eta = as_fraction(eta)
    eps = as_fraction(eps)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return min(Fraction(r), eta * (2 * k - 6) + 1 + Fraction(7, 3) * eps)
