"""Exact moment counts for power-sum equation systems over multiplicative subgroups.

Q_k counts 2k-tuples (u_1..u_k, v_1..v_k) in G^2k solving the diagonal system
sum_i u_i^{n_j} = sum_i v_i^{n_j} for j = 1..r, so Q_k = sum_x H(x)^2 for H the
k-fold cyclic self-convolution of the histogram h of the power vectors
(g^{n_1}, ..., g^{n_r}), g in G.  The power vectors are an int64 (tau, r) array in
generator order, one `field.powers` call with a chain per exponent, and h is the
pair of arrays (vectors, counts) of its distinct rows, counted by one mixed-radix
key per row.  Three exact routes compute Q_k: enumeration of the tau^k tuples
(`q_bruteforce`, the oracle), the sparse route (`convolution.self_convolution_power`
on h, see that module), and the orbit route.  Enumeration visits every tuple and
shares no counting code with the other two.  It forms the sums mod p of the last m
factors once, as an inner block of tau^m vectors with r tau^m <= _CHUNK, adds the
sums of the first k - m factors to it in blocks of at most _CHUNK int64 entries,
and counts equal sums.  Where p^r is small it counts them in a table of p^r
entries.  Otherwise it sorts each block's sums (one mixed-radix key each below
p^r = 2^63, r coordinate columns above) and merges the distinct sums and their
counts across blocks; when more than _CHUNK distinct sums are possible, it does so
in passes over windows of the first coordinate, each holding about _CHUNK of them,
so that memory stays bounded by the block size.  Q_k is the sum of the squared
counts.  With w of order p modulo a prime q = 1 (mod p) and
h^(xi) = sum_v h(v) w^(xi.v), orthogonality gives
p^r Q_k = sum_xi (h^(xi) h^(-xi))^k mod q.  h^ is constant on the orbits
xi -> (g^{n_1} xi_1, ..., g^{n_r} xi_r): the xi with xi_1 != 0 reduce to one xi_1
per coset of H_1 = {g^{n_1}} in F_p*, weighted |H_1|, and those with xi_1 = 0 to
the same sum for the marginal of h on the other coordinates.  That leaves about
p^r gcd(n_1, tau)/tau points xi, each a sum over the support of h.  Residues modulo
primes q < 2^31 keep int64 products below 2^62, and CRT over moduli whose product
exceeds p^r tau^(2k) >= p^r Q_k recovers p^r Q_k exactly; the result is checked to
be divisible by p^r.  `_route` admits each route on what it spends, the sparse
route on its pairs and key bits (`convolution.admit`, which reaches p^r = 2^37) and
the orbit route on its grid of points xi times support vectors (about p^r for a
subgroup), and `q_convolution` takes the cheaper of those it admits; `j_histogram`,
which needs all of H, takes the sparse route.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import convolution
from .convolution import SPARSE_WORK_LIMIT  # noqa: F401  (the sparse route's pairs limit)
from .field import INT64_MODULUS_LIMIT, GuardExceeded, array_power, is_prime, least_primitive_root, powers
from .field import prime_modulus, subgroup
from .sums import TERM_LIMIT, SparsePolynomial, subgroup_sum

BRUTE_FORCE_LIMIT = 10**8
# Largest grid of the orbit route: its points xi times the support of h, one int64 gather
# each per modulus.  The grid holds at least (p - 1) p^(r - 1) (see `_work`).
GRID_SIZE_LIMIT = 10**8

_CHUNK = convolution._CHUNK  # int64 entries of an orbit-route or enumeration temporary (8 MB), or one row if longer
# Largest p with whole tables of w^j and w^-j (256 KB per modulus); above it (r = 1 only: the
# grid guard keeps r >= 2 below p = 10^4) each is two tables of about sqrt(p) entries, at 4x
# the cost per gather.
_FULL_TABLE = 2**14
# Costs of `_route` in orbit units (one int64 gather of the orbit route), fitted by
# tools/route_costs.py; three runs on 92 cells with r <= 2 on a 2-core x86-64 host (Python
# 3.11, numpy 2.4) gave 5.7-5.8 ns per orbit unit and 6400-6600 units (37 us) per step of
# the sparse route.  A sparse pair costs _SPARSE_COST r^2 units: five runs on 104 cells (12
# with r = 3) fitted 0.7-0.9 for it, and two fits per r gave 0.9-1.0 units per pair for r = 1
# (most steps sum into a table), 3.1-3.4 for r = 2 and 5.2-5.3 for r = 3.  So r^2 prices
# r = 3 pairs high, towards the orbit route, yet the rule picks the faster one on all 12.
_SPARSE_COST = 0.85
_SPARSE_STEP = 6500
# Fixed orbit-route cost of one pass over a coordinate, and of each modulus in it, and
# cost of one row (point xi) beside its gathers, in orbit units: 5200-5500 (30-31 us) and
# 10-11 (60-62 ns) in the same runs.  With these costs the rule picks the faster route on
# the script's ladder, or one within 0.15 ms or 25% of it; at p = 7561, k = 3, r = 1 it
# picks sparse up to tau = 35 (0.24 ms against 0.52 ms) and orbit from tau = 45 (0.35 ms
# against 0.49 ms) on, and at subgroup(1009, 1008), r = 2, k = 2 orbit (13 ms against 25 ms).
_ORBIT_PASS = 5400
_ORBIT_ROW = 11
# q_bruteforce counts sums in a table of p^r entries up to _TABLE_RATIO per tuple, and sorts
# them above.  On the host above, 10^5 keys took 0.45 ms by a table of 2*10^5 entries, 3.3 ms
# by one of 4*10^5 (page faults) and 1.0 ms by sorting.
_TABLE_RATIO = 2


def _validate(nvec, k: int) -> tuple:
    if k < 1:
        raise ValueError("k must be >= 1")
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
    """(a_1 g^{n_1}, ..., a_r g^{n_r}) mod p for each g in G, in generator order, as an int64 (tau, r) array.

    Column j is a_j (theta^{n_j})^x for x = 1..tau, coefficients below p.  A
    subgroup of more than TERM_LIMIT elements is refused, as a sum of that many terms is.
    """
    p = G.modulus.p
    if G.tau > TERM_LIMIT:
        raise GuardExceeded("terms", G.tau, TERM_LIMIT)
    steps = [pow(G.theta, n, p) for n in nvec]
    return powers([a * t % p for t, a in zip(steps, coeffs or (1,) * len(nvec))], steps, G.tau, p).T


def _distinct_count(values) -> int:
    """The number of distinct entries of a 1-D array.

    Plain np.unique(values) imports numpy.ma on its first call, about 20 ms
    of every process that counts a moment.
    """
    values = np.sort(values)
    return 1 + int(np.count_nonzero(values[1:] != values[:-1]))


def _histogram(vecs, p: int) -> tuple:
    """(vectors, counts): the distinct rows of the int64 (n, r) array vecs, sorted, and how often each occurs.

    Rows are told apart by one mixed-radix key each (v_1 p + v_2 for r = 2, so
    p^r must be below 2^63), counted by a 1-D np.unique and decoded again: at
    tau = 7560, r = 2, 0.11 ms against 3.9 ms for np.unique(axis=0) on the rows.
    """
    keys, counts = np.unique(convolution._keys(vecs, p), return_counts=True)
    return np.stack(convolution._coordinates(keys, p, vecs.shape[1]), axis=1), counts


def _add_mod(a, b, p: int):
    """(a + b) mod p for residues a, b below p < 2^62."""
    s = a + b
    s -= p * (s >= p)
    return s


def _tuple_sums(vecs, j: int, p: int):
    """Coordinate sums mod p of all j-tuples of the columns of vecs, as an (r, tau^j) array."""
    out = np.zeros((len(vecs), 1), dtype=np.int64)
    for _ in range(j):
        out = _add_mod(out[:, :, None], vecs[:, None, :], p).reshape(len(vecs), -1)
    return out


def _distinct(cols: list, counts=None) -> tuple:
    """The distinct rows of the columns cols, sorted, with their summed counts (1 per row by default)."""
    if counts is None and len(cols) == 1:
        cols = [np.sort(cols[0])]
    else:
        order = np.argsort(cols[0]) if len(cols) == 1 else np.lexsort(cols[::-1])
        cols, counts = [c[order] for c in cols], None if counts is None else counts[order]
    new = np.zeros(len(cols[0]), dtype=bool)
    new[0] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    start = np.flatnonzero(new)
    counts = np.diff(start, append=len(new)) if counts is None else np.add.reduceat(counts, start)
    return [c[start] for c in cols], counts


def _merge(parts: list) -> tuple:
    """One (cols, counts) pair from several of `_distinct`'s."""
    if len(parts) == 1:
        return parts[0]
    cols = [np.concatenate(c) for c in zip(*(cols for cols, _ in parts))]
    return _distinct(cols, np.concatenate([counts for _, counts in parts]))


def _windows(inner, outer, p: int, passes: int):
    """(i, block) for the sums outer + inner mod p whose first coordinate lies in window i of [0, p).

    Window i is [i p / passes, (i + 1) p / passes).  With the inner sums sorted
    by first coordinate, a window of first coordinates is one slice of them
    (taken twice over, once shifted by p) for each outer row; a block holds
    the slices of consecutive outer rows, at most _CHUNK entries or one slice.
    """
    r = len(inner)
    inner = inner[:, np.argsort(inner[0])]
    first = np.concatenate([inner[0], inner[0] + p])
    inner = np.concatenate([inner, inner], axis=1)
    for i in range(passes):
        lo, hi = p * i // passes, p * (i + 1) // passes
        low = (lo - outer[0]) % p
        start = np.searchsorted(first, low)
        lens = np.searchsorted(first, low + (hi - lo)) - start
        ends = np.cumsum(lens)
        a = 0
        while a < len(lens):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - lens[a] + _CHUNK // r, side="right")))
            n = lens[a:b]
            idx = np.arange(n.sum()) + np.repeat(start[a:b] - (np.cumsum(n) - n), n)
            yield i, _add_mod(outer[:, np.repeat(np.arange(a, b), n)], inner[:, idx], p)
            a = b


def _sum_blocks(vecs, k: int, p: int, passes: int):
    """(i, block) for the sums mod p of all k-tuples of the columns of vecs, in blocks of at most _CHUNK entries.

    With one pass i is 0; with more, pass i holds the sums in window i of
    `_windows`.  A block is a list of columns: one mixed-radix key per sum
    below p^r = 2^63, otherwise the r coordinates.
    """
    r, tau = vecs.shape
    m = 0  # the inner block holds the sums of the last m factors
    while m < k and r * tau ** (m + 1) <= _CHUNK:
        m += 1
    inner, outer = _tuple_sums(vecs, m, p), _tuple_sums(vecs, k - m, p)
    if passes == 1:
        step = max(1, _CHUNK // (r * inner.shape[1]))
        blocks = (
            (0, _add_mod(outer[:, s : s + step, None], inner[:, None, :], p).reshape(r, -1))
            for s in range(0, outer.shape[1], step)
        )
    else:
        blocks = _windows(inner, outer, p, passes)
    for i, block in blocks:
        cols = list(block)
        if p**r < 2**63:
            key = cols[-1]
            for c in cols[-2::-1]:
                key = key * p + c
            cols = [key]
        yield i, cols


def q_bruteforce(G, nvec, k: int) -> int:
    """Q_k by direct enumeration of all tau^k power-sum tuples, in blocks (see the module docstring)."""
    nvec = _validate(nvec, k)
    tuples = G.tau**k
    if tuples > BRUTE_FORCE_LIMIT:
        raise GuardExceeded("tau^k", tuples, BRUTE_FORCE_LIMIT)
    p, r = G.modulus.p, len(nvec)
    vecs = _power_vectors(G, nvec).T
    if p**r <= min(_CHUNK, _TABLE_RATIO * tuples):
        counts = sum(np.bincount(cols[0], minlength=p**r) for _, cols in _sum_blocks(vecs, k, p, 1))
        return int((counts * counts).sum())  # at most tau^(2k) <= 10^16
    # each pass holds the distinct sums of one window, about _CHUNK of them
    total = 0
    for _, blocks in groupby(_sum_blocks(vecs, k, p, -(-min(p**r, tuples) // _CHUNK)), key=itemgetter(0)):
        parts = []
        for _, cols in blocks:
            if not len(cols[0]):
                continue
            parts.append(_distinct(cols))
            if sum(len(counts) for _, counts in parts[1:]) >= len(parts[0][1]):
                parts = [_merge(parts)]
        if parts:
            counts = _merge(parts)[1]
            total += int((counts * counts).sum())
    return total


@functools.lru_cache(maxsize=4096)
def _modulus(p: int, i: int):
    """(q, w): the i-th largest prime q = 1 (mod p) below 2^31, w of order p mod q; None past the last."""
    prev = _modulus(p, i - 1) if i else (INT64_MODULUS_LIMIT, 0)
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


def _root_tables(q: int, w: int, p: int, s: int) -> tuple:
    """(low, high) with w^j = low[j % s] * high[j // s] mod q for j = 0..p-1, as int64 arrays."""
    return powers(1, w, min(s, p), q), powers(1, pow(w, s, q), (p - 1) // s + 1, q)


def _orbit_count(hist: tuple, k: int, p: int, r: int, moduli) -> int:
    """sum_x H(x)^2 for H = hist^{*k}, by the orbit route (see the module docstring).

    hist must be the power-vector histogram of a subgroup of F_p*, of mass
    below p < 2^27 (by the grid guard); moduli must come from `_moduli(p, _bound(hist, k, p, r))`.
    Up to p = _FULL_TABLE, w^j and w^-j are one lookup each in tables of p
    entries; above, each is the product of two lookups in tables of about sqrt(p).
    """
    vecs, wts = hist
    split = p > _FULL_TABLE
    s = math.isqrt(p) + 1 if split else p
    tables = [(q, _root_tables(q, w, p, s), _root_tables(q, pow(w, p - 1, q), p, s)) for q, w in moduli]
    sums = [pow(int(wts.sum()), 2 * k, q) for q, _ in moduli]  # xi = 0
    gen = least_primitive_root(p)
    for j in range(r):
        # xi_1..xi_j = 0 and xi_{j+1} != 0, over the marginal of hist on coordinates j+1..r
        if j:
            _, first, inverse = np.unique(convolution._keys(vecs[:, 1:], p), return_index=True, return_inverse=True)
            vecs = vecs[first, 1:]
            wts = np.bincount(inverse, weights=wts, minlength=len(vecs)).astype(np.int64)
        orbit = _distinct_count(vecs[:, 0])
        reps = powers(1, gen, (p - 1) // orbit, p)  # one point per coset of H_1
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
                sums[i] = (sums[i] + orbit * int(array_power(pos * neg % q, k, q).sum())) % q
    total, modulus = 0, 1
    for (q, _), s in zip(moduli, sums):
        total += modulus * ((s - total) * pow(modulus, -1, q) % q)
        modulus *= q
    q_k, rem = divmod(total, p**r)
    if rem:
        raise ArithmeticError(f"orbit route: p^r does not divide {total}")
    return q_k


def _bound(hist: tuple, k: int, p: int, r: int) -> int:
    """p^r mass^(2k) >= p^r Q_k: the product of the orbit route's moduli must exceed it."""
    return p**r * int(hist[1].sum()) ** (2 * k)


def _work(hist: tuple, k: int, p: int, r: int) -> tuple:
    """(pairs, gathers, rows, n_moduli): the work terms that `_route` prices.

    pairs is what `convolution.self_convolution_power` forms
    (`convolution.sparse_work`).  n_moduli counts the moduli of `_bound` at 30
    bits each; for each of them the orbit route evaluates one row per point
    xi, of one int64 gather per support vector, and builds root tables of p
    entries: rows and gathers are totals over the moduli.
    """
    vectors, counts = hist
    points = (p - 1) // _distinct_count(vectors[:, 0]) * p ** (r - 1)
    n_moduli = _bound(hist, k, p, r).bit_length() // 30 + 1
    pairs = convolution.sparse_work(len(counts), k, p**r)
    return pairs, n_moduli * (points * len(counts) + p), n_moduli * points, n_moduli


def _route(hist: tuple, k: int, p: int, r: int):
    """The moduli for the orbit route, or None for the sparse route: the one place that decides.

    The sparse route admits a cell on its pairs and key bits (`convolution.admit`),
    the orbit route on its grid (GRID_SIZE_LIMIT) and on enough primes q = 1 (mod p)
    below 2^31 for the bound.  Of those admitted, sparse is taken when it costs no
    more, in orbit units (one int64 gather): _SPARSE_COST r^2 per pair and
    _SPARSE_STEP per step, against the orbit route's gathers, _ORBIT_ROW per row
    and _ORBIT_PASS per pass and per modulus in a pass (see `_work`).  Where
    neither admits the cell, the cheaper one's refusal is raised.
    """
    pairs, gathers, rows, n_moduli = _work(hist, k, p, r)
    sparse = _SPARSE_COST * r * r * pairs + (k - 1) * _SPARSE_STEP
    cheaper = sparse <= gathers + _ORBIT_ROW * rows + r * (n_moduli + 1) * _ORBIT_PASS
    grid = rows // n_moduli * len(hist[1])
    try:
        convolution.admit(len(hist[1]), k, p, r)
    except GuardExceeded as refusal:
        if grid > GRID_SIZE_LIMIT:
            raise refusal if cheaper else GuardExceeded("orbit grid", grid, GRID_SIZE_LIMIT)
        if (moduli := _moduli(p, _bound(hist, k, p, r))) is None:
            raise
        return moduli
    return None if cheaper or grid > GRID_SIZE_LIMIT else _moduli(p, _bound(hist, k, p, r))


def _power_histogram(G, nvec, k: int, coeffs=None) -> tuple:
    """(hist, p, r): the histogram (`_histogram`) of the power vectors, once the arguments are checked."""
    nvec = _validate(nvec, k)
    r, p = len(nvec), G.modulus.p
    if coeffs is not None and (len(coeffs) != r or any(c % p == 0 for c in coeffs)):
        raise ValueError("need one coefficient per exponent, each nonzero mod p")
    return _histogram(_power_vectors(G, nvec, coeffs), p), p, r


def q_convolution(G, nvec, k: int) -> int:
    """Q_k from the power-vector histogram, by the sparse or the orbit route (`_route`)."""
    hist, p, r = _power_histogram(G, nvec, k)
    if (moduli := _route(hist, k, p, r)) is not None:
        return _orbit_count(hist, k, p, r, moduli)
    return convolution.sum_of_squares(convolution.self_convolution_power(hist, k, p, r))


@dataclass(frozen=True, eq=False)
class PowerVectorHistogram:
    """Counts J(lam) of k-tuples from G whose weighted power sums equal lam.

    vectors is an int64 (n, r) array of the lam with J(lam) > 0, distinct and
    sorted, and counts their counts (int64, or Python ints in an object array
    where the convolution's dtype rule asks for them).
    """

    p: int
    k: int
    vectors: np.ndarray
    counts: np.ndarray

    def mass(self) -> int:
        return int(self.counts.sum())

    def sum_of_squares(self) -> int:
        return convolution.sum_of_squares((self.vectors, self.counts))

    def __getitem__(self, key) -> int:
        """J(key) for a residue (r = 1) or an r-tuple of residues; 0 off the support."""
        hit = np.flatnonzero((self.vectors == np.atleast_1d(key)).all(axis=1))
        return int(self.counts[hit[0]]) if len(hit) else 0


def j_histogram(G, nvec, coeffs, k: int) -> PowerVectorHistogram:
    """Histogram of (sum_i a_1 g_i^{n_1}, ..., sum_i a_r g_i^{n_r}) over k-tuples, by the sparse route."""
    hist, p, r = _power_histogram(G, nvec, k, coeffs)
    return PowerVectorHistogram(p, k, *convolution.self_convolution_power(hist, k, p, r))


def t3_count(p, s: int, m: int, n: int) -> int:
    """Number of 6-tuples in (F_p*)^6 with matching sm-th and sn-th power sums.

    Counts x_1..x_6 with x_1^{sm}+x_2^{sm}+x_3^{sm} = x_4^{sm}+x_5^{sm}+x_6^{sm}
    and the same for exponent sn.
    """
    p = prime_modulus(p).p
    if s < 1:
        raise ValueError("s must be >= 1")
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    return q_convolution(subgroup(p, p - 1), (s * m, s * n), 3)


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
