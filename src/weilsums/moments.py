"""Exact moment counts for power-sum equation systems over multiplicative subgroups.

Q_k counts 2k-tuples (u_1..u_k, v_1..v_k) in G^2k solving the diagonal system
sum_i u_i^{n_j} = sum_i v_i^{n_j} for j = 1..r, so Q_k = sum_x H_k(x)^2 for H_k the
k-fold cyclic self-convolution of the histogram h = H_1 of the power vectors
(g^{n_1}, ..., g^{n_r}), g in G.  The power vectors are an int64 (tau, r) array in
generator order, one `field.powers` call with a chain per exponent, and h is the
pair of arrays (vectors, counts) of its distinct rows, counted by one mixed-radix
key per row.  Three exact routes compute Q_k: enumeration, the quotient route and the
orbit route.

Enumeration (`q_bruteforce`, the oracle) visits the tau^k tuples, at most
BRUTE_FORCE_LIMIT (guard `tau^k`), and shares no counting code with the other
routes.  It forms the sums mod p of the last m factors once, as an inner block
of tau^m vectors with r tau^m <= _CHUNK, adds the sums of the first k - m factors
to it in blocks of at most _CHUNK int64 entries (none when m = k), and counts
equal sums.  Where p^r is small it counts them in a table of p^r entries.
Otherwise it sorts each block's sums (one mixed-radix key each below p^r = 2^63,
r coordinate columns above) and merges the distinct sums and their counts across
blocks; when more than _CHUNK distinct sums are possible, it does so in passes
over windows of the first coordinate, each holding about _CHUNK of them, so that
memory stays bounded by the block size.  Q_k is the sum of the squared counts.

The quotient route uses that H_j is constant on the orbits of a group of additive
maps of F_p^r that carries h onto itself.  It keeps one representative u of each
orbit O of H_j with the orbit's total T_j(O) = |O| H_j(u), T_1 from h, and
T_j(O) = sum over u of T_{j-1}(O_u) sum_v h(v) [u + v in O]: a step of
`convolution.pair_steps` pairs each representative with the support of h and sums
the weights by the label of u + v, keeping one sum in each orbit as its
representative.  Then Q_k = sum_O T_k(O)^2 / |O|.  For r <= 2 the orbits are those
of x -> (g^{n_1} x_1, ..., g^{n_r} x_r), g in G (`field.orbit_labels`), and h is
the orbit of (1, ..., 1); a step forms (orbits of H_{j-1}) x |supp h| pairs, about
tau times fewer than one-point orbits, at most QUOTIENT_WORK_LIMIT (guard
`quotient work`), and at r = 2 the labels' discrete logs bound p (guard `log
table`).  For r >= 3, and `j_histogram`, which needs all of H_k, every orbit is
one point, labelled by its mixed-radix key: the sparse route,
`convolution.self_convolution_power`, bounded by its pairs and keys (guards
`sparse work` and `sparse keys`, `convolution.admit`, which refuses p^r > 2^63).

The orbit route: with w of order p modulo a prime q = 1 (mod p) and
h^(xi) = sum_v h(v) w^(xi.v), orthogonality gives
p^r Q_k = sum_xi (h^(xi) h^(-xi))^k mod q.  h^ is constant on the orbits
xi -> (g^{n_1} xi_1, ..., g^{n_r} xi_r): the xi with xi_1 != 0 reduce to one xi_1
per coset of H_1 = {g^{n_1}} in F_p*, weighted |H_1|, and those with xi_1 = 0 to
the same sum for the marginal of h on the other coordinates.  That leaves about
p^r gcd(n_1, tau)/tau points xi, each a sum over the support of h.  Residues modulo
primes q < 2^31 keep int64 products below 2^62, and CRT over moduli whose product
exceeds p^r tau^(2k) >= p^r Q_k recovers p^r Q_k exactly; the result is checked to
be divisible by p^r.  Its grid of points xi times support vectors, about p^r for a
subgroup, is bounded by GRID_SIZE_LIMIT (guard `orbit grid`).

`_route` admits each route on what it spends, and `q_convolution` takes the cheaper
of the quotient (or, for r >= 3, sparse) route and the orbit route among those
admitted: the quotient route for small subgroups, the orbit route for tau near p
at k >= 3.  `q_second_route` takes the other one, as a cross-check.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import convolution
from .field import INT64_MODULUS_LIMIT, GuardExceeded, array_power, is_prime, least_primitive_root, powers
from .field import orbit_labels, prime_modulus, subgroup
from .sums import TERM_LIMIT, SparsePolynomial, subgroup_sum

BRUTE_FORCE_LIMIT = 10**8
# Largest grid of the orbit route: its points xi times the support of h, one int64 gather
# each per modulus.  The grid holds at least (p - 1) p^(r - 1) (see `_work`).
GRID_SIZE_LIMIT = 10**8
# Pairs the quotient route may form over all its steps: near it, 1.5-1.9 s and 320-410 MB peak RSS
# on a 2-core x86-64 host (subgroup(370261, 340) at k = 4, 6.7*10^6 pairs, and subgroup(999961, 390)
# at k = 4, 1.0*10^7 pairs, exponents (1, 2), where nearly every pair of the last step is its own orbit).
QUOTIENT_WORK_LIMIT = 10_000_000

_CHUNK = convolution._CHUNK  # int64 entries of an orbit-route or enumeration temporary (8 MB), or one row if longer
# Largest p with whole tables of w^j and w^-j (256 KB per modulus); above it (r = 1 only: the
# grid guard keeps r >= 2 below p = 10^4) each is two tables of about sqrt(p) entries, at 4x
# the cost per gather.
_FULL_TABLE = 2**14
# Costs of `_route` in orbit units (one int64 gather of the orbit route), fitted by
# tools/route_costs.py: three runs on its 88 cells (76 with r <= 2, 12 with r = 3) on a 2-core
# x86-64 host (Python 3.11, numpy 2.4) gave 5.9-6.2 ns per orbit unit and, for the quotient
# route, 9.7-10.3 units per pair, 2160-2450 per step and exponent and 3620-3930 per call.
# Since a last step with few labels per pair adds into a table, three later runs give 5.7-5.8
# ns per unit and 4.9-5.2 units per pair, 2530-3610 per step and 2710-3860 per call; the
# quotient costs above stay, as one pair cost for r = 1 and 2 cannot take that refit (below).
_QUOTIENT_PAIR = 10
_QUOTIENT_STEP = 2300
_QUOTIENT_CALL = 3700
# The sparse route (r >= 3 only) costs _SPARSE_COST r units per pair and _SPARSE_STEP per
# step: 1.6 and 11370-12180 in the later runs.
_SPARSE_COST = 1.6
_SPARSE_STEP = 11600
# The orbit route's fixed cost of one pass over a coordinate and of each modulus in it, of
# one row (point xi) beside its gathers, and of one entry of its root tables: 4540-4890 (28-30
# us), 8.8-9.9 and 2.4-2.6 in the first runs.  The rule errs two ways on the script's ladder.
# For r = 1 at p = 7561 it takes the quotient route at tau = 270, k = 3 (0.50 ms against 0.39
# ms for the orbit route), as an r = 1 label costs a power of about log2(tau) squarings that
# the pair cost does not weigh; the refit pair cost would also send tau = 7560 there (1.8 ms
# against 0.59 ms).  At r = 2, k = 3 it takes the orbit route for tau near p, where the
# quotient route's table step is now faster: subgroup(1009, 1008), exponents (1, 2), k = 3
# takes 16.5 ms by the orbit route against 13.0 ms.
_ORBIT_PASS = 4700
_ORBIT_ROW = 9.5
_ORBIT_TABLE = 2.5
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
    keys, counts = np.unique(convolution._keys(vecs.T, p), return_counts=True)
    return np.stack(convolution._coordinates(keys, p, vecs.shape[1]), axis=1), counts


def _add_mod(a, b, p: int):
    """(a + b) mod p for residues a, b below p < 2^62, broadcast; b should be the smaller operand."""
    s = a + (b - p)  # in [-p, p)
    s += (s >> 63) & p  # p where the sum is negative
    return s


def _tuple_sums(vecs, j: int, p: int):
    """Coordinate sums mod p of all j-tuples of the columns of vecs, as an (r, tau^j) array."""
    if not j:
        return np.zeros((len(vecs), 1), dtype=np.int64)
    out = vecs
    for _ in range(j - 1):
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
    if m == k:  # one block, and no outer sums to add (passes is 1: tau^k <= _CHUNK)
        blocks = ((0, inner),)
    elif passes == 1:
        step = max(1, _CHUNK // (r * inner.shape[1]))
        blocks = (
            (0, _add_mod(inner[:, None, :], outer[:, s : s + step, None], p).reshape(r, -1))
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
            _, first, inverse = np.unique(convolution._keys(vecs[:, 1:].T, p), return_index=True, return_inverse=True)
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


def _quotient_count(hist: tuple, k: int, p: int, s: int, nvec) -> int:
    """Q_k = sum over orbits O of T_k(O)^2 / |O|, by the quotient route (see the module docstring).

    hist must be the power-vector histogram of the subgroup of cofactor s with
    exponents nvec, r <= 2, whose support is one orbit.  The steps are those of
    `convolution.pair_steps` over the orbits of `field.orbit_labels`, from the
    orbit of (1, ..., 1) alone.  Totals are int64 while mass^k < 2^63 and Python
    ints beyond, and so is the last sum while mass^(2k) < 2^63.
    """
    label, sizes, count = orbit_labels(p, s, nvec)
    vectors, counts = hist
    mass = int(counts.sum())
    dtype = np.int64 if mass**k < 2**63 else object  # every total is at most mass^k
    # H_1 is supported on one orbit, that of (1, ..., 1), with total mass
    reps, totals = np.ones((len(nvec), 1), dtype=np.int64), np.array([mass], dtype=dtype)
    bound = count if len(nvec) == 2 else p  # r = 1 labels are residues, not ranks
    labels, totals = convolution.pair_steps(reps, totals, vectors.T, counts.astype(dtype), k - 1, p, label, bound)
    if mass ** (2 * k) >= 2**63:  # each term is at most Q_k <= mass^(2k)
        totals = totals.astype(object)
    starts, size = zip(*sizes)
    size = np.array(size)[np.searchsorted(starts, labels, side="right") - 1]  # of each orbit
    return int((totals * (totals // size)).sum())


def _multiset_orbits(n: int, j: int) -> int:
    """Orbits of Z/n, acting by translation, on the j-element multisets of Z/n (Burnside's lemma)."""
    g = math.gcd(n, j)
    # a translation of order e fixes the multisets made of whole cosets of its subgroup
    return sum(
        sum(math.gcd(x, e) == 1 for x in range(1, e + 1)) * math.comb((n + j) // e - 1, j // e)
        for e in range(1, g + 1)
        if g % e == 0
    ) // n


def _work(hist: tuple, k: int, p: int, r: int, s: int, nvec) -> tuple:
    """(pairs, gathers, tables, rows, n_moduli): the work terms that `_route` prices.

    pairs is what the quotient route forms for r <= 2, and
    `convolution.self_convolution_power` (`convolution.sparse_work`) for r >= 3.
    The support of a subgroup's histogram is one orbit of nnz vectors on which
    the subgroup acts as Z/nnz by translation, and the points of H_j are sums
    of j-element multisets of it; so H_j has at most as many orbits as those
    multisets (`_multiset_orbits`), and at most as many as F_p^r.  n_moduli
    counts the moduli of `_bound` at 30 bits each; for each of them the orbit
    route builds root tables of p entries and evaluates one row per point xi,
    of one int64 gather per support vector: gathers, tables and rows are
    totals over the moduli.
    """
    vectors, counts = hist
    nnz = len(counts)
    points = (p - 1) // _distinct_count(vectors[:, 0]) * p ** (r - 1)
    n_moduli = _bound(hist, k, p, r).bit_length() // 30 + 1
    if r <= 2:
        orbits = orbit_labels(p, s, nvec)[2]
        pairs = nnz * sum(min(_multiset_orbits(nnz, j), orbits) for j in range(1, k))
    else:
        pairs = convolution.sparse_work(nnz, k, p**r)
    return pairs, n_moduli * points * nnz, n_moduli * p, n_moduli * points, n_moduli


def _route(hist: tuple, k: int, p: int, r: int, s: int, nvec) -> tuple:
    """(route, moduli): "quotient" or "sparse" with None, or "orbit" with its moduli; the one place that decides.

    The quotient route (r <= 2) admits a cell on its pairs (QUOTIENT_WORK_LIMIT;
    at r = 2 the log table guard bounds p when it runs), the sparse route
    (r >= 3) on its pairs and key bits (`convolution.admit`), and the orbit route
    on its grid (GRID_SIZE_LIMIT) and on enough primes q = 1 (mod p) below 2^31
    for the bound.  Of those admitted, the cheaper is taken, in orbit units (one
    int64 gather): _QUOTIENT_PAIR per pair, _QUOTIENT_STEP per step and exponent
    and _QUOTIENT_CALL, or _SPARSE_COST r per pair and _SPARSE_STEP per step,
    against the orbit route's gathers, _ORBIT_TABLE per root-table entry,
    _ORBIT_ROW per row and _ORBIT_PASS per pass and per modulus in a pass (see
    `_work`); on a tie, the route other than orbit.  Where neither admits the
    cell, the cheaper one's refusal is raised.
    """
    pairs, gathers, tables, rows, n_moduli = _work(hist, k, p, r, s, nvec)
    refusal = None
    if r <= 2:
        route, cost = "quotient", _QUOTIENT_PAIR * pairs + _QUOTIENT_STEP * r * (k - 1) + _QUOTIENT_CALL
        if pairs > QUOTIENT_WORK_LIMIT:
            refusal = GuardExceeded("quotient work", pairs, QUOTIENT_WORK_LIMIT)
    else:
        route, cost = "sparse", _SPARSE_COST * r * pairs + _SPARSE_STEP * (k - 1)
        try:
            convolution.admit(len(hist[1]), k, p, r)
        except GuardExceeded as exc:
            refusal = exc
    grid = rows // n_moduli * len(hist[1])
    orbit_refusal = GuardExceeded("orbit grid", grid, GRID_SIZE_LIMIT) if grid > GRID_SIZE_LIMIT else None
    orbit_cost = gathers + _ORBIT_TABLE * tables + _ORBIT_ROW * rows + r * (n_moduli + 1) * _ORBIT_PASS
    if cost <= orbit_cost and refusal is None:
        return route, None
    if orbit_refusal is None and (moduli := _moduli(p, _bound(hist, k, p, r))) is not None:
        return "orbit", moduli
    if refusal is None:
        return route, None
    raise refusal if cost <= orbit_cost else orbit_refusal or refusal


def _power_histogram(G, nvec, k: int, coeffs=None) -> tuple:
    """(hist, p, nvec): the histogram (`_histogram`) of the power vectors, once the arguments are checked."""
    nvec = _validate(nvec, k)
    p = G.modulus.p
    if coeffs is not None and (len(coeffs) != len(nvec) or any(c % p == 0 for c in coeffs)):
        raise ValueError("need one coefficient per exponent, each nonzero mod p")
    return _histogram(_power_vectors(G, nvec, coeffs), p), p, nvec


def q_convolution(G, nvec, k: int) -> int:
    """Q_k from the power-vector histogram, by the quotient (r <= 2) or sparse (r >= 3) route or the orbit route (`_route`)."""
    hist, p, nvec = _power_histogram(G, nvec, k)
    r = len(nvec)
    route, moduli = _route(hist, k, p, r, G.cofactor, nvec)
    if route == "orbit":
        return _orbit_count(hist, k, p, r, moduli)
    if route == "quotient":
        return _quotient_count(hist, k, p, G.cofactor, nvec)
    return convolution.sum_of_squares(convolution.self_convolution_power(hist, k, p, r))


def q_second_route(G, nvec, k: int) -> int:
    """Q_k (r <= 2) by a route other than the one `q_convolution` takes on the same cell, as a cross-check.

    Where q_convolution takes the orbit route, that is the quotient route, past
    its work limit: the orbit route's grid bounds p, to about 10^4 at r = 2, and
    there the orbits that a step holds number at most those of F_p^r.  Where it
    takes the quotient route, that is the orbit route if its grid and moduli
    admit the cell, else enumeration if tau^k <= BRUTE_FORCE_LIMIT, else the
    quotient route again.
    """
    hist, p, nvec = _power_histogram(G, nvec, k)
    r = len(nvec)
    if r > 2:
        raise ValueError("a second route needs at most two exponents")
    s = G.cofactor
    if _route(hist, k, p, r, s, nvec)[0] == "orbit":
        return _quotient_count(hist, k, p, s, nvec)
    rows, n_moduli = _work(hist, k, p, r, s, nvec)[3:]
    if rows // n_moduli * len(hist[1]) <= GRID_SIZE_LIMIT and (moduli := _moduli(p, _bound(hist, k, p, r))):
        return _orbit_count(hist, k, p, r, moduli)
    if G.tau**k <= BRUTE_FORCE_LIMIT:
        return q_bruteforce(G, nvec, k)
    return _quotient_count(hist, k, p, s, nvec)


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
    hist, p, nvec = _power_histogram(G, nvec, k, coeffs)
    return PowerVectorHistogram(p, k, *convolution.self_convolution_power(hist, k, p, len(nvec)))


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
