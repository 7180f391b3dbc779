"""Exact sums of weighted residue vectors on (Z/p)^r: the one pairing engine of the moment
counts, and the iterated cyclic convolution of integer histograms on it.

A histogram is a pair of numpy arrays (vectors, counts): an int64 (n, r) array
of residue vectors and their positive counts.  A step of `pair_steps` pairs
weighted representatives with the support of a histogram by broadcasting, in
blocks of at most _CHUNK pairs, and labels each sum mod p by its orbit under a
group of additive maps that carries the histogram onto itself: `moments` by
`field.orbit_labels`, `self_convolution_power` by one-point orbits, one
mixed-radix int64 key each (v_1 p + v_2 for r = 2), decoded once at the end.
The weights of equal labels are added exactly: on a last step whose labels lie
below _TABLE_RATIO times its pairs, into a table (`np.add.at`); otherwise by
sorting each block's labels with the index of their pair packed into the same
int64 (`_sum_equal`), adding the gathered weights over each run of equal labels,
keeping one sum of each label as its representative while a later step pairs
it, and merging the distinct labels of several blocks the same way.  The
convolution's counts are int64 when mass^(2k) < 2^63, so that every count of
every power and the sum of their squares fit; otherwise they are numpy `object`
arrays of Python ints, on the same code path.  `sparse_work` counts its pairs
up front, and `admit` refuses a histogram whose pairs or keys exceed its limits.
"""

import math

import numpy as np

from .field import GuardExceeded

# Pairs the convolution may form: near it, 0.15-0.45 s and 74-206 MB peak RSS on a 2-core
# x86-64 host (moments.j_histogram at k = 3: subgroup(541, 270), subgroup(1021, 340),
# exponents (1, 2); subgroup(9860681, 340), exponent 1; min of 5 runs in a fresh process).
SPARSE_WORK_LIMIT = 20_000_000
_CHUNK = 2**20  # pairs in one block of int64 temporaries (8 MB each), or one row of the support if longer
# The sums of a last step go into a table where their labels lie below _TABLE_RATIO * pairs,
# and are sorted above.  On a 2-core x86-64 host, random keys with 1, 2, 3, 4 and 6 table cells per
# pair took 1.3, 1.5, 1.9, 2.2 and 2.8 ms by table against 3.4, 2.3, 2.1, 1.9 and 1.8 ms by
# sorting for 10^5 pairs, and 15, 21, 26, 34 and 46 ms against 39, 31, 29, 30 and 29 ms for 10^6.
_TABLE_RATIO = 3


def _keys(cols, p: int):
    """One mixed-radix key per entry of the r rows cols of residues, the first most significant (cols[0] if r = 1)."""
    key = cols[0]
    for c in cols[1:]:
        key = key * p
        key += c
    return key


def _coordinates(keys, p: int, r: int) -> list:
    """The r coordinate rows of mixed-radix keys, the most significant first."""
    cols = []
    for _ in range(r - 1):
        keys, low = np.divmod(keys, p)
        cols.append(low)
    return [keys, *cols[::-1]]


def _sum_equal(keys, counts, bound: int, index: bool = False) -> tuple:
    """The distinct keys, sorted, with the exact sum of the counts of each, for keys below
    bound; keys may be overwritten.

    With index, also the position in keys of one entry of each distinct key.
    The entry index is packed below each key, so that one int64 sort orders
    both, where bound shifted past it stays below 2^63; larger keys take an
    argsort.
    """
    shift = max(1, (len(keys) - 1).bit_length())
    if bound > 2 ** (63 - shift):
        order = np.argsort(keys)
        keys = keys[order]
        start = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        out = keys[start], np.add.reduceat(counts[order], start)
        return (*out, order[start]) if index else out
    keys <<= shift
    keys |= np.arange(len(keys))
    keys.sort()
    where = keys & ((1 << shift) - 1)
    total = counts[where]
    np.cumsum(total, out=total)  # below mass^k, by the dtype rule
    keys >>= shift
    last = np.empty(len(keys), dtype=bool)  # the last entry of each run of equal keys
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[-1] = True
    total = total[last]
    total[1:] -= total[:-1].copy()
    return (keys[last], total, where[last]) if index else (keys[last], total)


def _merge(parts: list, bound: int) -> tuple:
    """One tuple from several of `_sum_equal`'s on keys below bound: the distinct keys of all
    with their summed counts, and where the parts carry representatives (a third array, its
    last axis over their keys), those of one entry of each key."""
    if len(parts) == 1:
        return parts[0]
    keys, counts, *reps = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    out = _sum_equal(keys, counts, bound, bool(reps))
    return (*out[:2], reps[0][..., out[2]]) if reps else out


def pair_steps(reps, totals, support, weights, steps: int, p: int, label, bound: int) -> tuple:
    """(labels, totals): the distinct labels, sorted, of the sums u + v_1 + ... + v_steps mod p
    for u in reps and v_i in support, with the summed products of their weights.

    reps and support are (r, n) and (r, m) int64 arrays of residues, weighted by totals and
    weights of one dtype; label maps r rows of residues to int64 labels below bound, one per
    orbit, and totals are orbit totals (see the module docstring).  No steps: reps' labels.
    """
    if not steps:
        return label(*reps), totals
    r, m = support.shape
    for j in range(steps):
        keep = j < steps - 1  # a later step pairs the representatives
        table = None if keep or bound > _TABLE_RATIO * len(totals) * m else np.zeros(bound, dtype=totals.dtype)
        rows = min(len(totals), max(1, _CHUNK // m))
        buf = np.empty(r * rows * m, dtype=np.int64)
        parts = []
        for start in range(0, len(totals), rows):
            block = totals[start : start + rows]
            sums = buf[: r * len(block) * m].reshape(r, -1)
            np.add(reps[:, start : start + rows, None], support[:, None, :], out=sums.reshape(r, len(block), m))
            for row in sums.view(np.uint64):
                np.minimum(row, row - np.uint64(p), out=row)  # u + v - p, unless that wraps below 0
            labels = label(*sums)
            if keep and np.may_share_memory(labels, sums):
                labels = labels.copy()  # _sum_equal overwrites them, and the sums are read after
            counts = np.multiply.outer(block, weights).reshape(-1)
            if table is not None:
                np.add.at(table, labels, counts)  # 1-D: numpy's fast path
                continue
            part = _sum_equal(labels, counts, bound, keep)
            parts.append((*part[:2], sums[:, part[2]]) if keep else part)
            # merge once the later blocks hold as many labels as the merged ones
            if sum(len(part[0]) for part in parts[1:]) >= len(parts[0][0]):
                parts = [_merge(parts, bound)]
        if table is not None:
            labels = np.flatnonzero(table)
            return labels, table[labels]
        labels, totals, *rest = _merge(parts, bound)
        reps = rest[0] if rest else None
    return labels, totals


def sparse_work(nnz: int, k: int, size: int) -> int:
    """Worst-case pairs formed by a k-fold self-convolution of nnz cells on a grid of size cells.

    Step j pairs the support of the j-fold power with the nnz base cells; a sum
    of j base cells depends only on their multiset, so that support holds at
    most min(C(nnz + j - 1, j), size) cells.
    """
    return sum(min(math.comb(nnz + j - 1, j), size) * nnz for j in range(1, k))


def admit(nnz: int, k: int, p: int, r: int) -> int:
    """`sparse_work` for nnz cells on (Z/p)^r, or GuardExceeded where `self_convolution_power` refuses them.

    It refuses more than SPARSE_WORK_LIMIT pairs, and a p^r above 2^63, whose mixed-radix
    keys would leave int64.  (`_sum_equal` packs the entry index beside keys where both fit
    in an int64, and sorts larger keys by argsort.)
    """
    pairs = sparse_work(nnz, k, p**r)
    if pairs > SPARSE_WORK_LIMIT:
        raise GuardExceeded("sparse work", pairs, SPARSE_WORK_LIMIT)
    if p**r > 2**63:
        raise GuardExceeded("sparse keys", p**r, 2**63)
    return pairs


def self_convolution_power(hist: tuple, k: int, p: int, r: int) -> tuple:
    """k-fold cyclic self-convolution of hist on (Z/p)^r, exactly.

    hist is (vectors, counts): an (n, r) array of residue vectors and their
    positive counts.  Returns the power in the same form, its vectors distinct
    and sorted, its counts int64 or Python ints (see the module docstring).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vectors, counts = hist
    if not len(counts):
        raise ValueError("empty histogram")
    if vectors.shape != (len(counts), r):
        raise ValueError(f"need an (n, {r}) array of vectors, got shape {vectors.shape}")
    admit(len(counts), k, p, r)
    if vectors.min() < 0 or vectors.max() >= p:
        raise ValueError(f"vectors must be residues in [0, {p})")
    values = counts.tolist()
    if min(values) < 1:
        raise ValueError("counts must be positive")
    dtype = np.int64 if sum(values) ** (2 * k) < 2**63 else object
    keys, base = _sum_equal(_keys(np.array(vectors, dtype=np.int64).T, p), np.asarray(counts).astype(dtype), p**r)
    support = np.stack(_coordinates(keys, p, r))
    # every orbit is one point, labelled by its key
    keys, counts = pair_steps(support, base, support, base, k - 1, p, lambda *cols: _keys(cols, p), p**r)
    return np.stack(_coordinates(keys, p, r), axis=1), counts


def sum_of_squares(result: tuple) -> int:
    """Sum of squared counts of a convolution result, exact."""
    return int((result[1] * result[1]).sum())
