"""Exact iterated cyclic convolution of integer histograms on (Z/p)^r.

A histogram is a pair of numpy arrays (vectors, counts): an int64 (n, r)
array of residue vectors and their positive counts.  Each step of
`self_convolution_power` pairs the support of the running power with the
support of the histogram by broadcasting, in blocks of at most _CHUNK pairs,
and names each sum by one mixed-radix int64 key (v_1 p + v_2 for r = 2).
The counts of equal keys are added exactly.  Where the grid of p^r keys holds
at most _TABLE_RATIO cells per pair of the step, each block adds its counts
into a table of p^r counts (`np.add.at`).  Otherwise the keys of a block are
sorted with the index of their pair packed into the same int64, the counts
gathered in that order and added over each run of equal keys, and the
distinct keys of several blocks are merged the same way.  Counts are int64
when mass^(2k) < 2^63, so that every count of every power and the sum of
their squares fit; otherwise they are numpy `object` arrays of Python ints, on
the same code path.  `sparse_work` counts the pairs up front, and `admit`
refuses a histogram whose pairs or keys exceed the route's limits.
"""

import math

import numpy as np

from .field import GuardExceeded

# Pairs the route may form: near it, 0.13-0.49 s and 65-204 MB peak RSS on a 2-core x86-64
# host (moments.j_histogram at k = 3: subgroup(541, 270), subgroup(1021, 340), exponents
# (1, 2); subgroup(9860681, 340), exponent 1).
SPARSE_WORK_LIMIT = 20_000_000
_CHUNK = 2**20  # pairs in one block of int64 temporaries (8 MB each), or one row of the support if longer
# Sums of one step go into a table of p^r counts where p^r <= _TABLE_RATIO * pairs, and are
# sorted above.  On a 2-core x86-64 host, random keys with 1, 2, 3, 4 and 6 table cells per
# pair took 1.3, 1.5, 1.9, 2.2 and 2.8 ms by table against 3.4, 2.3, 2.1, 1.9 and 1.8 ms by
# sorting for 10^5 pairs, and 15, 21, 26, 34 and 46 ms against 39, 31, 29, 30 and 29 ms for 10^6.
_TABLE_RATIO = 3


def _keys(vectors, p: int):
    """One mixed-radix key per row of vectors, the first coordinate most significant."""
    key = vectors[:, 0]
    for j in range(1, vectors.shape[1]):
        key = key * p + vectors[:, j]
    return key


def _coordinates(keys, p: int, r: int) -> list:
    """The r coordinate columns of mixed-radix keys, the most significant first."""
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


def _pair(cur: tuple, base: tuple, p: int, r: int) -> tuple:
    """The (keys, counts) of the convolution of cur and base, from every pair of their entries."""
    (ckeys, ccounts), (bkeys, bcounts) = cur, base
    ccols, bcols, grid = _coordinates(ckeys, p, r), _coordinates(bkeys, p, r), p**r
    # a grid of at most _TABLE_RATIO cells per pair is summed in place, by key
    table = np.zeros(grid, dtype=ccounts.dtype) if grid <= _TABLE_RATIO * len(ckeys) * len(bkeys) else None
    step = max(1, _CHUNK // len(bkeys))
    parts = []
    for s in range(0, len(ckeys), step):
        key = None
        for c, b in zip(ccols, bcols):
            t = c[s : s + step, None] + b
            u = t.view(np.uint64)
            np.minimum(u, u - np.uint64(p), out=u)  # t - p, unless that wraps below 0
            if key is None:
                key = t
            else:
                key *= p
                key += t
        key, counts = key.reshape(-1), np.multiply.outer(ccounts[s : s + step], bcounts).reshape(-1)
        if table is not None:
            np.add.at(table, key, counts)  # 1-D: numpy's fast path
            continue
        parts.append(_sum_equal(key, counts, grid))
        # merge once the later blocks hold as many keys as the merged ones
        if sum(len(k) for k, _ in parts[1:]) >= len(parts[0][0]):
            parts = [_merge(parts, grid)]
    if table is not None:
        keys = np.flatnonzero(table)
        return keys, table[keys]
    return _merge(parts, grid)


def sparse_work(nnz: int, k: int, size: int) -> int:
    """Worst-case pairs formed by a k-fold self-convolution of nnz cells on a grid of size cells.

    Step j pairs the support of the j-fold power with the nnz base cells; a sum
    of j base cells depends only on their multiset, so that support holds at
    most min(C(nnz + j - 1, j), size) cells.
    """
    return sum(min(math.comb(nnz + j - 1, j), size) * nnz for j in range(1, k))


def admit(nnz: int, k: int, p: int, r: int) -> int:
    """`sparse_work` for nnz cells on (Z/p)^r, or GuardExceeded where the route refuses them.

    It refuses more than SPARSE_WORK_LIMIT pairs, and keys below a p^r that, shifted past
    the entry index `_sum_equal` packs below them, could reach 2^63.  Within the pairs limit
    `_sum_equal` packs fewer than 2 SPARSE_WORK_LIMIT + max(_CHUNK, nnz) entries: a block
    holds at most max(_CHUNK, nnz) pairs, and a merge joins the distinct keys so far (at most
    the step's pairs), fewer keys again and one block.  Below 2^26 for nnz <= 2^22: p^r <= 2^37.
    """
    pairs = sparse_work(nnz, k, p**r)
    if pairs > SPARSE_WORK_LIMIT:
        raise GuardExceeded("sparse work", pairs, SPARSE_WORK_LIMIT)
    key_limit = 2 ** (63 - (2 * SPARSE_WORK_LIMIT + max(_CHUNK, nnz) - 1).bit_length())
    if p**r > key_limit:
        raise GuardExceeded("sparse keys", p**r, key_limit)
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
    cur = base = _sum_equal(_keys(np.array(vectors, dtype=np.int64), p), np.asarray(counts).astype(dtype), p**r)
    for _ in range(k - 1):
        cur = _pair(cur, base, p, r)
    return np.stack(_coordinates(cur[0], p, r), axis=1), cur[1]


def sum_of_squares(result: tuple) -> int:
    """Sum of squared counts of a convolution result, exact."""
    return int((result[1] * result[1]).sum())
