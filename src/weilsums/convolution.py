"""Exact iterated cyclic convolution of integer histograms on (Z/p)^r.

Sparse dicts of Python integers keep every count exact at any size.
`sparse_work` estimates the cost up front, for callers that choose between
routes or refuse a histogram that would take too long.
"""


def _sparse_pair(cur: dict, base: dict, p: int, r: int) -> dict:
    out: dict = {}
    if r == 1:
        for a, ca in cur.items():
            for b, cb in base.items():
                k = a + b
                if k >= p:
                    k -= p
                out[k] = out.get(k, 0) + ca * cb
        return out
    for a, ca in cur.items():
        for b, cb in base.items():
            k = tuple((x + y) % p for x, y in zip(a, b))
            out[k] = out.get(k, 0) + ca * cb
    return out


def sparse_work(nnz: int, k: int, size: int) -> int:
    """Worst-case dict updates of a k-fold self-convolution of nnz cells on a grid of size cells.

    Step j pairs the at most min(nnz^j, size) cells of the j-fold power with the nnz base cells.
    """
    work = 0
    grown = nnz
    for _ in range(k - 1):
        work += grown * nnz
        grown = min(grown * nnz, size)
    return work


def self_convolution_power(hist: dict, k: int, p: int, r: int):
    """k-fold cyclic self-convolution of hist on (Z/p)^r, exactly.

    hist maps residues (ints for r=1, r-tuples otherwise) to nonnegative
    counts.  Returns a dict of exact integer counts.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r not in (1, 2):
        raise ValueError(f"only r in {{1, 2}} is supported, got r={r}")
    if not hist:
        raise ValueError("empty histogram")
    cur = dict(hist)
    for _ in range(k - 1):
        cur = _sparse_pair(cur, hist, p, r)
    return cur


def sum_of_squares(result: dict) -> int:
    """Sum of squared counts of a convolution result, exact."""
    return sum(c * c for c in result.values())
