"""Exact integer cyclic convolution on sparse dicts, against direct enumeration."""

import itertools
import random

import pytest

from weilsums import convolution


def brute_power(hist, k, p, r):
    """k-fold cyclic self-convolution by direct enumeration of k-tuples."""
    keys = list(hist)
    out = {}
    for combo in itertools.product(keys, repeat=k):
        w = 1
        for key in combo:
            w *= hist[key]
        if r == 1:
            tgt = sum(combo) % p
        else:
            tgt = tuple(sum(c[i] for c in combo) % p for i in range(r))
        out[tgt] = out.get(tgt, 0) + w
    return out


def nonzero(result):
    return {k: v for k, v in result.items() if v}


def random_hist(rng, p, r, nnz):
    out = {}
    while len(out) < nnz:
        if r == 1:
            key = rng.randrange(p)
        else:
            key = tuple(rng.randrange(p) for _ in range(r))
        out[key] = rng.randrange(1, 6)
    return out


def test_identity_power():
    hist = {3: 2, 5: 1}
    got = convolution.self_convolution_power(hist, 1, 7, 1)
    assert nonzero(got) == hist


def test_small_known_value():
    # (x^1 + x^2)^2 on Z/3: exponent sums 2,3,3,4 -> {2:1, 0:2, 1:1}
    got = convolution.self_convolution_power({1: 1, 2: 1}, 2, 3, 1)
    assert nonzero(got) == {0: 2, 1: 1, 2: 1}


def test_randomized_against_bruteforce():
    rng = random.Random("convcheck")
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7, 11, 17))
        r = rng.choice((1, 2))
        k = rng.randrange(1, 5)
        nnz = rng.randrange(1, min(6, p**r) + 1)
        hist = random_hist(rng, p, r, nnz)
        got = convolution.self_convolution_power(hist, k, p, r)
        assert nonzero(got) == {k_: v for k_, v in brute_power(hist, k, p, r).items() if v}


def test_mass_conservation():
    rng = random.Random("mass")
    for _ in range(10):
        p = rng.choice((5, 13, 31))
        r = rng.choice((1, 2))
        k = rng.randrange(1, 4)
        hist = random_hist(rng, p, r, min(8, p**r))
        mass = sum(hist.values())
        got = convolution.self_convolution_power(hist, k, p, r)
        total = sum(nonzero(got).values())
        assert total == mass**k


def test_validation():
    with pytest.raises(ValueError):
        convolution.self_convolution_power({1: 1}, 0, 7, 1)
    with pytest.raises(ValueError):
        convolution.self_convolution_power({}, 2, 7, 1)
    with pytest.raises(ValueError):
        convolution.self_convolution_power({(1, 1, 1): 1}, 2, 7, 3)


def test_sum_of_squares():
    assert convolution.sum_of_squares({0: 3, 4: 2}) == 13
    # python ints: squares beyond int64 stay exact
    assert convolution.sum_of_squares({0: 2**31 + 5, 1: 2**31 + 7}) == (2**31 + 5) ** 2 + (2**31 + 7) ** 2


def test_sparse_work_counts_pair_updates():
    # k=3 with 4 cells on a 7-cell grid: 4*4 pairs, then min(16, 7)*4
    assert convolution.sparse_work(4, 3, 7) == 16 + 28
    assert convolution.sparse_work(4, 1, 7) == 0
    rng = random.Random("sparsework")
    for _ in range(10):
        p, r, k = rng.choice((5, 11)), rng.choice((1, 2)), rng.randrange(1, 5)
        hist = random_hist(rng, p, r, min(6, p**r))
        pairs, cur = 0, dict(hist)
        for _ in range(k - 1):
            pairs += len(cur) * len(hist)
            cur = convolution._sparse_pair(cur, hist, p, r)
        assert pairs <= convolution.sparse_work(len(hist), k, p**r)
