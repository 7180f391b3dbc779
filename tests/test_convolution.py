"""Exact integer cyclic convolution on (vectors, counts) arrays, against direct enumeration."""

import itertools
import math
import random

import numpy as np
import pytest

from weilsums import convolution, field, moments


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


def as_arrays(hist, r):
    """A dict histogram (int keys for r = 1, r-tuples otherwise) as (vectors, counts) arrays."""
    keys = list(hist)
    return np.array(keys, dtype=np.int64).reshape(len(keys), r), np.array([hist[k] for k in keys], dtype=np.int64)


def power(hist, k, p, r):
    """The k-fold power of a dict histogram by the array route, as a dict of its nonzero counts."""
    vectors, counts = convolution.self_convolution_power(as_arrays(hist, r), k, p, r)
    keys = vectors[:, 0].tolist() if r == 1 else map(tuple, vectors.tolist())
    return {key: c for key, c in zip(keys, counts.tolist()) if c}


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
    assert power(hist, 1, 7, 1) == hist


def test_small_known_value():
    # (x^1 + x^2)^2 on Z/3: exponent sums 2,3,3,4 -> {2:1, 0:2, 1:1}
    assert power({1: 1, 2: 1}, 2, 3, 1) == {0: 2, 1: 1, 2: 1}


def test_randomized_against_bruteforce():
    rng = random.Random("convcheck")
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7, 11, 17))
        r = rng.choice((1, 2))
        k = rng.randrange(1, 5)
        nnz = rng.randrange(1, min(6, p**r) + 1)
        hist = random_hist(rng, p, r, nnz)
        assert power(hist, k, p, r) == nonzero(brute_power(hist, k, p, r))


def test_three_and_four_coordinates_against_bruteforce():
    rng = random.Random("convcheck-r34")
    for _ in range(12):
        p, r, k = rng.choice((2, 5, 7)), rng.choice((3, 4)), rng.randrange(1, 4)
        hist = random_hist(rng, p, r, min(5, p**r))
        assert power(hist, k, p, r) == nonzero(brute_power(hist, k, p, r))


def test_mass_conservation():
    rng = random.Random("mass")
    for _ in range(10):
        p = rng.choice((5, 13, 31))
        r = rng.choice((1, 2))
        k = rng.randrange(1, 4)
        hist = random_hist(rng, p, r, min(8, p**r))
        mass = sum(hist.values())
        assert sum(power(hist, k, p, r).values()) == mass**k


def test_validation():
    with pytest.raises(ValueError):
        convolution.self_convolution_power(as_arrays({1: 1}, 1), 0, 7, 1)
    with pytest.raises(ValueError):
        convolution.self_convolution_power(as_arrays({}, 1), 2, 7, 1)
    with pytest.raises(ValueError):  # vectors of the wrong width
        convolution.self_convolution_power(as_arrays({(1, 1): 1}, 2), 2, 7, 1)
    with pytest.raises(ValueError):  # not residues mod 7
        convolution.self_convolution_power(as_arrays({7: 1}, 1), 2, 7, 1)


def test_sum_of_squares():
    vectors = np.array([[0], [4]], dtype=np.int64)
    assert convolution.sum_of_squares((vectors, np.array([3, 2]))) == 13
    # python ints: squares beyond int64 stay exact
    big = np.array([2**31 + 5, 2**31 + 7], dtype=object)
    assert convolution.sum_of_squares((vectors, big)) == (2**31 + 5) ** 2 + (2**31 + 7) ** 2


def test_sparse_work_counts_pair_updates():
    # k=3 with 4 cells on a 7-cell grid: 4*4 pairs, then min(16, 7)*4
    assert convolution.sparse_work(4, 3, 7) == 16 + 28
    assert convolution.sparse_work(4, 1, 7) == 0
    rng = random.Random("sparsework")
    for _ in range(10):
        p, r, k = rng.choice((5, 11)), rng.choice((1, 2)), rng.randrange(1, 5)
        hist = random_hist(rng, p, r, min(6, p**r))
        # step j pairs the support of the j-fold power with the support of hist
        pairs = sum(len(power(hist, j, p, r)) * len(hist) for j in range(1, k))
        assert pairs <= convolution.sparse_work(len(hist), k, p**r)


def test_array_route_property():
    # the array route against the dict oracle on random histograms, with
    # counts large enough that some powers leave int64
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    primes = [p for p in range(2, 60) if field.is_prime(p)]

    @hyp.settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @hyp.given(st.sampled_from(primes), st.sampled_from((1, 2)), st.integers(1, 4), st.data())
    def check(p, r, k, data):
        key = st.integers(0, p - 1) if r == 1 else st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
        hist = data.draw(st.dictionaries(key, st.integers(1, 2**20), min_size=1, max_size=8))
        assert power(hist, k, p, r) == nonzero(brute_power(hist, k, p, r))

    check()


def test_sparse_route_beyond_int64():
    # Q_40 of {1, -1} mod 101: pairs of 40-tuples of signs with equal sums, sum_j C(40, j)^2
    G = field.subgroup(101, 2)
    hist = moments._histogram(moments._power_vectors(G, (1,)), 101)
    result = convolution.self_convolution_power(hist, 40, 101, 1)
    assert result[1].dtype == object  # mass^(2k) = 2^80 >= 2^63
    assert convolution.sum_of_squares(result) == math.comb(80, 40) == 107507208733336176461620
    assert moments.q_convolution(G, (1,), 40) == math.comb(80, 40)


def test_key_packing_near_the_pairs_limit(monkeypatch):
    # 34 power vectors at k = 6 on a grid of p^2 < 2^37 keys: 98% of the pairs limit
    p, k = 370261, 6
    hist = moments._histogram(moments._power_vectors(field.subgroup(p, 34), (1, 2)), p)
    assert 0.97 * convolution.SPARSE_WORK_LIMIT < convolution.admit(34, k, p, 2) <= convolution.SPARSE_WORK_LIMIT
    longest = 0
    sum_equal = convolution._sum_equal

    def spy(keys, counts, bound, index=False):
        nonlocal longest
        longest = max(longest, len(keys))
        assert bound == p**2
        return sum_equal(keys, counts, bound, index)

    monkeypatch.setattr(convolution, "_sum_equal", spy)
    convolution.self_convolution_power(hist, k, p, 2)
    # the key bits plus the bits of the entry index that _sum_equal packs beside them
    assert (p**2 - 1).bit_length() + (longest - 1).bit_length() <= 63
    assert longest < 2 * convolution.SPARSE_WORK_LIMIT + convolution._CHUNK


def test_blocked_pairing(monkeypatch):
    # blocks of a few pairs, a row of the support when that is longer, and
    # merges of the distinct keys across blocks give the unblocked counts
    rng = random.Random("blocks")
    cases = [(rng.choice((5, 13, 31)), rng.choice((1, 2)), rng.randrange(2, 5)) for _ in range(12)]
    cases = [(p, r, k, random_hist(rng, p, r, min(9, p**r))) for p, r, k in cases]
    cases.append((101, 1, 40, {1: 1, 100: 1}))
    want = [power(hist, k, p, r) for p, r, k, hist in cases]
    for chunk in (1, 5, 12):
        monkeypatch.setattr(convolution, "_CHUNK", chunk)
        assert [power(hist, k, p, r) for p, r, k, hist in cases] == want, chunk

