"""Orbit-driven generators and the export formats."""

import io
import random
import struct

import numpy as np
import pytest

from weilsums import field, prng, sums
from weilsums.sums import SparsePolynomial


def test_power_generator_identity_poly():
    G = field.subgroup(13, 4)
    seq = prng.power_generator(G, SparsePolynomial.parse("1*x^1"), 4)
    assert seq.residues == (8, 12, 5, 1)
    assert seq.residues.count(None) == 0
    assert len(seq) == 4


def test_power_generator_frozen():
    G = field.subgroup(13, 4)
    seq = prng.power_generator(G, SparsePolynomial.parse("1*x^2"), 4)
    assert seq.residues == (12, 1, 12, 1)


def test_power_generator_periodicity():
    G = field.subgroup(31, 6)
    f = SparsePolynomial.parse("3*x^2+5*x^7")
    seq = prng.power_generator(G, f, 12)
    assert seq.residues[:6] == seq.residues[6:]
    assert seq.residues == tuple(f.evaluate(pow(G.theta, x, 31), 31) for x in range(1, 13))


def test_power_generator_validation():
    G = field.subgroup(13, 4)
    with pytest.raises(ValueError):
        prng.power_generator(G, SparsePolynomial.parse("1*x^1"), 0)


def test_inversive_generator_frozen():
    G = field.subgroup(13, 4)
    seq = prng.inversive_generator(G, 1, 1, 4)
    # orbit 8,12,5,1 -> a*g+b = 9,0,6,2 -> inverses 3,-,11,7
    assert seq.residues == (3, None, 11, 7)
    assert seq.residues.count(None) == 1
    assert seq.included() == [3, 11, 7]


def test_inversive_generator_b_zero():
    G = field.subgroup(13, 4)
    a = 3
    seq = prng.inversive_generator(G, a, 0, 4)
    ainv = pow(a, -1, 13)
    want = tuple(ainv * pow(G.theta, -x, 13) % 13 for x in range(1, 5))
    assert seq.residues == want
    assert seq.residues.count(None) == 0


def test_inversive_generator_at_most_one_exclusion_per_period():
    rng = random.Random("invgen")
    for _ in range(40):
        p = rng.choice((13, 31, 101))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        seq = prng.inversive_generator(G, a, b, tau)
        assert seq.residues.count(None) <= 1


def test_inversive_generator_validation():
    G = field.subgroup(13, 4)
    with pytest.raises(ValueError):
        prng.inversive_generator(G, 0, 1, 4)
    with pytest.raises(ValueError):
        prng.inversive_generator(G, 13, 1, 4)
    with pytest.raises(ValueError):
        prng.inversive_generator(G, 1, 1, 0)


def test_power_generator_consistent_with_incomplete_sum():
    # the generator and the incomplete sum walk the same orbit prefix
    G = field.subgroup(101, 20)
    f = SparsePolynomial.parse("7*x^3+2*x^4")
    for count in (1, 7, 20):
        seq = prng.power_generator(G, f, count)
        s = sums.incomplete_subgroup_sum(G, f, count)
        direct = field.unit_roots(np.array(seq.residues), 101).sum()
        assert abs(s.value - direct) < 1e-12


def test_write_csv():
    G = field.subgroup(13, 4)
    seq = prng.inversive_generator(G, 1, 1, 4)
    buf = io.StringIO()
    prng.write_csv(seq, buf)
    assert buf.getvalue() == "index,value\n1,3\n2,\n3,11\n4,7\n"


def test_write_u64le():
    G = field.subgroup(13, 4)
    seq = prng.inversive_generator(G, 1, 1, 4)
    buf = io.BytesIO()
    prng.write_u64le(seq, buf)
    data = buf.getvalue()
    assert len(data) == 3 * 8  # the excluded term is skipped
    assert struct.unpack("<3Q", data) == (3, 11, 7)
