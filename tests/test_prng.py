"""Orbit-driven generators, their statistics, and the export formats."""

import io
import random
import struct

import pytest

from weilsums import field, prng, sums
from weilsums.sums import SparsePolynomial


def test_power_generator_identity_poly():
    G = field.subgroup(13, 4)
    seq = prng.power_generator(G, SparsePolynomial.parse("1*x^1"), 4)
    assert seq.residues == (8, 12, 5, 1)
    assert seq.period == 4
    assert seq.excluded_count == 0
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
    assert seq.excluded_count == 1
    assert seq.included() == [3, 11, 7]


def test_inversive_generator_b_zero():
    G = field.subgroup(13, 4)
    a = 3
    seq = prng.inversive_generator(G, a, 0, 4)
    ainv = pow(a, -1, 13)
    want = tuple(ainv * pow(G.theta, -x, 13) % 13 for x in range(1, 5))
    assert seq.residues == want
    assert seq.excluded_count == 0


def test_inversive_generator_at_most_one_exclusion_per_period():
    rng = random.Random("invgen")
    for _ in range(40):
        p = rng.choice((13, 31, 101))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        seq = prng.inversive_generator(G, a, b, tau)
        assert seq.excluded_count <= 1


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
        direct = sum(field.additive_character(101, v) for v in seq.residues)
        assert abs(s.value - direct) < 1e-12


def test_equidistribution_constant_sequence():
    G = field.subgroup(13, 4)
    seq = prng.power_generator(G, SparsePolynomial((), 5), 4)
    rep = prng.equidistribution_report(seq, harmonics=6)
    assert all(abs(x - 1) < 1e-12 for x in rep.per_harmonic)
    assert abs(rep.max_harmonic - 1) < 1e-12
    # successive differences vanish, so the lag-1 sum has modulus 1
    assert abs(rep.serial_correlation - 1) < 1e-12


def test_equidistribution_full_residue_system():
    # 0..p-1 once each: every harmonic cancels exactly
    p = 31
    seq = prng.GeneratorSequence(p, p, "manual", tuple(range(p)))
    rep = prng.equidistribution_report(seq, harmonics=10)
    assert rep.max_harmonic < 1e-10
    assert rep.included_count == p
    assert rep.excluded_count == 0


def test_equidistribution_first_harmonic_is_normalized_sum():
    # h = 1 reproduces |S(G; f)| / tau for a full-period power sequence
    G = field.subgroup(13, 4)
    f = SparsePolynomial.parse("1*x^1")
    seq = prng.power_generator(G, f, 4)
    rep = prng.equidistribution_report(seq)
    want = sums.subgroup_sum(G, f).magnitude / 4
    assert abs(rep.per_harmonic[0] - want) < 1e-12
    assert abs(rep.per_harmonic[0] - 0.2738905549642181 / 4) < 1e-12


def test_equidistribution_frozen():
    G = field.subgroup(13, 4)
    seq = prng.power_generator(G, SparsePolynomial.parse("1*x^2"), 4)
    rep = prng.equidistribution_report(seq)
    assert abs(rep.per_harmonic[0] - 0.8854560256532100) < 1e-12
    assert abs(rep.max_harmonic - 0.970941817426052) < 1e-12
    assert abs(rep.serial_correlation - 0.6308354647106093) < 1e-12


def test_equidistribution_skips_excluded():
    G = field.subgroup(13, 4)
    seq = prng.inversive_generator(G, 1, 1, 4)
    rep = prng.equidistribution_report(seq)
    assert rep.included_count == 3
    assert rep.excluded_count == 1
    # all terms excluded -> no statistics
    dead = prng.GeneratorSequence(13, 4, "manual", (None, None))
    with pytest.raises(ValueError):
        prng.equidistribution_report(dead)


def test_equidistribution_lag_pairs_only_true_neighbours():
    # (2, 3, None, 5, ...): the lag-1 sum runs over the 9 adjacent pairs with
    # both terms included, never over (3, 5) across the excluded term
    seq = prng.inversive_generator(field.subgroup(13, 12), 1, 5, 12)
    assert seq.residues[:4] == (2, 3, None, 5)
    rep = prng.equidistribution_report(seq)
    res = seq.residues
    pairs = [(x, y) for x, y in zip(res, res[1:]) if x is not None and y is not None]
    assert len(pairs) == 9
    direct = abs(sum(field.additive_character(13, y - x) for x, y in pairs)) / 9
    assert abs(rep.serial_correlation - direct) < 1e-12
    assert abs(rep.serial_correlation - 0.51836) < 1e-5
    # one included term between exclusions: no neighbour pairs at all
    lone = prng.GeneratorSequence(13, 4, "manual", (None, 7, None))
    assert prng.equidistribution_report(lone).serial_correlation == 0.0


def test_equidistribution_validation():
    G = field.subgroup(13, 4)
    seq = prng.power_generator(G, SparsePolynomial.parse("1*x^1"), 4)
    with pytest.raises(ValueError):
        prng.equidistribution_report(seq, harmonics=0)


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
