"""Prime field arithmetic, subgroups, extension fields, characters."""

import bisect
import cmath
import math
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from weilsums import field, poly


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert field.is_prime(n) == (n in primes)


def test_is_prime_large():
    assert field.is_prime(2**61 - 1)
    assert not field.is_prime(2**61 + 1)
    assert field.is_prime(1003001)
    # Carmichael number
    assert not field.is_prime(561)


def test_factorize():
    assert field.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert field.factorize(1) == {}
    assert field.factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
    with pytest.raises(ValueError):
        field.factorize(0)


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(10**4):
        assert field.is_prime(n) == sympy.isprime(n), n
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(2**62)
        # random n is almost always composite; its next prime checks the other verdict
        for m in (n, sympy.nextprime(n)):
            assert field.is_prime(m) == sympy.isprime(m), m


def test_factorize_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(32)
    cases = [rng.randrange(1, 2**62) for _ in range(200)]
    # semiprimes with two factors near 2^31, the hardest case for Pollard-Brent
    half = lambda: sympy.nextprime(rng.randrange(2**30, 2**31))  # noqa: E731
    cases += [half() * half() for _ in range(5)]
    cases += [rng.randrange(2, 50) ** rng.randrange(1, 12) for _ in range(20)]
    for n in cases:
        assert field.factorize(n) == sympy.factorint(n), n


def test_least_primitive_root_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(33)
    primes = [2, 3, 5] + [sympy.nextprime(rng.randrange(10**6)) for _ in range(200)]
    primes += [sympy.nextprime(rng.randrange(2**40)) for _ in range(20)]
    for p in primes:
        assert field.least_primitive_root(p) == sympy.primitive_root(p), p


def test_divisors():
    assert field.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert field.divisors(1) == [1]
    assert field.divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_least_primitive_root():
    assert field.least_primitive_root(13) == 2
    assert field.least_primitive_root(7) == 3
    assert field.least_primitive_root(2) == 1
    assert field.least_primitive_root(41) == 6
    # spot check the defining property: the powers of g exhaust F_p*
    for p in (3, 5, 11, 31, 101):
        g = field.least_primitive_root(p)
        assert len({pow(g, i, p) for i in range(1, p)}) == p - 1


def test_prime_modulus_validation():
    with pytest.raises(ValueError):
        field.PrimeModulus(15)
    with pytest.raises(ValueError):
        field.PrimeModulus(1)
    with pytest.raises(ValueError):
        field.PrimeModulus(2**62 + 15)
    with pytest.raises(TypeError):
        field.PrimeModulus(13.0)


def _characters(p, zs) -> list:
    """exp(2*pi*i*z/p) for each integer z, through field.unit_roots."""
    return [complex(c) for c in field.unit_roots(np.array([z % p for z in zs], dtype=np.int64), p)]


def test_character_examples():
    zero, wrap, one = _characters(13, (0, 13, 1))
    assert abs(zero - 1) < 1e-15
    assert abs(wrap - 1) < 1e-15
    want = complex(0.8854560256532099, 0.4647231720437685)
    assert abs(one - want) < 1e-13


def test_character_table_matches_direct():
    # 1048583 > 2**20 exercises the direct trig path
    big = 1048583
    assert field.is_prime(big)
    for p in (13, big):
        zs = (0, 1, 2, p - 1, p // 2, 7 * p + 3)
        for z, c in zip(zs, _characters(p, zs)):
            direct = cmath.exp(2j * cmath.pi * (z % p) / p)
            assert abs(c - direct) < 1e-12


def test_character_homomorphism():
    rng = random.Random("charhom")
    for p in (13, 9973):
        z1 = [rng.randrange(p) for _ in range(5000)]
        z2 = [rng.randrange(p) for _ in range(5000)]
        lhs = field.unit_roots(np.array(z1), p) * field.unit_roots(np.array(z2), p)
        rhs = field.unit_roots((np.array(z1) + np.array(z2)) % p, p)
        assert np.all(np.abs(lhs.real - rhs.real) < 1e-10)
        assert np.all(np.abs(lhs.imag - rhs.imag) < 1e-10)


def test_character_unit_modulus():
    rng = random.Random("unitmod")
    for p in (13, 101, 1048583):
        for c in _characters(p, [rng.randrange(p) for _ in range(100)]):
            assert abs(c.real * c.real + c.imag * c.imag - 1) <= 1e-12


def test_unit_root():
    # the 4th roots of unity from the table, and from cos and sin above the table limit
    big = 4 * (field.CHAR_TABLE_LIMIT + 1)
    for den in (4, big):
        roots = _characters(den, [k * den // 4 for k in (0, 1, 2, 3, 5)])
        assert roots[0] == 1
        assert max(abs(c - w) for c, w in zip(roots, (1, 1j, -1, -1j, 1j))) < 1e-15


@pytest.mark.parametrize("den", (24000001, 2184000001, 2305843009213693951))
def test_unit_roots_above_the_table_equal_the_folded_formula(den):
    # bit for bit the expression the in-place evaluation replaced
    rng = np.random.default_rng(den % 1000)
    half = (den - 1) // 2
    edges = [0, 1, half - 1, half, half + 1, den // 2, den // 2 + 1, den - 2, den - 1]
    k = np.concatenate([np.array(edges, dtype=np.int64), rng.integers(0, den, 1 << 16)])
    angle = math.tau * np.where(2 * k > den, k - den, k) / den
    want = np.empty(k.shape, np.complex128)
    want.real, want.imag = np.cos(angle), np.sin(angle)
    got = field.unit_roots(k, den)
    assert got.dtype == np.complex128 and got.shape == k.shape
    assert got.tobytes() == want.tobytes()
    # a 2-D batch keeps its shape and its rows
    assert field.unit_roots(k[:12].reshape(3, 4), den).tobytes() == want[:12].tobytes()


def test_unit_roots_above_the_table_allocate_one_temporary():
    # the result (16 B per residue) and one int64 temporary (8 B); the folded
    # formula held about twice the result
    k = np.random.default_rng(0).integers(0, 24000001, 1 << 20)
    tracemalloc.start()
    try:
        out = field.unit_roots(k, 24000001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * out.nbytes, peak


def test_unit_tables_stay_under_the_byte_cap(monkeypatch):
    # room for three half tables of about 500 entries (16 B each), not four
    cap = 16 * 1550
    monkeypatch.setattr(field, "CHAR_TABLE_BYTES", cap)
    monkeypatch.setattr(field, "_unit_tables", field._TableCache())
    first = {}
    lru = []  # the three most recently used dens, least recent first
    for den in [1000, 1001, 1002, 1003, 1000, 1004, 1000, 1001, 1005, 1002, 1000, 1003]:
        tab = field._unit_table(den)
        assert tab.nbytes == 16 * (den // 2 + 1)  # the cap counts the bytes held
        # the running total is the sum of the tables held
        assert field._unit_tables.held == sum(t.nbytes for t in field._unit_tables.values()) <= cap
        lru = [d for d in lru if d != den][-2:] + [den]
        assert list(field._unit_tables) == lru
        assert field._unit_table(den) is tab
        assert not tab.flags.writeable  # shared by every caller
        # every k in [0, den) read through the held table equals the full build
        assert field.unit_roots(np.arange(den), den).tobytes() == _folded_table(den).tobytes()
        if den in first:
            assert np.array_equal(tab, first[den])  # a rebuilt table equals the first build
        else:
            first[den] = tab.copy()
    # a table larger than the cap is built but not held
    big = field._unit_table(4001)
    assert len(big) == 4001 // 2 + 1 and 4001 not in field._unit_tables
    assert field._unit_tables.held == sum(t.nbytes for t in field._unit_tables.values()) <= cap
    assert field.unit_roots(np.arange(4001), 4001).tobytes() == _folded_table(4001).tobytes()


def _folded_table(den: int) -> np.ndarray:
    # the full build: k folded into (-den/2, den/2], then cos and sin of every entry
    k = np.arange(den, dtype=np.int64)
    k[den // 2 + 1 :] -= den
    return field._cis(math.tau / den, k)


@pytest.mark.parametrize("dens", [range(1, 3001), (19656, 196560, 960961, 982801, 1003001, 1008001, 1048573, 1 << 20)])
def test_mirrored_table_equals_the_full_build(monkeypatch, dens):
    # the table holds k = 0..den//2; every k in [0, den), read through it, must
    # equal the full build byte for byte.  For even den the entry at den/2 is
    # read, never conjugated or given a forced sign: its sine is a tiny number,
    # negative for 7,189 even den up to 2*10^5, the first 50, 82 and 100.
    monkeypatch.setattr(field, "_unit_tables", field._TableCache())
    for den in dens:
        full = _folded_table(den)
        assert field._unit_table(den).tobytes() == full[: den // 2 + 1].tobytes(), den
        assert field.unit_roots(np.arange(den), den).tobytes() == full.tobytes(), den
    assert field._unit_table(50)[25].imag < 0
    assert field.unit_roots(np.array([25]), 50)[0].imag < 0


def test_table_roots_fold_property():
    # 1-D and 2-D int64 residues, even and odd den, with the fold's edges
    # 0, den//2, den//2 + 1 and den - 1 always present: bytes equal to the full
    # build, and a read-only k (as GeneratorSequence holds) is read, not written
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @hyp.given(st.integers(0, 2500), st.booleans(), st.integers(0, 2**32), st.integers(0, 40), st.booleans())
    def check(half, odd, seed, extra, two_d):
        den = 2 * half + 1 if odd else 2 * half + 2
        edges = [0, den // 2, den // 2 + 1, den - 1]
        k = np.array([e % den for e in edges], dtype=np.int64)
        k = np.concatenate([k, np.random.default_rng(seed).integers(0, den, extra)])
        if two_d:
            k = np.concatenate([k, k[: len(k) % 2]]).reshape(2, -1)
        k.flags.writeable = False
        before = k.tobytes()
        got = field.unit_roots(k, den)
        assert got.dtype == np.complex128 and got.shape == k.shape
        assert got.tobytes() == _folded_table(den)[k].tobytes()
        assert k.tobytes() == before

    check()
    # the same on dens near the table limit, where the table is large
    for den in (1048572, 1048573):
        k = np.array([[0, den // 2], [den // 2 + 1, den - 1]], dtype=np.int64)
        k.flags.writeable = False
        assert field.unit_roots(k, den).tobytes() == _folded_table(den)[k].tobytes()


def test_table_build_holds_no_full_size_index_array(monkeypatch):
    # the half table (16 B per entry of den//2 + 1) and an int64 index of it
    # (8 B per entry): 12 MiB; a full table alone would be 16 MiB
    monkeypatch.setattr(field, "_unit_tables", field._TableCache())
    tracemalloc.start()
    try:
        tab = field._unit_table(1048573)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.nbytes == 16 * (1048573 // 2 + 1) < peak < 12.5 * 2**20, peak


def test_subgroup_examples():
    G = field.subgroup(13, 4)
    assert G.theta == 8
    assert G.elements == (8, 12, 5, 1)
    assert field.subgroup(13, 12).elements == tuple(pow(2, x, 13) for x in range(1, 13))
    assert field.subgroup(13, 1).elements == (1,)


def test_subgroup_validation():
    with pytest.raises(ValueError):
        field.subgroup(13, 5)
    with pytest.raises(ValueError):
        field.SubgroupSpec(13, 4, 3)  # 3 has order 3, not 4
    with pytest.raises(ValueError):
        field.SubgroupSpec(13, 4, 12)  # order 2 divides 4 but is proper
    with pytest.raises(ValueError):
        field.SubgroupSpec(13, 4, 0)


def test_subgroup_closure_and_contains():
    rng = random.Random("closure")
    for p, tau in ((13, 4), (31, 6), (101, 20)):
        G = field.subgroup(p, tau)
        elems = set(G.elements)
        assert len(elems) == tau
        for _ in range(50):
            g = rng.choice(G.elements)
            h = rng.choice(G.elements)
            assert g * h % p in elems
            assert g in G
        assert 0 not in G


def test_order_exactness_sweep():
    # every divisor of p-1 for every p <= 200
    for p in range(2, 201):
        if not field.is_prime(p):
            continue
        for tau in field.divisors(p - 1):
            G = field.subgroup(p, tau)
            # theta^1..theta^tau are distinct and end at 1: theta has order exactly tau
            assert len(set(G.elements)) == tau and G.elements[-1] == 1


def test_cofactor():
    G = field.subgroup(13, 4)
    assert G.cofactor == 3


@pytest.mark.parametrize("q", (2, 13, 2**31 - 1, 2147483659, 2**61 - 1))
@pytest.mark.parametrize("dtype", (np.int64, object))
def test_array_power_equals_pow(q, dtype):
    rng = random.Random(q)
    t = np.array([0, 1, q - 1] + [rng.randrange(q) for _ in range(200)], dtype=dtype)
    for e in (0, 1, q - 2, rng.randrange(q), rng.randrange(1 << 64)):
        got = field.array_power(t, e, q)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(int(v), e, q) for v in t.tolist()], e


@pytest.mark.parametrize(("p", "degree"), ((2, 3), (3, 2), (5, 2), (13, 1)))
def test_extension_field_pow_equals_repeated_mul(p, degree):
    # F_{p^degree} = F_p[X]/(f), the splitting fields that roots_of_unity builds:
    # poly.power modulo f equals repeated products, and a^(order - 2) inverts a
    f = list(field._least_irreducible(p, degree))
    order = p**degree
    elements = [poly.trim(i // p**j % p for j in range(degree)) for i in range(order)]

    def mul(a, b):
        return poly.rem(poly.mul(a, b, p), f, p)

    for a in elements:
        for e in (0, 1, 7, order - 2):
            want = [1]
            for _ in range(e):
                want = mul(want, a)
            assert poly.power(a, e, p, f) == want, (a, e)
        if a:
            assert mul(a, poly.power(a, order - 2, p, f)) == [1]


def test_roots_of_unity_base_field():
    f, roots = field.roots_of_unity(13, 4)
    assert f == [0, 1]  # degree 1: F_13 itself, elements are constants
    assert sorted(r[0] for r in roots) == [1, 5, 8, 12]  # the fourth roots of unity mod 13
    for r in roots:
        assert poly.power(r, 4, 13, f) == [1]


def test_roots_of_unity_extension():
    f, roots = field.roots_of_unity(7, 4)
    assert f == [1, 0, 1]  # squares mod 7 are {1, 2, 4}, so X^2 + 1 is the least irreducible
    assert len({tuple(r) for r in roots}) == 4
    for r in roots:
        assert poly.power(r, 4, 7, f) == [1]
    # closed under Frobenius
    assert {tuple(poly.power(r, 7, 7, f)) for r in roots} == {tuple(r) for r in roots}


def test_roots_of_unity_trivial_and_errors():
    f, roots = field.roots_of_unity(13, 1)
    assert roots == [[1]]
    with pytest.raises(ValueError):
        field.roots_of_unity(7, 14)
    with pytest.raises(ValueError):
        field.roots_of_unity(13, 0)


def test_guard_exceeded_carries_name():
    err = field.GuardExceeded("p^r", 10**9, 10**8)
    assert err.guard == "p^r"
    assert "p^r" in str(err)


def _orbits(p: int, s: int, nvec) -> list:
    """The orbits of F_p^r under x -> (l^{s n_1} x_1, ...), l in F_p*, by direct enumeration."""
    seen, out = set(), []
    for x in product(range(p), repeat=len(nvec)):
        if x not in seen:
            orbit = {tuple(pow(l, s * n, p) * c % p for n, c in zip(nvec, x)) for l in range(1, p)}
            seen |= orbit
            out.append(orbit)
    return out


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13, 19, 31))
def test_orbit_labels_are_a_complete_invariant(p):
    # one label per orbit, the same for all its points; exponent pairs sharing a factor, and cofactors
    for nvec in ((1,), (2,), (6,), (1, 2), (2, 3), (2, 4), (3, 6), (1, 5)):
        for s in field.divisors(p - 1):
            label, sizes, count = field.orbit_labels(p, s, nvec)
            starts = [start for start, _ in sizes]
            orbits = _orbits(p, s, nvec)
            assert count == len(orbits)
            labels = []
            for orbit in orbits:
                cols = [np.array(c, dtype=np.int64) for c in zip(*sorted(orbit))]
                got = label(*cols)
                assert len(set(got.tolist())) == 1, (p, s, nvec, orbit)
                assert sizes[bisect.bisect_right(starts, int(got[0])) - 1][1] == len(orbit)
                labels.append(int(got[0]))
            assert len(set(labels)) == len(orbits), (p, s, nvec)


def test_log_table():
    for p in (2, 3, 101, 1009):
        log, g = field.log_table(p), field.least_primitive_root(p)
        assert log.dtype == np.int32 and not log.flags.writeable
        assert [pow(g, int(log[x]), p) for x in range(1, p)] == list(range(1, p))
    # one block boundary of the build: 2^20 + 1 logarithms at p = 1048583
    log = field.log_table(1048583)
    assert sorted(log[1:].tolist()) == list(range(1048582))
    # above the limit the table is refused before anything is allocated
    with pytest.raises(field.GuardExceeded) as exc:
        field.log_table(16777259)
    assert (exc.value.guard, exc.value.actual, exc.value.limit) == ("log table", 16777259, field.LOG_TABLE_LIMIT)
