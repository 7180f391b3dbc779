"""Exponential sum evaluators: complete, subgroup, twisted, Kloosterman, inversive."""

import cmath
import importlib.util
import math
import pathlib
import random
import sys
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from weilsums import field, prng, sums
from weilsums.sums import SparsePolynomial


def poly(*pairs, constant=0):
    return SparsePolynomial.from_pairs(pairs, constant)


# --- polynomial container ---


def test_parse_format_roundtrip():
    f = SparsePolynomial.parse("3*x^2+1*x^7")
    assert f.terms == ((2, 3), (7, 1))
    assert f.format() == "3*x^2+1*x^7"
    assert SparsePolynomial.parse(f.format()) == f
    # uppercase accepted on input, lowercase emitted
    assert SparsePolynomial.parse("2*X^5").format() == "2*x^5"


def test_parse_errors():
    for bad in ("", "x^2", "3*x^0", "3*x^2+", "-1*x^2", "3*x^2+4*x^2", "0*x^2"):
        with pytest.raises(ValueError):
            SparsePolynomial.parse(bad)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SparsePolynomial(((0, 3),))
    with pytest.raises(ValueError):
        SparsePolynomial(((2, 3), (2, 4)))
    with pytest.raises(ValueError):
        SparsePolynomial(((3, 1), (2, 4)))
    with pytest.raises(ValueError):
        SparsePolynomial(((2, 0),))


def test_from_pairs_merges():
    # from_pairs merges duplicate exponents and drops zeros
    assert poly((2, 3), (2, 4)).terms == ((2, 7),)
    assert poly((2, 3), (2, -3)).terms == ()
    assert poly((5, 1), (2, 4)).terms == ((2, 4), (5, 1))


def test_evaluate():
    f = poly((1, 2), (3, 5))  # 2x + 5x^3
    for x in range(13):
        assert f.evaluate(x, 13) == (2 * x + 5 * x**3) % 13
    g = poly((1, 1), constant=4)
    assert g.evaluate(3, 13) == 7


def test_dilate():
    f = poly((1, 2), (3, 5))  # 2x + 5x^3
    g = f.dilate(2, 13)  # f(2x): 4x + 40x^3 = 4x + x^3
    assert g.terms == ((1, 4), (3, 1))
    for x in range(13):
        assert g.evaluate(x, 13) == f.evaluate(2 * x % 13, 13)
    # dilation by 0 collapses to the constant
    assert f.dilate(0, 13).terms == ()


def test_degree_and_accessors():
    f = poly((2, 3), (7, 1))
    assert f.degree == 7
    assert f.exponents() == (2, 7)
    assert f.coefficients() == (3, 1)


# --- complete sums ---


def test_complete_sum_linear_cancels():
    for p in (3, 13, 101):
        s = sums.complete_sum(p, poly((1, 1)))
        assert abs(s.value) < 1e-10 * p
        assert s.term_count == p


def test_complete_sum_gauss():
    s = sums.complete_sum(13, poly((2, 1)))
    assert abs(abs(s.value) - math.sqrt(13)) < 1e-9


def test_subgroup_sum_example():
    G = field.subgroup(13, 4)
    s = sums.subgroup_sum(G, poly((1, 1)))
    direct = sum(cmath.exp(2j * cmath.pi * g / 13) for g in (8, 12, 5, 1))
    assert abs(s.value - direct) < 1e-12
    assert abs(s.value - 0.2738905549642181) < 1e-12
    assert abs(s.value.imag) < 1e-12
    assert s.term_count == 4


def test_subgroup_sum_full_group_linear():
    # over all of F_p^* a nonzero linear exponent sums to -1
    for p in (5, 13, 31):
        G = field.subgroup(p, p - 1)
        for a in (1, 2, p - 1):
            s = sums.subgroup_sum(G, poly((1, a)))
            assert abs(s.value - (-1)) < 1e-8 * p


def test_subgroup_sum_trivial_group():
    G = field.subgroup(13, 1)
    f = poly((3, 5))
    s = sums.subgroup_sum(G, f)
    assert abs(s.value - _oracle_root(5, 13)) < 1e-15


def test_subgroup_sum_shift_covariance():
    # adding a constant multiplies the sum by a unit
    rng = random.Random("shift")
    G = field.subgroup(31, 6)
    for _ in range(40):
        e = rng.randrange(1, 10)
        a = rng.randrange(1, 31)
        c = rng.randrange(31)
        f = poly((e, a))
        g = poly((e, a), constant=c)
        lhs = sums.subgroup_sum(G, g).value
        rhs = _oracle_root(c, 31) * sums.subgroup_sum(G, f).value
        assert abs(lhs - rhs) < 1e-10 * G.tau


def test_subgroup_sum_dilation_invariance():
    # substituting x -> hx for h in the subgroup permutes the orbit
    rng = random.Random("dilation")
    G = field.subgroup(101, 20)
    f = poly((1, 3), (4, 7), (9, 2))
    base = sums.subgroup_sum(G, f).value
    for _ in range(10):
        h = rng.choice(G.elements)
        assert abs(sums.subgroup_sum(G, f.dilate(h, 101)).value - base) < 1e-10 * G.tau


def test_subgroup_sum_conjugation():
    rng = random.Random("conj")
    for _ in range(20):
        p, tau = 31, 10
        G = field.subgroup(p, tau)
        e = rng.randrange(1, 12)
        a = rng.randrange(1, p)
        s = sums.subgroup_sum(G, poly((e, a))).value
        t = sums.subgroup_sum(G, poly((e, p - a))).value
        assert abs(t - s.conjugate()) < 1e-10 * tau


def test_magnitude_triangle_inequality():
    rng = random.Random("tri")
    for _ in range(50):
        p = rng.choice((13, 31, 101))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        e = rng.randrange(1, 2 * tau + 1)
        a = rng.randrange(1, p)
        s = sums.subgroup_sum(G, poly((e, a)))
        assert s.magnitude <= tau + 1e-9


def test_incomplete_subgroup_sum():
    G = field.subgroup(13, 4)
    f = poly((1, 1))
    assert sums.incomplete_subgroup_sum(G, f, 0).value == 0
    first = sums.incomplete_subgroup_sum(G, f, 1)
    assert abs(first.value - _oracle_root(8, 13)) < 1e-15
    full = sums.incomplete_subgroup_sum(G, f, 4)
    assert full.value == sums.subgroup_sum(G, f).value
    with pytest.raises(ValueError):
        sums.incomplete_subgroup_sum(G, f, 5)


def test_twisted_sum_zero_twist_is_plain():
    G = field.subgroup(13, 4)
    f = poly((1, 1), (3, 5))
    assert sums.twisted_sum(G, f, 0).value == sums.subgroup_sum(G, f).value


def test_twisted_sum_pure_twist_cancels():
    # f = 0: sum of tau-th roots of unity weighted by a nontrivial twist
    G = field.subgroup(13, 4)
    zero = SparsePolynomial(())
    for b in (1, 2, 3):
        s = sums.twisted_sum(G, zero, b)
        assert abs(s.value) < 1e-10
    assert abs(sums.twisted_sum(G, zero, 4).value - 4) < 1e-10


def test_twisted_sum_direct():
    G = field.subgroup(13, 4)
    f = poly((1, 1))
    b = 1
    direct = sum(
        cmath.exp(2j * cmath.pi * pow(8, x, 13) / 13)
        * cmath.exp(2j * cmath.pi * b * x / 4)
        for x in range(1, 5)
    )
    assert abs(sums.twisted_sum(G, f, b).value - direct) < 1e-12


# --- Kloosterman and inversive sums ---


def test_kloosterman_example():
    G = field.subgroup(13, 4)
    s = sums.kloosterman_subgroup_sum(G, 1, 1)
    want = 2 + 2 * math.cos(4 * math.pi / 13)
    assert abs(s.value - want) < 1e-12
    assert abs(s.value - 3.136129493462312) < 1e-12


def test_kloosterman_symmetry():
    # K(a,b) = K(b,a): substituting g -> g^{-1} swaps the roles
    rng = random.Random("kloos")
    for _ in range(100):
        p = rng.choice((13, 31, 61))
        tau = rng.choice([t for t in field.divisors(p - 1) if t > 1])
        G = field.subgroup(p, tau)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        lhs = sums.kloosterman_subgroup_sum(G, a, b).value
        rhs = sums.kloosterman_subgroup_sum(G, b, a).value
        assert abs(lhs - rhs) < 1e-10 * tau


def test_kloosterman_degenerate_b_zero():
    G = field.subgroup(13, 4)
    s = sums.kloosterman_subgroup_sum(G, 2, 0)
    t = sums.subgroup_sum(G, poly((1, 2)))
    assert abs(s.value - t.value) < 1e-12


def test_inversive_example():
    G = field.subgroup(13, 4)
    s = sums.inversive_subgroup_sum(G, 1, 1)
    want = complex(-0.28234039043957426, -0.06959065608316048)
    assert abs(s.value - want) < 1e-12
    assert s.excluded == 1
    assert s.term_count == 3
    assert abs(s.magnitude - 0.29079022591492987) < 1e-12


def test_inversive_excluded_count():
    # a*g + b = 0 has at most one solution in the subgroup
    rng = random.Random("invex")
    for _ in range(60):
        p = rng.choice((13, 31, 101))
        tau = rng.choice(field.divisors(p - 1))
        G = field.subgroup(p, tau)
        a = rng.randrange(1, p)
        b = rng.randrange(p)
        s = sums.inversive_subgroup_sum(G, a, b)
        hit = sum(1 for g in G.elements if (a * g + b) % p == 0)
        assert s.excluded == hit <= 1
        assert s.term_count == tau - hit


def test_inversive_b_zero_reduces_to_subgroup_sum():
    # (a g)^{-1} runs over a^{-1} G
    G = field.subgroup(13, 4)
    a = 3
    ainv = pow(a, -1, 13)
    s = sums.inversive_subgroup_sum(G, a, 0)
    t = sums.subgroup_sum(G, poly((1, ainv)))
    assert abs(s.value - t.value) < 1e-12
    assert s.excluded == 0


def test_inversive_degenerate_a_zero():
    G = field.subgroup(13, 4)
    # a = 0, b != 0: every term is the constant e_p(b^{-1})
    s = sums.inversive_subgroup_sum(G, 0, 2)
    want = 4 * _oracle_root(pow(2, -1, 13), 13)
    assert abs(s.value - want) < 1e-12
    assert s.excluded == 0
    # a = b = 0: everything is excluded
    z = sums.inversive_subgroup_sum(G, 13, 0)
    assert z.value == 0
    assert z.term_count == 0
    assert z.excluded == 4


def test_finish_checks_triangle_inequality():
    # every summand is on the unit circle, so |S| <= terms; the check survives python -O
    assert sums._finish(np.array([1j, 1j]), [2])[0].magnitude == 2
    with pytest.raises(ArithmeticError):
        sums._finish(np.array([1.5, 1.5]), [2])
    # each row of a batch is checked, not only the first
    with pytest.raises(ArithmeticError):
        sums._finish(np.array([1.0, -1.0, 1j, 1.5, 1.5 + 1j]), [3, 2])


def test_row_sums_reject_parts_outside_the_bound():
    # the limb sums are exact only for parts in [-2, 2]; NaN and inf are refused too
    assert sums._row_sums(np.array([2.0 - 2.0j, -2.0 + 2.0j]), [2]) == [0j]
    for bad in (2.5, -2.0000000000000004j, math.nan, complex(0.0, math.inf)):
        with pytest.raises(ArithmeticError):
            sums._row_sums(np.array([0.5, bad], dtype=complex), [2])


def test_sum_costs_script_runs(monkeypatch, capsys):
    # tools/sum_costs.py on two small batches, one of them ragged and above the
    # table limit: the chains are timed, the gather per term, both finish routes
    # agree and are timed, and the whole pass is timed with its traced peak per
    # term; then one half-table build, timed, with its bytes, two tables of
    # powers, timed, and both reductions at two lengths, timed
    path = pathlib.Path(__file__).parents[1] / "tools" / "sum_costs.py"
    spec = importlib.util.spec_from_file_location("sum_costs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # every theorem cell of p = 1201: the divisors of 1200 from 1201^(37/70) = 42.4 on
    taus = (48, 50, 60, 75, 80, 100, 120, 150, 200, 240, 300, 400, 600, 1200)
    assert script.SHAPES[1] == (1201, tuple((10, tau) for tau in taus))
    # one shape of 2^22 terms above the table limit, whose peak bounds the memory of a long sum
    assert script.SHAPES[-1] == (167772161, ((1, 1 << 22),)) and 167772161 > field.CHAR_TABLE_LIMIT
    monkeypatch.setattr(script, "SHAPES", ((1009, ((3, 40),)), (1995841, ((1, 300), (2, 17)))))
    monkeypatch.setattr(script, "TABLE_DEN", 1013)
    monkeypatch.setattr(script, "POWERS", ((947, 43, 3), (2147483659, 300, 2)))
    monkeypatch.setattr(script, "REDUCE", ((64, 3), (1024, 2)))
    monkeypatch.setattr(field, "_unit_tables", field._TableCache())
    monkeypatch.setattr(sys, "argv", [str(path), "--repeat", "2"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ") and "numpy" in lines[0]
    columns = ["cells", "rows", "terms", "p", "chains_us", "gather_ns", "fsum_ms", "limbs_ms", "speedup", "sum_ms", "peak_B"]
    assert lines[1].split() == ["#"] + columns
    rows = [line.split() for line in lines[2:4]]
    assert [row[:4] for row in rows] == [["1", "3", "120", "1009"], ["2", "3", "334", "1995841"]]
    assert all(float(v) > 0 for row in rows for v in row[4:6] + row[9:])
    assert all(row[8].endswith("x") for row in rows)
    assert lines[4].split() == ["#", "table", "den", "build_ms", "bytes"]
    name, den, build_ms, nbytes = lines[5].split()
    assert (name, den) == ("table", "1013") and float(build_ms) > 0 and nbytes == str(16 * (1013 // 2 + 1))
    assert lines[6].split() == ["#", "powers", "q", "n", "powers_us"]
    assert [line.split()[:3] for line in lines[7:9]] == [["powers", "947", "43"], ["powers", "2147483659", "300"]]
    assert all(float(line.split()[3]) > 0 for line in lines[7:9])
    assert lines[9].split() == ["#", "reduce", "n", "remainder_us", "divide_us"]
    assert [line.split()[:2] for line in lines[10:12]] == [["reduce", "64"], ["reduce", "1024"]]
    assert all(float(v) > 0 for line in lines[10:12] for v in line.split()[2:])
    assert len(lines) == 12


def test_tables_of_the_long_sum_primes_hold_half_their_entries(monkeypatch):
    # the four table primes of the long sums: sums through each build and hold
    # den//2 + 1 entries, 32 MB in all where full tables held 64 MB; the traced
    # peak is the held tables and the int64 index of the last build
    monkeypatch.setattr(field, "_unit_tables", field._TableCache())
    primes = (960961, 982801, 1003001, 1008001)
    f = SparsePolynomial.parse("1*x^1+2*x^2+3*x^3")
    tracemalloc.start()
    try:
        for p in primes:
            sums.subgroup_sum(field.subgroup(p, 40), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(field._unit_tables) == list(primes)
    held = sum(t.nbytes for t in field._unit_tables.values())
    assert held <= sum(16 * (p // 2 + 1) for p in primes)
    assert peak < held + 8 * (max(primes) // 2 + 1) + (1 << 20), peak


def test_finish_of_a_long_row_allocates_little():
    # the limb pass works in blocks of sums._BLOCK terms; per-row fsum over
    # tolist() made two lists of 2^22 floats, about 128 MB
    n = sums.TERM_LIMIT
    row = field.unit_roots(np.arange(n, dtype=np.int64) % 1009, 1009)
    tracemalloc.start()
    try:
        (s,) = sums._finish(row, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak

    def streamed(part):
        return math.fsum(chain.from_iterable(part[i : i + (1 << 16)].tolist() for i in range(0, n, 1 << 16)))

    assert s.value == complex(streamed(row.real), streamed(row.imag))


# --- bit-for-bit oracle: one cmath.exp per term, then fsum ---


def _oracle_root(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den) by cmath.exp, with the angle formulas of the table and of the cos/sin path."""
    k = num % den
    if den <= field.CHAR_TABLE_LIMIT:
        # a table entry: (tau/den) * k with k folded into (-den/2, den/2]
        return cmath.exp(complex(0.0, (math.tau / den) * (k if k <= den // 2 else k - den)))
    if 2 * k > den:
        k -= den
    return cmath.exp(complex(0.0, math.tau * k / den))


def _oracle_sum(terms) -> complex:
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


ORACLE_CASES = (
    # p <= 2^20: character tables
    (13, 4),
    (1009, 16),
    (1009, 1008),
    (982801, 5040),
    # 2^20 < p < 2^31: cos and sin per term, int64 residues
    (1995841, 5040),
    (2147483647, 4634),
    # p >= 2^31: residues as Python ints in object arrays
    (2147483659, 298),
    (4294967311, 1310),
    (2**61 - 1, 2310),
)


@pytest.mark.parametrize("p, tau", ORACLE_CASES)
def test_sums_equal_scalar_oracle(p, tau):
    G = field.subgroup(p, tau)
    orbit = [pow(G.theta, x, p) for x in range(1, tau + 1)]
    f = poly((1, 3 * p + 5), (7, p - 2), (2**70 + 3, 2**65 + 11), constant=2**80 + 1)
    chars = [_oracle_root(f.evaluate(g, p), p) for g in orbit]
    assert sums.subgroup_sum(G, f).value == _oracle_sum(chars)
    for count in (0, tau // 3, tau):
        assert sums.incomplete_subgroup_sum(G, f, count).value == _oracle_sum(chars[:count])
    b = tau + 5
    twisted = (c * _oracle_root(b * x, tau) for x, c in enumerate(chars, start=1))
    assert sums.twisted_sum(G, f, b).value == _oracle_sum(twisted)
    a, b = 2**64 + 7, -3
    kloosterman = (_oracle_root(a * g + b * pow(g, -1, p), p) for g in orbit)
    assert sums.kloosterman_subgroup_sum(G, a, b).value == _oracle_sum(kloosterman)
    # b = -a*g for one g in G excludes exactly that term
    a = 3
    b = -a * orbit[tau // 2]
    s = sums.inversive_subgroup_sum(G, a, b)
    inverses = [pow(t, -1, p) for t in ((a * g + b) % p for g in orbit) if t]
    assert (s.excluded, s.term_count) == (1, tau - 1)
    assert s.value == _oracle_sum(_oracle_root(z, p) for z in inverses)


@pytest.mark.parametrize("p, tau", ORACLE_CASES)
def test_subgroup_sums_equal_subgroup_sum_and_oracle(p, tau):
    # one batch of three cells on two subgroups of p: three, one and two terms,
    # constant-only, empty, and a repeated polynomial, then a cell of none
    G, H = field.subgroup(p, tau), field.subgroup(p, tau // 2)
    f = poly((1, 3 * p + 5), (7, p - 2), (2**70 + 3, 2**65 + 11), constant=2**80 + 1)
    fs = [f, poly((2, 1)), poly(constant=5), poly((3, 4), (tau + 1, p - 1), constant=p + 2), SparsePolynomial(()), f]
    cells = [(G, fs), (H, fs[::-1]), (G, [])]
    got = sums.subgroup_sums(cells)
    assert got == [[sums.subgroup_sum(K, g) for g in gs] for K, gs in cells]
    orbit = [pow(G.theta, x, p) for x in range(1, tau + 1)]
    for g, s in zip(fs, got[0]):
        assert s.term_count == tau
        assert s.value == _oracle_sum(_oracle_root(g.evaluate(x, p), p) for x in orbit)
    assert sums.subgroup_sums([]) == [] and sums.subgroup_sums([(G, [])]) == [[]]
    with pytest.raises(ValueError):
        sums.subgroup_sums([(G, fs), (field.subgroup(5, 2), fs)])


def test_subgroup_sums_split_into_batches_of_term_limit(monkeypatch):
    # a batch's power steps, the one array it holds whole, stay within TERM_LIMIT;
    # its terms stream through blocks and count for nothing: each sum has three
    # chains of s + g = 4 + 4 steps, so two take 2 * 3 * 8 = 48; three batches of
    # two sums and one of one, the second batch across the two cells
    G = field.subgroup(1009, 16)
    fs = [poly((1, a), (a + 2, 3), constant=a) for a in range(1, 8)]
    want = [sums.subgroup_sum(G, f) for f in fs]
    calls = []
    residues = sums._residues

    def counted(p, cells):
        calls.append([len(rows) for _, rows in cells])
        return residues(p, cells)

    monkeypatch.setattr(sums, "_residues", counted)
    monkeypatch.setattr(sums, "TERM_LIMIT", 2 * 3 * 8 + 5)
    assert sums.subgroup_sums([(G, fs[:3]), (G, fs[3:])]) == [want[:3], want[3:]]
    assert calls == [[2], [2], [2], [1]]
    # a row past the limit with its steps is still summed, alone
    calls.clear()
    monkeypatch.setattr(sums, "TERM_LIMIT", 3 * 8 - 1)
    assert sums.subgroup_sums([(G, fs[:2])]) == [want[:2]]
    assert calls == [[1], [1]]
    # the term guard of a single sum still holds, at the limit of sums
    monkeypatch.setattr(sums, "SUM_TERM_LIMIT", 15)
    with pytest.raises(field.GuardExceeded):
        sums.subgroup_sums([(G, fs)])


def test_short_rows_beside_a_long_one_count_its_steps(monkeypatch):
    # every chain of a batch takes the steps of its longest row, and the rows of a
    # run of equal tau are padded to its widest: 40 rows of tau = 2, one of them
    # three chains wide, beside a row of tau = 1008 (s = g = 32) would take
    # 121 * 64 steps, so at a limit of 2000 the long row is a batch of its own
    p = 1009
    G, H = field.subgroup(p, 2), field.subgroup(p, p - 1)
    short = [poly((1, a)) for a in range(1, 40)] + [poly((1, 2), (3, 4), constant=5)]
    long = [poly((2, 7))]
    want = [[sums.subgroup_sum(G, f) for f in short], [sums.subgroup_sum(H, long[0])]]
    calls = []
    residues = sums._residues

    def counted(q, cells):
        calls.append([(count, len(rows)) for count, rows in cells])
        return residues(q, cells)

    monkeypatch.setattr(sums, "_residues", counted)
    monkeypatch.setattr(sums, "TERM_LIMIT", 2000)
    assert sums.subgroup_sums([(G, short), (H, long)]) == want
    assert calls == [[(2, 40)], [(1008, 1)]]
    assert [len(b) for b in sums._batches([(G, f) for f in short] + [(H, long[0])])] == [40, 1]
    # 40 rows of tau = 2 padded to three chains at s + g = 2 + 1 steps: 120 * 3 = 360
    monkeypatch.setattr(sums, "TERM_LIMIT", 360)
    assert [len(b) for b in sums._batches([(G, f) for f in short])] == [40]
    monkeypatch.setattr(sums, "TERM_LIMIT", 359)
    assert [len(b) for b in sums._batches([(G, f) for f in short])] == [39, 1]


@pytest.mark.parametrize("p", (2, 3, 13, 1009, 65537))
def test_complete_sum_equals_scalar_oracle(p):
    f = poly((1, 7), (2, p + 3), (2**40 + 1, 5), constant=11)
    want = _oracle_sum(_oracle_root(f.evaluate(x, p), p) for x in range(p))
    assert sums.complete_sum(p, f).value == want


def test_twisted_sum_above_the_table_equals_scalar_oracle():
    # tau > 2^20: the twist's roots of unity come from cos and sin, not a table
    p = 2097169
    tau = (p - 1) // 2
    G = field.subgroup(p, tau)
    f = poly((1, 1))
    b = 12345
    terms = (
        _oracle_root(g, p) * _oracle_root(b * x, tau)
        for x, g in enumerate(G.enumerate(), start=1)
    )
    assert sums.twisted_sum(G, f, b).value == _oracle_sum(terms)


def test_unit_table_equals_cmath_exp():
    # the table holds k = 0..den//2; unit_roots reads every k in [0, den) through it
    for den in list(range(1, 65)) + [1009]:
        tab = field._unit_table(den)
        assert tab.dtype == np.complex128 and len(tab) == den // 2 + 1
        roots = field.unit_roots(np.arange(den), den)
        assert [complex(z) for z in roots] == [_oracle_root(k, den) for k in range(den)]
    den = 982801
    assert len(field._unit_table(den)) == den // 2 + 1
    ks = list(range(0, den, 997)) + [den // 2, den // 2 + 1, den - 1]
    roots = field.unit_roots(np.array(ks), den)
    assert [complex(z) for z in roots] == [_oracle_root(k, den) for k in ks]
    # unit_roots reads the same tables, and above them computes the same formula
    for num, d in ((5, 1009), (-3, 982801), (10**6, 1995841), (2**40, 4294967311)):
        assert complex(field.unit_roots(np.array([num % d]), d)[0]) == _oracle_root(num, d)


# --- no numpy scalar leaves the engine ---


def test_results_are_python_numbers():
    for p, tau in ((1009, 56), (1995841, 660), (2147483659, 6)):
        G = field.subgroup(p, tau)
        f = poly((1, 3), (5, 2), constant=1)
        results = (
            sums.subgroup_sum(G, f),
            sums.incomplete_subgroup_sum(G, f, tau // 2),
            sums.twisted_sum(G, f, 1),
            sums.kloosterman_subgroup_sum(G, 2, 3),
            sums.inversive_subgroup_sum(G, 1, -G.theta),
        )
        for s in results:
            assert type(s.value) is complex
            assert type(s.term_count) is int and type(s.excluded) is int
        seqs = (prng.power_generator(G, f, 2 * tau), prng.inversive_generator(G, 1, -G.theta, 2 * tau))
        for seq in seqs:
            assert {type(v) for v in seq.residues} <= {int, type(None)}
    assert type(sums.complete_sum(13, poly((2, 1))).value) is complex


# --- properties of the int64 engine (hypothesis) ---


def _prime_at_least(n: int) -> int:
    while not field.is_prime(n):
        n += 1
    return n


def _hypothesis():
    """(given, settings, strategies) with settings that replay the same examples on every run."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    return hyp.given, hyp.settings(derandomize=True, database=None, max_examples=40, deadline=None), st


def _strategies(st):
    """Primes on both sides of 2^31 up to 2^62 - 57, the largest prime below 2^62,
    arbitrary-size positive ints, and polynomials built from them."""
    big = st.integers(1, 2**200)
    polys = st.builds(SparsePolynomial.from_pairs, st.lists(st.tuples(big, big), max_size=4), st.integers(0, 2**200))
    primes = st.one_of(st.integers(2, 2**31 - 1), st.integers(2**31, 2**62 - 57)).map(_prime_at_least)
    return primes, big, polys


def test_orbit_residues_property():
    given, settings, st = _hypothesis()
    primes, big, polys = _strategies(st)

    @settings
    @given(primes, big, polys, st.integers(0, 300))
    def check(p, theta, f, count):
        theta = theta % (p - 1) + 1 if p > 2 else 1
        want = [f.evaluate(pow(theta, x, p), p) for x in range(1, count + 1)]
        assert sums._orbit_residues(p, theta, f, count).tolist() == want

    check()


def test_powers_property():
    # field.powers on the primes above and on any modulus below 2^62, with c = 0 and m = 0 allowed
    given, settings, st = _hypothesis()
    primes, big, _ = _strategies(st)
    residues = st.one_of(st.just(0), big)

    @settings
    @given(st.one_of(primes, st.integers(1, 2**62 - 1)), residues, residues, st.integers(0, 300))
    def check(q, c, m, n):
        c, m = c % q, m % q
        got = field.powers(c, m, n, q)
        assert got.dtype == np.int64
        assert got.tolist() == [c * pow(m, j, q) % q for j in range(n)]

    # lists or tuples of chains: row i of one call equals the scalar call on chain i
    moduli = st.one_of(primes, st.integers(1, 2**62 - 1))

    @settings
    @given(moduli, st.lists(st.tuples(residues, residues), max_size=5), st.integers(0, 300))
    def check_rows(q, chains, n):
        cs, ms = [c % q for c, _ in chains], [m % q for _, m in chains]
        got = field.powers(cs, ms, n, q)
        assert got.dtype == np.int64 and got.shape == (len(chains), n)
        assert got.tolist() == [field.powers(c, m, n, q).tolist() for c, m in zip(cs, ms)]
        assert field.powers(tuple(cs), tuple(ms), n, q).tolist() == got.tolist()

    check()
    check_rows()


@pytest.mark.parametrize("loop_steps", (0, 10**9), ids=("doubling", "loop"))
def test_power_steps_property(monkeypatch, loop_steps):
    # both step routes of field.power_steps against pow, on the primes above and any
    # modulus below 2^62: giants[i, a] = c_i*m_i^(s*a) and babies[i, b] = m_i^b mod q
    given, settings, st = _hypothesis()
    primes, big, _ = _strategies(st)
    residues = st.one_of(st.just(0), big)
    monkeypatch.setattr(field, "_LOOP_STEPS", loop_steps)

    @settings
    @given(st.one_of(primes, st.integers(1, 2**62 - 1)), st.lists(st.tuples(residues, residues), max_size=6),
           st.integers(1, 40), st.integers(1, 40))
    def check(q, chains, s, g):
        cs, ms = [c % q for c, _ in chains], [m % q for _, m in chains]
        giants, babies = field.power_steps(cs, ms, s, g, q)
        assert giants.dtype == babies.dtype == np.int64
        assert giants.shape == (len(chains), g) and babies.shape == (len(chains), s)
        assert giants.tolist() == [[c * pow(m, s * a, q) % q for a in range(g)] for c, m in zip(cs, ms)]
        assert babies.tolist() == [[pow(m, b, q) for b in range(s)] for m in ms]

    check()


@pytest.mark.parametrize("p", (1, 2, 2097143, 2**31 - 1, 2147483659, (2**31 - 1) ** 2))
def test_chain_sums_property(p):
    # field.chain_sums against pow on each side of the reduction rule: below 2^21
    # every product of a row is added unreduced, below 2^31 two at a time, above it
    # each chain's products are reduced by _multiply; and at the moduli 1 and 2 and a
    # composite near 2^62.  Cells of several lengths, rows of 0 to 5 chains (a
    # constant is a chain of ratio 1), and cells of one-chain rows, whose products
    # are broadcast, as field.powers' are
    given, settings, st = _hypothesis()
    residue = st.one_of(st.sampled_from(sorted({0, 1 % p, (p - 2) % p, p - 1})), st.integers(0, p - 1))
    chain = st.tuples(residue, residue)
    rows = st.one_of(st.lists(st.lists(chain, max_size=5), min_size=1, max_size=4),
                     st.lists(st.lists(chain, min_size=1, max_size=1), min_size=1, max_size=4))
    cell = st.tuples(st.integers(0, 300), rows)

    def table(cells, block=field.BLOCK) -> list:
        # the blocks, each copied as it comes, since each reuses one buffer
        blocks = [b.copy() for b in field.chain_sums(p, cells, block)]
        assert all(b.dtype == np.int64 and 0 < len(b) <= block for b in blocks)
        # and the same blocks written in place into one result
        out = np.empty(sum(map(len, blocks)), dtype=np.int64)
        for _ in field.chain_sums(p, cells, block, out):
            pass
        assert blocks == [] or np.concatenate(blocks).tolist() == out.tolist()
        return out.tolist()

    @settings
    @given(st.lists(cell, min_size=1, max_size=4), st.sampled_from((1, 5, 64, field.BLOCK)))
    def check(cells, block):
        # blocks of a few entries cut rows at giant steps and straddle cells
        assert table(cells, block) == [
            sum(c * pow(m, j, p) for c, m in chains) % p
            for count, rows in cells
            for chains in rows
            for j in range(count)
        ]

    check()
    # the largest products, (p - 1)^2, at every even j: five chains (p - 1)^(j + 1) and the constant p - 1
    worst = table([(64, [[(p - 1, p - 1)] * 5 + [(p - 1, 1)]])])
    assert worst == [(p - 1 + 5 * (p - 1) ** (j + 1)) % p for j in range(64)]


def test_tables_of_powers_hold_little_beside_their_result():
    # a one-chain table, and a three-term sum's residues, are formed in place of the
    # result: the products of the steps were a second array of its length
    p = 1000003
    tracemalloc.start()
    try:
        table = field.powers(1, field.least_primitive_root(p), p - 1, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 * (p - 1) and peak <= 1.1 * table.nbytes, peak
    G = field.subgroup(p, p - 1)
    f = SparsePolynomial.parse("1*x^1+2*x^5+3*x^7")
    tracemalloc.start()
    try:
        residues = sums._orbit_residues(p, G.theta, f, G.tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * residues.nbytes, peak
    assert residues[:100].tolist() == [f.evaluate(pow(G.theta, x, p), p) for x in range(1, 101)]


def test_inverses_property():
    given, settings, st = _hypothesis()
    primes, big, _ = _strategies(st)

    @settings
    @given(primes, st.lists(big, max_size=300))
    def check(p, ts):
        ts = [t % (p - 1) + 1 if p > 2 else 1 for t in ts]
        got = field.inverses(np.array(ts, dtype=np.int64), p).tolist()
        assert got == [pow(t, p - 2, p) for t in ts]

    check()


def test_parse_format_property():
    given, settings, st = _hypothesis()
    _, _, polys = _strategies(st)

    @settings
    @given(polys)
    def check(f):
        assert SparsePolynomial.parse(f.format()) == f

    check()


def test_subgroup_sum_dilation_property():
    # S(G; f(lambda x)) sums the same terms in another order for lambda in G,
    # and each sum is its exact value rounded once, so the values agree bit for bit
    given, settings, st = _hypothesis()
    primes, _, polys = _strategies(st)

    @settings
    @given(primes, polys, st.integers(0, 2**64), st.integers(0, 2**64))
    def check(p, f, t, j):
        taus = [d for d in field.divisors(p - 1) if d <= 2000]
        G = field.subgroup(p, taus[t % len(taus)])
        lam = pow(G.theta, j, p)
        assert sums.subgroup_sum(G, f.dilate(lam, p)) == sums.subgroup_sum(G, f)

    check()


def test_subgroup_sum_shift_property():
    # S(G; f + c) = e(c/p) S(G; f) holds only up to rounding.  A term is
    # cos and sin of an angle of at most pi, formed with at most three
    # roundings (2^-53 relative each): at most (3 pi + 2) 2^-53 off.  Each
    # side sums tau terms exactly, rounding once, and e(c/p) adds its own error to
    # each of them, so the sides differ by at most 3 tau such errors, plus
    # 4 ulps of tau for the complex product.
    given, settings, st = _hypothesis()
    primes, big, polys = _strategies(st)
    term = (3 * math.pi + 2) * 2**-53

    @settings
    @given(primes, polys, big, st.integers(0, 2**64))
    def check(p, f, c, t):
        taus = [d for d in field.divisors(p - 1) if d <= 2000]
        G = field.subgroup(p, taus[t % len(taus)])
        shifted = SparsePolynomial(f.terms, f.constant + c)
        lhs = sums.subgroup_sum(G, shifted).value
        rhs = cmath.exp(2j * math.pi * (c % p) / p) * sums.subgroup_sum(G, f).value
        assert abs(lhs - rhs) <= G.tau * (3 * term + 4 * 2**-53), (p, G.tau, c)

    check()


def _fsum_parts(row) -> complex:
    return complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist()))


def test_row_sums_equal_fsum_property():
    # the ragged limb pass against per-row fsum, bit for bit and sign of zero, on
    # parts that stress it: table values at several p, signed zeros, the smallest
    # subnormal, cos(fl(pi/2)) from the twist tables of 4 | tau, half-ulp ties at
    # 1, exactly cancelling runs, and parts of every binary exponent from 2^0 down
    # to 2^-1074; in batches of mixed lengths, with rows of 0 and 1 terms, many
    # equal rows, and rows longer than a block or straddling one
    given, settings, st = _hypothesis()
    pool = [0.0, 5e-324, 6.123233995736766e-17, 1.0, 0.5, 2.0, 2.0**-53, 1 + 2.0**-52, 3 * 2.0**-53]
    for p in (13, 1009, 982801, 1995841):
        k = np.arange(0, p, max(p // 101, 1), dtype=np.int64)
        roots = field.unit_roots(k, p)
        pool += roots.real.tolist() + roots.imag.tolist()
    pool = np.array(pool + [-v for v in pool])
    block = sums._BLOCK  # complex summands per block
    short = st.sampled_from((0, 1, 2, 3, 7, 250))
    batches = st.one_of(
        st.lists(st.one_of(short, st.sampled_from((1000, block - 1, block + 3))), max_size=8),
        st.tuples(st.sampled_from((3, 7, 250)), st.sampled_from((block // 6, 300))).map(lambda t: [t[0]] * t[1]),
    )

    @settings
    @given(batches, st.integers(0, 2**64), st.sampled_from(("pool", "cancel", "ones", "zeros", "spread")))
    def check(lengths, seed, kind):
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        parts = np.empty(n, dtype=np.complex128)
        if kind == "ones":
            # runs of +-1 that cancel exactly, in both parts
            parts.real = rng.choice((-1.0, 1.0), size=n)
            parts.imag = -parts.real
        elif kind == "zeros":
            parts.real = rng.choice((0.0, -0.0), size=n)
            parts.imag = -0.0
        elif kind == "spread":
            # signed mantissas in [0, 1) times 2^-e, e up to 1075: normal, subnormal and zero parts
            for part in (parts.real, parts.imag):
                part[:] = np.ldexp(rng.choice((-1.0, 1.0), size=n) * rng.random(n), -rng.integers(0, 1076, size=n))
        else:
            parts.real = rng.choice(pool, size=n)
            parts.imag = rng.choice(pool, size=n)
        rows = np.split(parts, np.cumsum(lengths)[:-1]) if lengths else []
        if kind == "cancel":
            # the second half of each row negates the first: every exact sum is 0
            for row in rows:
                half = len(row) // 2
                row[len(row) - half :] = -row[:half]
                if len(row) % 2:
                    row[half] = 0
        got = sums._row_sums(parts, lengths)
        assert len(got) == len(lengths)
        for row, z in zip(rows, got):
            want = _fsum_parts(row)
            assert (z.real, z.imag) == (want.real, want.imag)
            assert (math.copysign(1, z.real), math.copysign(1, z.imag)) == (
                math.copysign(1, want.real),
                math.copysign(1, want.imag),
            )

    check()


def test_row_sums_carry_past_int64():
    # a row of 2^25 parts 2 - 2j: its limb sums reach 2^25 * 2^38 = 2^63, past int64, so
    # they are carried as Python ints; the row streams as 2^11 blocks of one array
    block = np.full(sums._BLOCK, 2 - 2j)
    n = 1 << 25
    assert sums._row_sums((block for _ in range(n // len(block))), [n]) == [complex(2 * n, -2 * n)]


def test_reduce_equals_python_mod_property():
    # both routes of field._reduce, np.remainder below _DIVIDE_ENTRIES entries and
    # a - (a // q)*q from there on, against Python's % for moduli up to 2^31 and
    # entries below 2^63, as the products of field.chain_sums are
    given, settings, st = _hypothesis()
    entries = st.one_of(st.integers(0, 2**63 - 1), st.sampled_from((0, 1, 2**31, 2**62, 2**63 - 1)))

    @settings
    @given(st.integers(1, 2**31), st.lists(entries, max_size=20), st.sampled_from((0, field._DIVIDE_ENTRIES)),
           st.integers(0, 2**64))
    def check(q, values, pad, seed):
        more = np.random.default_rng(seed).integers(0, 2**63 - 1, size=pad, dtype=np.int64, endpoint=True)
        a = np.array(values + more.tolist(), dtype=np.int64)
        out = np.empty_like(a)
        field._reduce(a, q, out)
        assert out.tolist() == [v % q for v in a.tolist()]

    check()


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _fsum_characters(residues, den: int) -> tuple:
    """The bits of fsum of the characters of all the residues at once."""
    return _bits(_fsum_parts(field.unit_roots(np.array(residues, dtype=np.int64), den)))


def test_sums_in_blocks_of_any_size_property(monkeypatch):
    # every kind of sum in blocks of 1 to 40 terms, so that rows straddle blocks,
    # against fsum of the characters of all its terms at once, bit for bit: a
    # batch of two cells with rows of 0 terms among them, single, complete,
    # incomplete, twisted and Kloosterman sums, and an inversive sum with an
    # excluded term; on a table prime, one above the table and one above 2^31
    given, settings, st = _hypothesis()
    _, big, polys = _strategies(st)

    @settings
    @given(st.sampled_from((1009, 1995841, 2147483659)), st.integers(1, 40), polys, polys, st.integers(0, 2**64), big)
    def check(p, block, f, h, t, a):
        taus = [d for d in field.divisors(p - 1) if d <= 300]
        G, H = field.subgroup(p, taus[t % len(taus)]), field.subgroup(p, taus[t // 7 % len(taus)])
        orbit = [pow(G.theta, x, p) for x in range(1, G.tau + 1)]
        want = [f.evaluate(x, p) for x in orbit]
        monkeypatch.setattr(sums, "_BLOCK", block)
        # a batch: two rows on G, one on H
        got = sums.subgroup_sums([(G, [f, h]), (H, [h])])
        other = [[h.evaluate(x, p) for x in K.enumerate()] for K in (G, H)]
        assert [_bits(v.value) for vs in got for v in vs] == [
            _fsum_characters(want, p), _fsum_characters(other[0], p), _fsum_characters(other[1], p)
        ]
        # rows of 0 terms between and after rows of terms, in one batch
        chains = [sums._orbit_chains(p, G.theta, f), sums._orbit_chains(p, G.theta, h)]
        cells = [(G.tau, chains), (0, chains), (G.tau, chains[:1]), (0, chains[:1])]
        got = sums._sums(G.modulus, cells, [G.tau, G.tau, 0, 0, G.tau, 0])
        assert [_bits(v.value) for v in got] == [_bits(v.value) for v in sums.subgroup_sums([(G, [f, h])])[0]] + [
            _bits(0j), _bits(0j), _fsum_characters(want, p), _bits(0j)
        ]
        assert [v.term_count for v in got] == [G.tau, G.tau, 0, 0, G.tau, 0]
        assert _bits(sums.subgroup_sum(G, f).value) == _fsum_characters(want, p)
        count = t % (G.tau + 1)
        assert _bits(sums.incomplete_subgroup_sum(G, f, count).value) == _fsum_characters(want[:count], p)
        if p < 2000:
            assert _bits(sums.complete_sum(p, f).value) == _fsum_characters([f.evaluate(x, p) for x in range(p)], p)
        # the twist, product by product as Python's complex multiply takes it
        c = field.unit_roots(np.array(want, dtype=np.int64), p)
        u = field.unit_roots(np.arange(1, G.tau + 1, dtype=np.int64) * (a % G.tau) % G.tau, G.tau)
        parts = np.empty(G.tau, dtype=np.complex128)
        parts.real = c.real * u.real - c.imag * u.imag
        parts.imag = c.real * u.imag + c.imag * u.real
        assert _bits(sums.twisted_sum(G, f, a).value) == _bits(_fsum_parts(parts))
        b = t % p
        kloosterman = [(a * x + b * pow(x, -1, p)) % p for x in orbit]
        assert _bits(sums.kloosterman_subgroup_sum(G, a, b).value) == _fsum_characters(kloosterman, p)
        # a*x + b = 0 at one x of the orbit: that term is excluded
        a = a % p or 1
        b = -a * orbit[t % G.tau]
        s = sums.inversive_subgroup_sum(G, a, b)
        kept = [pow((a * x + b) % p, -1, p) for x in orbit if (a * x + b) % p]
        assert (s.term_count, s.excluded) == (G.tau - 1, 1)
        assert _bits(s.value) == _fsum_characters(kept, p)

    check()


def test_sums_hold_a_few_blocks_whatever_their_length():
    # sums stream in blocks: a sum of 2^20 terms of every kind, and a batch of four,
    # peak below ten blocks of characters traced (2.6 MB; 1.1-1.8 MB measured), where
    # the residues alone took 8 MB and the characters 16 MB when each was held
    # whole.  The prime is above the table limit, so that no character
    # table is built, and each call runs once untraced first, so that the twist's
    # table and every other cache are warm
    p, tau = 7340033, 1 << 20
    G = field.subgroup(p, tau)
    f = SparsePolynomial.parse("3*x^1+5*x^7+11*x^20")
    calls = (
        lambda: sums.subgroup_sum(G, f),
        lambda: sums.subgroup_sums([(G, [f, f, f, f])]),
        lambda: sums.twisted_sum(G, f, 7),
        lambda: sums.kloosterman_subgroup_sum(G, 2, 3),
        lambda: sums.inversive_subgroup_sum(G, 1, -pow(G.theta, 12345, p)),
    )
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 16 * sums._BLOCK, peak
