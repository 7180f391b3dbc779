"""Orbit-driven generators and the export formats."""

import hashlib
import importlib.util
import io
import pathlib
import random
import struct
import sys
import tracemalloc

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
    assert [v for v in seq.residues if v is not None] == [3, 11, 7]


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


def test_generator_values_are_read_only_with_in_band_exclusions():
    G = field.subgroup(13, 4)
    for seq in (prng.inversive_generator(G, 1, 1, 4), prng.power_generator(G, SparsePolynomial.parse("1*x^1"), 4)):
        assert seq.values.dtype == np.int64 and not seq.values.flags.writeable
        assert seq.residues == tuple(None if v == -1 else v for v in seq.values.tolist())
    assert prng.inversive_generator(G, 1, 1, 4).values.tolist() == [3, -1, 11, 7]
    # f(theta^x) = 0 is a residue, not an excluded term
    zero = prng.power_generator(G, SparsePolynomial.parse("1*x^4+12"), 4)
    assert zero.residues == (0, 0, 0, 0)


# --- the block writers against the per-row writers ---

_B = prng._BLOCK_ROWS
# every power-of-ten edge from 0 to 10^18, and the largest residue below 2^62
_EDGES = [0, 9, 10] + [10**k + d for k in range(2, 19) for d in (-1, 0)] + [2**62 - 1]


def _reference(residues) -> tuple:
    """The CSV text and u64-le bytes of the per-row writers."""
    csv = "index,value\n" + "".join(f"{i},{'' if v is None else v}\n" for i, v in enumerate(residues, start=1))
    words = b"".join(struct.pack("<Q", v) for v in residues if v is not None)
    return csv, words


def test_writers_match_the_per_row_writers_property():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # no shrinking: a failing example of 10^4 rows would take minutes to shrink
    phases = (hyp.Phase.explicit, hyp.Phase.generate)

    @hyp.settings(derandomize=True, database=None, max_examples=40, deadline=None, phases=phases)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.sampled_from((1, 2, _B - 1, _B, _B + 1, 2 * _B + 1)) | st.integers(1, 3 * _B))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # values below top: a block's widest value has 1, 6 or 19 digits, or 10 on either side of 2^31
        top = data.draw(st.sampled_from((10, 10**6, 2**31, 10**10, 2**62)))
        edges = np.array([e for e in _EDGES if e < top])
        values = np.where(rng.random(n) < 0.5, rng.choice(edges, n), rng.integers(0, top, n))
        # excluded terms in the first and last rows and at block edges, or anywhere
        rows = [i for i in (0, n - 1, _B - 1, _B, 2 * _B - 1, 2 * _B) if i < n]
        values[data.draw(st.lists(st.sampled_from(rows) | st.integers(0, n - 1), max_size=4))] = -1
        seq = prng.GeneratorSequence(982801, values)
        residues = [None if v < 0 else v for v in values.tolist()]
        assert seq.residues == tuple(residues)
        csv, words = _reference(residues)

        text = io.StringIO()
        prng.write_csv(seq, text)
        assert text.getvalue() == csv
        raw = io.BytesIO()
        wrapped = io.TextIOWrapper(raw, encoding="ascii", newline="")
        prng.write_csv(seq, wrapped)
        wrapped.flush()
        assert raw.getvalue() == csv.encode()
        binary = io.BytesIO()
        prng.write_u64le(seq, binary)
        assert binary.getvalue() == words

    check()


class _Sink:
    """A text stream that keeps only the SHA-256 of what is written and the largest write."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.largest = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.largest = max(self.largest, len(text))


def test_write_csv_holds_a_few_blocks():
    # 2^20 terms of up to 19 digits: the whole CSV text is about 27 MB, a block
    # about 450 kB; a writer that formats the whole sequence at once holds tens of MB
    n = 1 << 20
    values = np.random.default_rng(0).integers(0, 2**62, n)
    values[:: 1 << 12] = -1
    seq = prng.GeneratorSequence(2**62 - 57, values)
    sink = _Sink()
    tracemalloc.start()
    try:
        prng.write_csv(seq, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block's text is at most 28 characters a row, and formatting it holds
    # about four times that
    assert peak < 6 * _B * 28, peak
    assert sink.largest <= _B * 28
    want = hashlib.sha256(_reference(seq.residues)[0].encode())
    assert sink.digest.hexdigest() == want.hexdigest()


# --- the batch inversion ---

_SQUARES = (4, 9, 64, 256, 576, 4096, 10000)


@pytest.mark.parametrize("p", (2, 3, 13, 982801, 2147483647, 2147483659, 2305843009213693951))
def test_inverses_equal_pow(p):
    # every nonzero entry is pow(v, -1, p), and 0 stays 0, at lengths 0, 1, 2
    # and at perfect squares (and 64 times squares, where the block gains a row) +- 1
    rng = np.random.default_rng(p)
    for n in (0, 1, 2) + tuple(s + d for s in _SQUARES for d in (-1, 0, 1)):
        t = rng.integers(1, p, n)
        for i in {0, n - 1, n // 2, int(rng.integers(0, n))} if n > 2 else ():
            t[i] = 0
        got = field.inverses(t.copy(), p)
        assert got.dtype == np.int64 and len(got) == n
        assert got.tolist() == [pow(v, -1, p) if v else 0 for v in t.tolist()]


def test_inversive_stream_holds_two_arrays():
    # 2^20 terms: the chain's residues and the prefix products are the two
    # int64 arrays of the inversion; a third (a padded copy of the residues)
    # takes the peak to 3.1 arrays
    n = 1 << 20
    G = field.subgroup(24000001, 4000000)
    b = -pow(G.theta, 7, G.p) % G.p
    prng.inversive_generator(G, 1, b, 10)  # the subgroup's caches are built before tracing
    tracemalloc.start()
    try:
        seq = prng.inversive_generator(G, 1, b, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n, peak
    assert seq.values[6] == -1 and (seq.values == -1).sum() == 1  # term 7 is excluded


def test_stream_costs_script_runs(monkeypatch, capsys):
    # tools/stream_costs.py on two short lengths: every layer agrees and is timed
    path = pathlib.Path(__file__).parents[1] / "tools" / "stream_costs.py"
    spec = importlib.util.spec_from_file_location("stream_costs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "LENGTHS", (7, 300))
    monkeypatch.setattr(sys, "argv", [str(path), "--repeat", "1"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ") and "numpy" in lines[0]
    layers = ("csv", "u64", "inverses", "inv-big")
    assert [line.split()[:2] for line in lines[2:]] == [[n, layer] for n in ("7", "300") for layer in layers]
    assert all(line.endswith("x") for line in lines[2:])
