"""Exponential sum evaluators over F_p and its multiplicative subgroups.

Every sum is one pass over blocks of at most _BLOCK terms, and no array is as
long as a sum.  A batch is a single sum, or every sum on the subgroups of one
prime (`subgroup_sums`, one batch per verify call).  `field.chain_sums` yields
its residues block by block, a power chain per term of each row, and a block's
characters are gathered into one reused buffer: from the first half of the
table of p-th roots of unity, the rest read as conjugates
(`field._table_roots`), or from cos and sin above the table limit.  Every sum
is the exact sum of its terms' real and imaginary parts, rounded once
(`_row_sums`): the limb pass splits each block's parts into 37-bit limbs that
float64 adds without error, carries each row's limb sums across blocks as
integers, and joins and rounds each row once at the end.  The result equals
math.fsum of the parts bit for bit, whatever the term count.
"""

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .field import (
    GuardExceeded,
    _step_widths,
    _table_roots,
    chain_sums,
    inverses,
    least_primitive_root,
    prime_modulus,
    unit_roots,
)

# Terms of a sequence held whole: a generator stream, or the power vectors of a moment
# count.  At 4*10^6 terms a CSV stream at p = 24000001 took 91 MB of peak RSS, against
# 29 MB for a run refused at once (three-term power generator and inversive generator
# alike), on a 2-core x86-64 host (Python 3.11, numpy 2.4).  A sums batch holds its power
# steps whole too, so `_batches` keeps them within it.
TERM_LIMIT = 1 << 22
# Terms of one sum, which streams in blocks and holds no array of its length, so the
# limit bounds its time, not its memory.  A three-term sum takes 41-46 ns a term above
# the table limit and below 2^31 (2^24 terms at p = 167772161 in 0.77 s, 31 MB), so
# about 12 s at the limit, and about 0.5 us a term above 2^31, where its products are
# Python ints (2402107 terms at p = 2147483659 in 1.23 s), so minutes at the limit.
SUM_TERM_LIMIT = 1 << 28

_TERM_RE = re.compile(r"^(\d+)\*[xX]\^(\d+)$")
_CONST_RE = re.compile(r"^\d+$")


@dataclass(frozen=True)
class SumValue:
    """A finished character sum: complex value, number of summed terms, excluded terms."""

    value: complex
    term_count: int
    excluded: int = 0

    @property
    def magnitude(self) -> float:
        return abs(self.value)


# Terms per block of every sum: its residues, characters and limb work arrays, about 80
# bytes a term in all, stay in cache, and the limb sums of a block stay within 2^52.
_BLOCK = 1 << 14
# The exact row sum.  A part v, |v| <= 2, is split into 37-bit limbs: x = v*2^37,
# w = trunc(x), x = (x - w)*2^37, and so on until every remainder is 0, so that
# v = sum of w_l*2^(-37(l+1)) over integers |w_0| <= 2^38 and |w_l| < 2^37 after it.
# Scaling by a power of two, trunc and x - trunc(x) are all exact.  A block meets at most
# _BLOCK parts of a row, so its limb sums are at most 2^14*2^38 = 2^52, and float64 adds
# them exactly in any order.  They are carried across blocks in int64 while the longest
# row has n < 2^25 parts, so that n*2^38 < 2^63, and as Python ints beyond.  A part
# whose lowest bit is 2^-1074, the smallest subnormal, takes 30 limbs (37*30 >= 1074).
_LIMB = 37
_SCALE = float(1 << _LIMB)
# A part below 1 in magnitude with all 53 bits in use reaches below 2^-37, where one limb
# stops, and nearly every rounded cos and sin does, while two limbs hold every part of at
# least 2^-22; so the remainders are first tested for zero after the second limb.
_MIN_LIMBS = 2


def _row_sums(parts, lengths, work=None) -> list:
    """The sum of each row of a ragged batch, as a list of complex: row i is the
    next lengths[i] parts, and parts is a 1-D complex128 array, or an iterable
    of them that yields the batch's blocks in order.

    Each part is the exact sum rounded once, half to even: equal bit for bit
    to complex(fsum(row.real), fsum(row.imag)), an empty row 0j.  The pass runs
    over blocks of at most _BLOCK parts, and in a block each limb of every row
    that meets it is summed by one segmented add (np.add.reduceat) and added to
    the row's integer limb sums.  Those of a row part are joined into one
    integer N and divided by 2^(37 L) once at the end; CPython's int division
    rounds correctly, and N = 0 gives +0.0, as fsum gives for an exact zero.
    work, if given, is the pass's two work arrays (`_workspace`).
    """
    if isinstance(parts, np.ndarray):
        parts = (parts,)
    # the rows that hold terms, and where each starts; an empty row meets no block
    held, starts, n = [], [], 0
    for i, w in enumerate(lengths):
        if w:
            held.append(i)
            starts.append(n)
            n += w
    # the limb sums' type: int64 while every row keeps them below 2^63
    carry = np.int64 if max(lengths, default=0) < 1 << (62 - _LIMB) else object
    x, t = np.empty((2, min(n, _BLOCK), 2)) if work is None else work
    # limbs[l][i]: the sums of limb l of the real and imaginary parts of held row i
    limbs = []
    c = 0  # the first part of the block in the batch
    for part in parts:
        # the real and imaginary parts of each summand, side by side in a row of two
        part = np.ascontiguousarray(part, dtype=np.complex128).view(np.float64).reshape(-1, 2)
        # the bound on the limb sums needs |v| <= 2; NaN fails the comparisons
        if len(part) and not (part.max() <= 2 and part.min() >= -2):
            raise ArithmeticError("a summand has a part outside [-2, 2]")
        for b in range(0, len(part), _BLOCK):
            block = part[b : b + _BLOCK]
            xb, tb = x[: len(block)], t[: len(block)]
            # held rows i0..i1-1 meet the block; the first may have started in an earlier one
            i0, i1 = bisect_right(starts, c) - 1, bisect_right(starts, c + len(block) - 1)
            segments = np.array(starts[i0:i1])
            if c:
                segments -= c
                segments[0] = 0
            c += len(block)
            np.multiply(block, _SCALE, out=xb)
            l = 0
            while True:
                np.trunc(xb, out=tb)
                r = np.add.reduceat(tb, segments).astype(np.int64)
                if l < len(limbs):
                    limbs[l][i0:i1] += r
                elif i1 - i0 == len(held) and carry is np.int64:
                    limbs.append(r)  # the block meets every row
                else:
                    limbs.append(np.zeros((len(held), 2), dtype=carry))
                    limbs[l][i0:i1] += r
                l += 1
                xb -= tb
                if l >= _MIN_LIMBS and not np.count_nonzero(xb):
                    break
                xb *= _SCALE
    out = [0j] * len(lengths)
    if limbs:
        d = 1 << (_LIMB * len(limbs))
        vals = []
        # the limb sums of each part, real and imaginary alternating
        for row in np.array(limbs).reshape(len(limbs), -1).T.tolist():
            total = 0
            for s in row:
                total = (total << _LIMB) + s
            vals.append(total / d)
        for i, z in zip(held, map(complex, vals[0::2], vals[1::2])):
            out[i] = z
    return out


def _value(val: complex, n: int, excluded: int = 0) -> SumValue:
    """The SumValue of a sum val of n summands on the unit circle, checked against them."""
    # the triangle inequality is exact for unit summands
    if abs(val) > n + 1e-6:
        raise ArithmeticError(f"|S| = {abs(val)} exceeds the {n} terms summed")
    return SumValue(val, n, excluded)


def _finish(parts, lengths, work=None) -> list:
    """A SumValue for each row of the ragged batch (parts, lengths) of `_row_sums`,
    row i of lengths[i] summands."""
    return [_value(val, n) for val, n in zip(_row_sums(parts, lengths, work), lengths)]


@dataclass(frozen=True)
class SparsePolynomial:
    """Sparse polynomial sum(c*X^n) + constant with positive exponents.

    terms are (exponent, coefficient) pairs with strictly increasing
    exponents >= 1 and nonzero coefficients.
    """

    terms: tuple
    constant: int = 0

    def __post_init__(self):
        last = 0
        for n, c in self.terms:
            if n <= last:
                raise ValueError(f"exponents must be strictly increasing and >= 1, got {n}")
            if c == 0:
                raise ValueError(f"zero coefficient at exponent {n}")
            last = n

    @classmethod
    def from_pairs(cls, pairs, constant: int = 0) -> "SparsePolynomial":
        """Build from (exponent, coefficient) pairs in any order, merging duplicates."""
        acc: dict = {}
        for n, c in pairs:
            acc[n] = acc.get(n, 0) + c
        terms = tuple((n, acc[n]) for n in sorted(acc) if acc[n] != 0)
        return cls(terms, constant)

    @property
    def degree(self) -> int:
        return self.terms[-1][0] if self.terms else 0

    def exponents(self) -> tuple:
        return tuple(n for n, _ in self.terms)

    def coefficients(self) -> tuple:
        return tuple(c for _, c in self.terms)

    def evaluate(self, x: int, p: int) -> int:
        """f(x) mod p."""
        z = self.constant
        for n, c in self.terms:
            z += c * pow(x, n, p)
        return z % p

    def dilate(self, h: int, p: int) -> "SparsePolynomial":
        """f(h*X) with coefficients reduced mod p; drops terms that vanish."""
        pairs = []
        for n, c in self.terms:
            ch = c * pow(h, n, p) % p
            if ch:
                pairs.append((n, ch))
        return SparsePolynomial(tuple(pairs), self.constant % p)

    def format(self) -> str:
        """Canonical text form c1*x^n1+c2*x^n2[+c0], exponents ascending."""
        parts = [f"{c}*x^{n}" for n, c in self.terms]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return "+".join(parts)

    @classmethod
    def parse(cls, text: str) -> "SparsePolynomial":
        """Parse the canonical grammar: '+'-joined terms c*x^n plus at most one bare constant."""
        text = text.strip().replace(" ", "")
        if not text:
            raise ValueError("empty polynomial spec")
        pairs = []
        constant = None
        for piece in text.split("+"):
            m = _TERM_RE.match(piece)
            if m:
                n = int(m.group(2))
                if n < 1:
                    raise ValueError(f"exponent must be >= 1 in term {piece!r}")
                c = int(m.group(1))
                if c == 0:
                    raise ValueError(f"zero coefficient in term {piece!r}")
                pairs.append((n, c))
                continue
            if _CONST_RE.match(piece):
                if constant is not None:
                    raise ValueError("more than one constant term")
                constant = int(piece)
                continue
            raise ValueError(f"malformed polynomial term {piece!r}")
        poly = cls.from_pairs(pairs, constant or 0)
        if len(poly.terms) != len(pairs):
            raise ValueError("repeated exponent in polynomial spec")
        return poly


def _orbit_chains(p: int, theta: int, f: SparsePolynomial) -> list:
    """The chains of f(theta^x) for x = 1..count, as `field.chain_sums` counts j = x - 1:
    (c*theta^n, theta^n) per term c*X^n, and the constant as a chain of ratio 1."""
    chains = [(c * (m := pow(theta, n, p)) % p, m) for n, c in f.terms]
    return chains + [(f.constant % p, 1)] if f.constant % p else chains


def _orbit_residues(p: int, theta: int, f: SparsePolynomial, count: int) -> np.ndarray:
    """f(theta^x) mod p for x = 1..count as one int64 array, held whole for a stream:
    one power chain per term, behind the term guard of sequences."""
    if count > TERM_LIMIT:
        raise GuardExceeded("terms", count, TERM_LIMIT)
    out = np.empty(count, dtype=np.int64)
    for _ in chain_sums(p, [(count, [_orbit_chains(p, theta, f)])], out=out):
        pass
    return out


def _inversive_residues(p: int, theta: int, a: int, b: int, count: int) -> np.ndarray:
    """(a*theta^x + b)^-1 mod p for x = 1..count as int64, with -1 (never a residue) where a*theta^x + b = 0."""
    out = inverses(_orbit_residues(p, theta, SparsePolynomial.from_pairs([(1, a)], b), count), p)
    out[out == 0] = -1  # the inverse of a nonzero residue is nonzero
    return out


def _residues(p: int, cells: list):
    """The blocks of `field.chain_sums` of a batch, (count, rows) cells of chain lists,
    behind the term guard of sums, which refuses before anything is formed."""
    over = [count for count, _ in cells if count > SUM_TERM_LIMIT]
    if over:
        raise GuardExceeded("terms", over[0], SUM_TERM_LIMIT)
    return chain_sums(p, cells, _BLOCK)


def _characters(mod, blocks, buf):
    """exp(2*pi*i*z/p) for the residues z in [0, p) of each block, gathered into one
    complex128 buffer reused for every block: from the table when p has one."""
    tab = mod.char_table()
    for z in blocks:
        out = buf[: len(z)]
        if tab is not None:
            yield _table_roots(tab, z, mod.p, out)
        else:
            yield unit_roots(z, mod.p, out)


def _workspace(n: int) -> tuple:
    """The character buffer and the limb pass's two work arrays of a pass over n terms.

    They are one allocation, 768 KB at a full block: glibc's malloc raises its
    mmap and trim thresholds to the largest block freed, so the next pass
    reuses it, where the characters' 256 KB and the work arrays' 512 KB, apart,
    were returned to the kernel and faulted in again (13,250 against about
    1,000 minor faults on a seed-0 sweep-mix pass).
    """
    work = np.empty((3, min(n, _BLOCK)), dtype=np.complex128)
    return work[0], work[1:].view(np.float64).reshape(2, -1, 2)


def _sums(mod, cells: list, lengths: list) -> list:
    """The SumValues of the rows of lengths, summed over the characters of the residues of
    cells, one pass over their blocks."""
    buf, work = _workspace(sum(lengths))
    return _finish(_characters(mod, _residues(mod.p, cells), buf), lengths, work)


def complete_sum(p, f: SparsePolynomial) -> SumValue:
    """S(f) = sum over all x in F_p of exp(2*pi*i*f(x)/p)."""
    mod = prime_modulus(p)
    p, g = mod.p, least_primitive_root(mod.p)
    # term j = 0..p-1 is f(x) at x = g^j for j >= 1 and at x = 0 for j = 0: the chains
    # (c, g^n) of the terms c*X^n give f(g^j) - f(0) at every j, and at j = 0 alone a
    # chain of ratio 0 takes their f(1) - f(0) off again; the constant is a chain of ratio 1
    chains = [(c % p, pow(g, n, p)) for n, c in f.terms]
    chains.append((-sum(c for c, _ in chains) % p, 0))
    if f.constant % p:
        chains.append((f.constant % p, 1))
    return _sums(mod, [(p, [chains])], [p])[0]


def subgroup_sum(G, f: SparsePolynomial) -> SumValue:
    """S(G; f) = sum over g in G of exp(2*pi*i*f(g)/p)."""
    return _sums(G.modulus, [(G.tau, [_orbit_chains(G.p, G.theta, f)])], [G.tau])[0]


def subgroup_sums(cells) -> list:
    """[[subgroup_sum(G, f) for f in fs] for G, fs in cells], bit for bit, for
    cells (G, fs) of subgroups G of one prime.

    The rows (G, f) are summed in order, in batches (`_batches`) whose power
    steps stay within TERM_LIMIT; the cells of a verify call on one prime are
    one batch.  A batch is one pass over blocks: `field.chain_sums` yields the
    residues of all its rows, those of equal tau one cell, and one limb pass
    (`_row_sums`) sums the characters of every block into the rows it meets.
    """
    rows = [(G, f) for G, fs in cells for f in fs]
    if any(G.p != rows[0][0].p for G, _ in rows):
        raise ValueError("the subgroups of one subgroup_sums call must share their prime")
    values = []
    for batch in _batches(rows):
        mod = batch[0][0].modulus
        groups = groupby(batch, lambda r: r[0].tau)
        values += _sums(mod, [(tau, [_orbit_chains(mod.p, G.theta, f) for G, f in g]) for tau, g in groups],
                        [G.tau for G, _ in batch])
    out, start = [], 0
    for _, fs in cells:
        out.append(values[start : start + len(fs)])
        start += len(fs)
    return out


def _batches(rows: list) -> list:
    """The (G, f) rows cut, in order, into lists whose power steps stay within
    TERM_LIMIT: the giant and baby steps `field.chain_sums` takes for each chain,
    s + g at the batch's longest row (`_step_widths`), each row of a run of equal
    tau padded to the run's widest.  The steps are the one array a batch holds
    whole; its terms stream through blocks.  Short rows beside a long one take a
    long row's steps each.  A row whose steps pass the limit alone is a batch of
    its own."""
    batches = []
    top = steps = slots = n = width = 0  # n rows of the last run, padded to width chains
    for G, f in rows:
        w = max(len(f.terms) + (f.constant % G.p != 0), 1)
        same = bool(batches) and G.tau == batches[-1][-1][0].tau
        # the batch's chains with this row: one more row of the last run, or the first of a new one
        grown = slots + (n + 1) * max(width, w) - n * width if same else slots + w
        k = steps if G.tau <= top else sum(_step_widths(G.tau, _BLOCK))
        if not batches or grown * k > TERM_LIMIT:
            batches.append([])
            top, same, grown, k = 0, False, w, sum(_step_widths(G.tau, _BLOCK))
        n, width = (n + 1, max(width, w)) if same else (1, w)
        top, steps, slots = max(top, G.tau), k, grown
        batches[-1].append((G, f))
    return batches


def incomplete_subgroup_sum(G, f: SparsePolynomial, count: int) -> SumValue:
    """Sum over the first count elements theta^1..theta^count of the generator orbit."""
    if count < 0 or count > G.tau:
        raise ValueError(f"count must lie in [0, tau], got {count}")
    return _sums(G.modulus, [(count, [_orbit_chains(G.p, G.theta, f)])], [count])[0]


def twisted_sum(G, f: SparsePolynomial, b: int) -> SumValue:
    """Sum over x = 1..tau of exp(2*pi*i*f(theta^x)/p) * exp(2*pi*i*b*x/tau)."""
    tau = G.tau
    blocks = _residues(G.p, [(tau, [_orbit_chains(G.p, G.theta, f)])])
    buf, work = _workspace(tau)
    return _finish(_twisted(_characters(G.modulus, blocks, buf), b % tau, tau), [tau], work)[0]


def _twisted(blocks, b: int, tau: int):
    """Each block of characters c of x = 1..tau in turn, times exp(2*pi*i*b*x/tau) in place."""
    x = 1
    for c in blocks:
        # b*x < tau**2 fits in int64 for every tau the term guard admits
        u = unit_roots(np.arange(x, x + len(c), dtype=np.int64) * b % tau, tau)
        x += len(c)
        # the products of Python's complex multiply, one float64 operation at a time
        real = c.real * u.real - c.imag * u.imag
        c.imag = c.real * u.imag + c.imag * u.real
        c.real = real
        yield c


def kloosterman_subgroup_sum(G, a: int, b: int) -> SumValue:
    """K(G; a, b) = sum over g in G of exp(2*pi*i*(a*g + b*g^-1)/p)."""
    p = G.p
    theta_inv = pow(G.theta, G.tau - 1, p)
    chains = [(a * G.theta % p, G.theta), (b * theta_inv % p, theta_inv)]
    return _sums(G.modulus, [(G.tau, [chains])], [G.tau])[0]


def inversive_subgroup_sum(G, a: int, b: int) -> SumValue:
    """Sum over g in G with a*g + b != 0 of exp(2*pi*i*(a*g+b)^-1 / p).

    Terms with a*g + b = 0 are skipped and reported in the excluded count:
    each block's residues are inverted by one `field.inverses` call, and a
    skipped term's character is an exact 0, which leaves the exact sum as it is.
    """
    p = G.p
    f = SparsePolynomial.from_pairs([(1, a % p)], b % p)
    blocks = _residues(p, [(G.tau, [_orbit_chains(p, G.theta, f)])])
    skipped = []  # the skipped terms of each block
    buf, work = _workspace(G.tau)
    (val,) = _row_sums(_inverse_characters(G.modulus, blocks, buf, skipped), [G.tau], work)
    return _value(val, G.tau - sum(skipped), sum(skipped))


def _inverse_characters(mod, blocks, buf, skipped: list):
    """exp(2*pi*i*z^-1/p) for the residues z of each block, the inverses of a block
    taken by one `field.inverses` call, with an exact 0 for each z = 0, whose
    count it appends to skipped."""
    zeros = []  # the positions of the residues 0 of the block being gathered

    def inverted():
        for z in blocks:
            zeros.append(np.flatnonzero(z == 0))  # indices, not a mask: few residues are 0
            yield inverses(z, mod.p)

    for c in _characters(mod, inverted(), buf):
        zero = zeros.pop()
        c[zero] = 0
        skipped.append(len(zero))
        yield c
