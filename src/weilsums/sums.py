"""Exponential sum evaluators over F_p and its multiplicative subgroups.

Residues are int64 numpy arrays.  A batch is a single sum, or every sum
on the subgroups of one prime (`subgroup_sums`, one batch per verify call),
and its residues come from one `field.chain_sums` call, a power chain per term.
Characters are gathered from the first half of the table of p-th roots of
unity, the rest read as conjugates (`field._table_roots`), or computed from
cos and sin above the table limit, one gather per batch.
Every sum is the exact sum of its terms' real and imaginary parts, rounded
once (`_row_sums`): one vectorized pass splits the parts of a whole batch,
rows of any lengths, into 26-bit limbs that float64 adds without error, and
each part's limb sums are joined into one integer and rounded once.  The result
equals math.fsum of the parts bit for bit, whatever the term count.
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

# Terms a sum or generator may have; each costs 45-75 bytes of peak RSS.  At 4*10^6
# terms a three-term sum took 190 MB at p = 24000001 and 294 MB at p = 2184000001, and
# a CSV stream at p = 24000001 91 MB (three-term power generator and inversive
# generator alike), on a 2-core x86-64 host (Python 3.11, numpy 2.4).
TERM_LIMIT = 1 << 22

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


# The exact row sum.  A part v, |v| <= 2, is split into 26-bit limbs: x = v*2^26,
# w = trunc(x), x = (x - w)*2^26, and so on until every remainder is 0, so that
# v = sum of w_l*2^(-26(l+1)) over integers |w_0| <= 2^27 and |w_l| < 2^26 after it.
# Scaling by a power of two, trunc and x - trunc(x) are all exact.  A row of n < 2^26
# parts (the term guard keeps every sum to n <= TERM_LIMIT + 1) has limb sums below
# n*2^27 < 2^53, so float64 adds them exactly in any order and any blocking.  A part
# whose lowest bit is 2^-1074, the smallest subnormal, takes 42 limbs (26*42 >= 1074).
_LIMB = 26
_SCALE = float(1 << _LIMB)
# A part below 1 in magnitude with all 53 bits in use reaches below 2^-52, where two
# limbs stop, and nearly every rounded cos and sin does, so the remainders are first
# tested for zero after the third limb; a limb taken early only adds zeros.
_MIN_LIMBS = 3
# Doubles per block of the limb pass: its temporaries stay in cache, and its memory
# stays flat whatever the shape of the batch.
_BLOCK = 1 << 15


def _row_sums(parts: np.ndarray, lengths) -> list:
    """The sum of each row of a ragged batch, as a list of complex: row i is the
    next lengths[i] entries of the 1-D complex128 array parts.

    Each part is the exact sum rounded once, half to even: equal bit for bit
    to complex(fsum(row.real), fsum(row.imag)), an empty row 0j.  The pass
    runs over blocks of _BLOCK doubles, and in a block each limb of every row
    that meets it is summed by one segmented add (np.add.reduceat).  The limb
    sums of a row part are joined into one integer N and divided by 2^(26 L)
    once; CPython's int division rounds correctly, and N = 0 gives +0.0, as
    fsum gives for an exact zero.
    """
    # the real and imaginary parts of each summand, side by side in a row of two
    parts = np.ascontiguousarray(parts, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    # the bound on the limb sums needs |v| <= 2; NaN fails the comparisons
    if len(parts) and not (parts.max() <= 2 and parts.min() >= -2):
        raise ArithmeticError("a summand has a part outside [-2, 2]")
    # the rows that hold terms, and where each starts; an empty row meets no block
    held, starts, n = [], [], 0
    for i, w in enumerate(lengths):
        if w:
            held.append(i)
            starts.append(n)
            n += w
    h = _BLOCK // 2
    # x and t in one allocation: two fresh ones of a few hundred KB cost page faults
    x, t = np.empty((2, min(n, h), 2))
    # limbs[l][i]: the sums of limb l of the real and imaginary parts of held row i
    limbs = []
    for c in range(0, n, h):
        xb, tb = x[: n - c], t[: n - c]
        # held rows i0..i1-1 meet the block; the first may have started in an earlier one
        i0, i1 = bisect_right(starts, c) - 1, bisect_right(starts, c + len(xb) - 1)
        segments = np.array(starts[i0:i1])
        if c:
            segments -= c
            segments[0] = 0
        np.multiply(parts[c : c + len(xb)], _SCALE, out=xb)
        l = 0
        while True:
            np.trunc(xb, out=tb)
            r = np.add.reduceat(tb, segments)
            if l < len(limbs):
                limbs[l][i0:i1] += r
            elif i1 - i0 == len(held):
                limbs.append(r)  # the block meets every row
            else:
                limbs.append(np.zeros((len(held), 2)))
                limbs[l][i0:i1] = r
            l += 1
            xb -= tb
            if l >= _MIN_LIMBS and not xb.any():
                break
            xb *= _SCALE
    out = [0j] * len(lengths)
    if limbs:
        d = 1 << (_LIMB * len(limbs))
        vals = []
        # the limb sums of each part, real and imaginary alternating; int64 drops the sign of a zero
        for row in np.array(limbs, dtype=np.int64).reshape(len(limbs), -1).T.tolist():
            total = 0
            for s in row:
                total = (total << _LIMB) + s
            vals.append(total / d)
        for i, z in zip(held, map(complex, vals[0::2], vals[1::2])):
            out[i] = z
    return out


def _finish(parts: np.ndarray, lengths, excluded: int = 0) -> list:
    """A SumValue for each row of the ragged batch (parts, lengths) of `_row_sums`,
    row i of lengths[i] summands."""
    out = []
    for val, n in zip(_row_sums(parts, lengths), lengths):
        # every summand is on the unit circle, so the triangle inequality is exact
        if abs(val) > n + 1e-6:
            raise ArithmeticError(f"|S| = {abs(val)} exceeds the {n} terms summed")
        out.append(SumValue(val, n, excluded))
    return out


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


def _chain_sums(p: int, cells: list) -> np.ndarray:
    """`field.chain_sums` of a batch, (count, rows) cells of chain lists, behind the term guard."""
    top = max(count for count, _ in cells)
    if top > TERM_LIMIT:
        raise GuardExceeded("terms", next(count for count, _ in cells if count > TERM_LIMIT), TERM_LIMIT)
    return chain_sums(p, cells)


def _orbit_chains(p: int, theta: int, f: SparsePolynomial) -> list:
    """The chains of f(theta^x) for x = 1..count, as `field.chain_sums` counts j = x - 1:
    (c*theta^n, theta^n) per term c*X^n, and the constant as a chain of ratio 1."""
    chains = [(c * (m := pow(theta, n, p)) % p, m) for n, c in f.terms]
    return chains + [(f.constant % p, 1)] if f.constant % p else chains


def _orbit_residues(p: int, theta: int, f: SparsePolynomial, count: int) -> np.ndarray:
    """f(theta^x) mod p for x = 1..count as int64: one power chain per term."""
    return _chain_sums(p, [(count, [_orbit_chains(p, theta, f)])])


def _inversive_residues(p: int, theta: int, a: int, b: int, count: int) -> np.ndarray:
    """(a*theta^x + b)^-1 mod p for x = 1..count as int64, with -1 (never a residue) where a*theta^x + b = 0."""
    out = inverses(_orbit_residues(p, theta, SparsePolynomial.from_pairs([(1, a)], b), count), p)
    out[out == 0] = -1  # the inverse of a nonzero residue is nonzero
    return out


def _characters(mod, residues: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*z/p) for each residue z in [0, p), from the table when p has one."""
    tab = mod.char_table()
    if tab is not None:
        return _table_roots(tab, residues, mod.p)
    return unit_roots(residues, mod.p)


def _char_sum(mod, residues: np.ndarray, excluded: int = 0) -> SumValue:
    return _finish(_characters(mod, residues), [len(residues)], excluded)[0]


def complete_sum(p, f: SparsePolynomial) -> SumValue:
    """S(f) = sum over all x in F_p of exp(2*pi*i*f(x)/p)."""
    mod = prime_modulus(p)
    # x = g^1..g^(p-1) for a primitive root g, then x = 0 where f(0) is the constant
    orbit = _orbit_residues(mod.p, least_primitive_root(mod.p), f, mod.p - 1)
    return _char_sum(mod, np.append(orbit, f.constant % mod.p))


def subgroup_sum(G, f: SparsePolynomial) -> SumValue:
    """S(G; f) = sum over g in G of exp(2*pi*i*f(g)/p)."""
    residues = _orbit_residues(G.modulus.p, G.theta, f, G.tau)
    return _char_sum(G.modulus, residues)


def subgroup_sums(cells) -> list:
    """[[subgroup_sum(G, f) for f in fs] for G, fs in cells], bit for bit, for
    cells (G, fs) of subgroups G of one prime.

    The rows (G, f) are summed in order, in batches (`_batches`) of at most
    TERM_LIMIT terms and power steps, so a batch holds about as much memory as
    one sum of TERM_LIMIT terms may; the cells of a verify call on one prime
    are one batch.  A batch takes the residues of all its rows from one
    `_chain_sums` call, whose rows of equal tau form one cell, gathers their
    characters at once and sums all its rows in one limb pass (`_row_sums`).
    """
    rows = [(G, f) for G, fs in cells for f in fs]
    if any(G.p != rows[0][0].p for G, _ in rows):
        raise ValueError("the subgroups of one subgroup_sums call must share their prime")
    values = []
    for batch in _batches(rows):
        values += _batch_sums(batch)
    out, start = [], 0
    for _, fs in cells:
        out.append(values[start : start + len(fs)])
        start += len(fs)
    return out


def _batches(rows: list) -> list:
    """The (G, f) rows cut, in order, into lists of at most TERM_LIMIT terms and
    steps: a batch's terms, and the giant and baby steps `field.chain_sums` takes
    for its chains, s + g each at the batch's longest row (`_step_widths`), each row
    of a run of equal tau padded to the run's widest.  Short rows beside a long
    one would take a long row's steps each, so steps count as terms do.  A row
    that passes the limit alone is a batch of its own."""
    batches = []
    terms = top = steps = slots = n = width = 0  # n rows of the last run, padded to width chains
    for G, f in rows:
        w = max(len(f.terms) + (f.constant % G.p != 0), 1)
        same = bool(batches) and G.tau == batches[-1][-1][0].tau
        # the batch's chains with this row: one more row of the last run, or the first of a new one
        grown = slots + (n + 1) * max(width, w) - n * width if same else slots + w
        k = steps if G.tau <= top else sum(_step_widths(G.tau))
        if not batches or terms + G.tau + grown * k > TERM_LIMIT:
            batches.append([])
            terms, top, same, grown, k = 0, 0, False, w, sum(_step_widths(G.tau))
        n, width = (n + 1, max(width, w)) if same else (1, w)
        terms, top, steps, slots = terms + G.tau, max(top, G.tau), k, grown
        batches[-1].append((G, f))
    return batches


def _batch_sums(rows: list) -> list:
    """The SumValues of the (G, f) rows of one batch, all on one prime."""
    mod = rows[0][0].modulus
    cells = [
        (tau, [_orbit_chains(mod.p, G.theta, f) for G, f in group]) for tau, group in groupby(rows, lambda r: r[0].tau)
    ]
    return _finish(_characters(mod, _chain_sums(mod.p, cells)), [G.tau for G, _ in rows])


def incomplete_subgroup_sum(G, f: SparsePolynomial, count: int) -> SumValue:
    """Sum over the first count elements theta^1..theta^count of the generator orbit."""
    if count < 0 or count > G.tau:
        raise ValueError(f"count must lie in [0, tau], got {count}")
    residues = _orbit_residues(G.modulus.p, G.theta, f, count)
    return _char_sum(G.modulus, residues)


def twisted_sum(G, f: SparsePolynomial, b: int) -> SumValue:
    """Sum over x = 1..tau of exp(2*pi*i*f(theta^x)/p) * exp(2*pi*i*b*x/tau)."""
    tau = G.tau
    c = _characters(G.modulus, _orbit_residues(G.modulus.p, G.theta, f, tau))
    # b*x < tau**2 fits in int64 for every tau an array can hold
    u = unit_roots(np.arange(1, tau + 1, dtype=np.int64) * (b % tau) % tau, tau)
    # the products of Python's complex multiply, one float64 operation at a time
    parts = np.empty(tau, dtype=np.complex128)
    parts.real = c.real * u.real - c.imag * u.imag
    parts.imag = c.real * u.imag + c.imag * u.real
    return _finish(parts, [tau])[0]


def kloosterman_subgroup_sum(G, a: int, b: int) -> SumValue:
    """K(G; a, b) = sum over g in G of exp(2*pi*i*(a*g + b*g^-1)/p)."""
    p = G.modulus.p
    theta_inv = pow(G.theta, G.tau - 1, p)
    chains = [(a * G.theta % p, G.theta), (b * theta_inv % p, theta_inv)]
    residues = _chain_sums(p, [(G.tau, [chains])])
    return _char_sum(G.modulus, residues)


def inversive_subgroup_sum(G, a: int, b: int) -> SumValue:
    """Sum over g in G with a*g + b != 0 of exp(2*pi*i*(a*g+b)^-1 / p).

    Terms with a*g + b = 0 are skipped and reported in the excluded count.
    """
    p = G.modulus.p
    terms = _inversive_residues(p, G.theta, a % p, b % p, G.tau)
    residues = terms[terms >= 0]
    return _char_sum(G.modulus, residues, len(terms) - len(residues))
