"""Exponential sum evaluators over F_p and its multiplicative subgroups.

Residues are int64 numpy arrays.  Each power chain c*m^x is one row of a
`field.powers` table (giant steps and baby steps): the j-th chains of a sum,
or of every sum in a batch on one subgroup (`subgroup_sums`), come from one
call, and the chains of each sum are added unreduced and reduced mod p once
(after every chain for p above 2^31, so the residues stay int64).
Characters are gathered from the first half of the table of p-th roots of
unity, the rest read as conjugates (`field._table_roots`), or computed from
cos and sin above the table limit.
Every sum is the exact sum of its terms' real and imaginary parts, rounded
once (`_row_sums`): one vectorized pass splits the parts of a whole batch
into 26-bit limbs that float64 adds without error, and each row's limb sums
are joined into one integer and divided once.  The result equals math.fsum
of the parts bit for bit, whatever the term count.
"""

import re
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .field import (
    INT64_MODULUS_LIMIT,
    GuardExceeded,
    _table_roots,
    inverses,
    least_primitive_root,
    powers,
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
_BLOCK = 1 << 16


def _add_limb_sums(block: np.ndarray, x: np.ndarray, t: np.ndarray, limbs: list) -> None:
    """Add the limb sums of each row of the complex block to limbs, real parts first.

    x and t are float64 work arrays of shape (2 * rows, columns) of the block.
    """
    h, c = block.shape
    # the real parts of the block into the first h rows of x, the imaginary parts below
    np.multiply(block.view(np.float64).reshape(h, c, 2).transpose(2, 0, 1), _SCALE, out=x.reshape(2, h, c))
    # the bound on the limb sums needs |v| <= 2; NaN fails the comparison
    if not np.abs(x, out=t).max() <= 2 * (1 << _LIMB):
        raise ArithmeticError("a summand has a part outside [-2, 2]")
    l = 0
    while True:
        np.trunc(x, out=t)
        if l < len(limbs):
            limbs[l] += t.sum(axis=1)
        else:
            limbs.append(t.sum(axis=1))
        l += 1
        x -= t
        if l >= _MIN_LIMBS and not x.any():
            return
        x *= _SCALE


def _row_sums(parts: np.ndarray) -> list:
    """The sum of each row of a 2-D complex128 array, as a list of complex.

    Each part is the exact sum rounded once, half to even: equal bit for bit
    to complex(fsum(row.real), fsum(row.imag)), an empty row 0j.  The limb
    sums of a row part are joined into one integer N and divided by 2^(26 L)
    once; CPython's int division rounds correctly, and N = 0 gives +0.0, as
    fsum gives for an exact zero.
    """
    parts = np.ascontiguousarray(parts, dtype=np.complex128)
    rows, n = parts.shape
    cols = min(n, _BLOCK // 2) or 1
    step = max(_BLOCK // (2 * cols), 1)
    size = 2 * min(step, rows) * cols
    x, t = np.empty(size), np.empty(size)
    out = []
    for r in range(0, rows, step):
        block = parts[r : r + step]
        h = len(block)
        # limbs[l]: the sum of limb l over each row, real parts then imaginary parts
        limbs = []
        for c in range(0, n, cols):
            part = block[:, c : c + cols]
            k = 2 * part.size
            _add_limb_sums(part, x[:k].reshape(2 * h, -1), t[:k].reshape(2 * h, -1), limbs)
        d = 1 << (_LIMB * len(limbs))
        vals = []
        # a row of no terms has no limbs and sums to 0 / 1
        for row in np.array(limbs, dtype=np.int64).reshape(len(limbs), 2 * h).T.tolist():
            total = 0
            for s in row:
                total = (total << _LIMB) + s
            vals.append(total / d)
        out += map(complex, vals[:h], vals[h:])
    return out


def _finish(parts: np.ndarray, term_count: int, excluded: int = 0) -> list:
    """A SumValue for each row of the 2-D complex128 array parts, each row term_count summands."""
    out = []
    for val in _row_sums(parts):
        # every summand is on the unit circle, so the triangle inequality is exact
        if abs(val) > term_count + 1e-6:
            raise ArithmeticError(f"|S| = {abs(val)} exceeds the {term_count} terms summed")
        out.append(SumValue(val, term_count, excluded))
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


def _chain_sums(p: int, rows: list, count: int) -> np.ndarray:
    """Residues of a batch of sums, as an int64 (len(rows), count) array.

    Row i is const + sum of c*m^x mod p over the (c, m) residue pairs of
    chains, for x = 1..count and (const, chains) = rows[i].  The chains are
    taken in rounds: round j is one `field.powers` call for the j-th chain of
    every row that has one.  Round 0's table becomes the batch's array, and
    the later rounds and the constants are added into it unreduced below
    INT64_MODULUS_LIMIT; above it, where two residues may pass 2^63, each
    round is reduced mod p before the next is added.  A batch holds one
    round's table at a time, so a long sum keeps the peak memory of one
    chain's table.
    """
    if count > TERM_LIMIT:
        raise GuardExceeded("terms", count, TERM_LIMIT)
    # round 0 covers every row unless some row has no chain
    z = None if all(chains for _, chains in rows) else np.zeros((len(rows), count), dtype=np.int64)
    # round j: the j-th chain of each row, None where a row has fewer chains
    for steps in zip_longest(*[chains for _, chains in rows]):
        held, cs, ms = [], [], []
        for i, step in enumerate(steps):
            if step:
                c, m = step
                held.append(i)
                cs.append(c * m % p)  # x starts at 1
                ms.append(m)
        t = powers(cs, ms, count, p)
        if z is None:
            z = t
            continue
        if len(held) == len(rows):
            z += t
        else:
            z[held] += t
        if p >= INT64_MODULUS_LIMIT:
            np.remainder(z, p, out=z)
        del t  # a round's table is freed before the next one is built
    consts = [const for const, _ in rows]
    if any(consts):
        z += np.array(consts, dtype=np.int64)[:, None]
    return np.remainder(z, p, out=z)


def _chain_sum(p: int, const: int, chains: list, count: int) -> np.ndarray:
    """const + sum of c*m^x mod p over the (c, m) residue pairs of chains, for x = 1..count, as int64."""
    return _chain_sums(p, [(const, chains)], count)[0]


def _orbit_chains(p: int, theta: int, f: SparsePolynomial) -> tuple:
    """(const, chains) of f(theta^x): one power chain per term."""
    return f.constant % p, [(c % p, pow(theta, n, p)) for n, c in f.terms]


def _orbit_residues(p: int, theta: int, f: SparsePolynomial, count: int) -> np.ndarray:
    """f(theta^x) mod p for x = 1..count as int64: one power chain per term."""
    return _chain_sum(p, *_orbit_chains(p, theta, f), count)


def _inversive_residues(p: int, theta: int, a: int, b: int, count: int) -> np.ndarray:
    """(a*theta^x + b)^-1 mod p for x = 1..count as int64, with -1 (never a residue) where a*theta^x + b = 0."""
    out = inverses(_chain_sum(p, b, [(a, theta)], count), p)
    out[out == 0] = -1  # the inverse of a nonzero residue is nonzero
    return out


def _characters(mod, residues: np.ndarray) -> np.ndarray:
    """exp(2*pi*i*z/p) for each residue z in [0, p), from the table when p has one."""
    tab = mod.char_table()
    if tab is not None:
        return _table_roots(tab, residues, mod.p)
    return unit_roots(residues, mod.p)


def _char_sum(mod, residues: np.ndarray, excluded: int = 0) -> SumValue:
    return _finish(_characters(mod, residues)[None], len(residues), excluded)[0]


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


def subgroup_sums(G, fs) -> list:
    """[subgroup_sum(G, f) for f in the sequence fs], bit for bit.

    The sums are evaluated in batches of at most TERM_LIMIT terms, so a batch
    holds no more memory than one sum may.  A batch makes one `field.powers`
    call for the j-th terms of all its polynomials, for each j, reduces their
    residues mod p once, gathers their characters at once and sums all the rows
    of characters in one limb pass (`_row_sums`).
    """
    p, tau = G.modulus.p, G.tau
    step = max(TERM_LIMIT // tau, 1)
    out = []
    for i in range(0, len(fs), step):
        residues = _chain_sums(p, [_orbit_chains(p, G.theta, f) for f in fs[i : i + step]], tau)
        out += _finish(_characters(G.modulus, residues), tau)
    return out


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
    return _finish(parts[None], tau)[0]


def kloosterman_subgroup_sum(G, a: int, b: int) -> SumValue:
    """K(G; a, b) = sum over g in G of exp(2*pi*i*(a*g + b*g^-1)/p)."""
    p = G.modulus.p
    theta_inv = pow(G.theta, G.tau - 1, p)
    residues = _chain_sum(p, 0, [(a % p, G.theta), (b % p, theta_inv)], G.tau)
    return _char_sum(G.modulus, residues)


def inversive_subgroup_sum(G, a: int, b: int) -> SumValue:
    """Sum over g in G with a*g + b != 0 of exp(2*pi*i*(a*g+b)^-1 / p).

    Terms with a*g + b = 0 are skipped and reported in the excluded count.
    """
    p = G.modulus.p
    terms = _inversive_residues(p, G.theta, a % p, b % p, G.tau)
    residues = terms[terms >= 0]
    return _char_sum(G.modulus, residues, len(terms) - len(residues))
