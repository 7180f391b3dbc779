"""Exponential sum evaluators over F_p and its multiplicative subgroups.

All sums accumulate real and imaginary parts through math.fsum, so the
rounding error is one ulp of the exact value regardless of term count.
"""

import re
from dataclasses import dataclass
from math import fsum

from .field import prime_modulus, unit_root

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


def _finish(parts: list, term_count: int, excluded: int = 0) -> SumValue:
    val = complex(fsum(z.real for z in parts), fsum(z.imag for z in parts))
    # every summand is on the unit circle, so the triangle inequality is exact
    if abs(val) > term_count + 1e-6:
        raise ArithmeticError(f"|S| = {abs(val)} exceeds the {term_count} terms summed")
    return SumValue(val, term_count, excluded)


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


def _orbit_residues(p: int, theta: int, f: SparsePolynomial, count: int) -> list:
    """f(theta^x) mod p for x = 1..count, recycling power chains per term."""
    const = f.constant % p
    if not f.terms:
        return [const] * count
    muls = [pow(theta, n, p) for n, _ in f.terms]
    coeffs = [c % p for _, c in f.terms]
    out = []
    append = out.append
    if len(muls) == 1:
        m0, c0 = muls[0], coeffs[0]
        w = 1
        for _ in range(count):
            w = w * m0 % p
            append((c0 * w + const) % p)
        return out
    pows = [1] * len(muls)
    rng = range(len(muls))
    for _ in range(count):
        z = const
        for i in rng:
            w = pows[i] * muls[i] % p
            pows[i] = w
            z += coeffs[i] * w
        append(z % p)
    return out


def _inversive_residues(p: int, theta: int, a: int, b: int, count: int) -> list:
    """(a*theta^x + b)^-1 mod p for x = 1..count, with None where a*theta^x + b = 0."""
    out = []
    g = 1
    for _ in range(count):
        g = g * theta % p
        t = (a * g + b) % p
        out.append(None if t == 0 else pow(t, p - 2, p))
    return out


def _characters(mod, residues) -> list:
    """exp(2*pi*i*z/p) for each residue z in [0, p), from the table when p has one."""
    tab = mod.char_table()
    if tab is not None:
        return [tab[z] for z in residues]
    char = mod.character
    return [char(z) for z in residues]


def _char_sum(mod, residues, excluded: int = 0) -> SumValue:
    return _finish(_characters(mod, residues), len(residues), excluded)


def complete_sum(p, f: SparsePolynomial) -> SumValue:
    """S(f) = sum over all x in F_p of exp(2*pi*i*f(x)/p)."""
    mod = prime_modulus(p)
    residues = [f.evaluate(x, mod.p) for x in range(mod.p)]
    return _char_sum(mod, residues)


def subgroup_sum(G, f: SparsePolynomial) -> SumValue:
    """S(G; f) = sum over g in G of exp(2*pi*i*f(g)/p)."""
    residues = _orbit_residues(G.modulus.p, G.theta, f, G.tau)
    return _char_sum(G.modulus, residues)


def incomplete_subgroup_sum(G, f: SparsePolynomial, count: int) -> SumValue:
    """Sum over the first count elements theta^1..theta^count of the generator orbit."""
    if count < 0 or count > G.tau:
        raise ValueError(f"count must lie in [0, tau], got {count}")
    residues = _orbit_residues(G.modulus.p, G.theta, f, count)
    return _char_sum(G.modulus, residues)


def twisted_sum(G, f: SparsePolynomial, b: int) -> SumValue:
    """Sum over x = 1..tau of exp(2*pi*i*f(theta^x)/p) * exp(2*pi*i*b*x/tau)."""
    mod = G.modulus
    tau = G.tau
    residues = _orbit_residues(mod.p, G.theta, f, tau)
    b %= tau
    parts = [c * unit_root(b * x, tau) for x, c in enumerate(_characters(mod, residues), start=1)]
    return _finish(parts, tau)


def kloosterman_subgroup_sum(G, a: int, b: int) -> SumValue:
    """K(G; a, b) = sum over g in G of exp(2*pi*i*(a*g + b*g^-1)/p)."""
    mod = G.modulus
    p = mod.p
    a %= p
    b %= p
    theta = G.theta
    theta_inv = pow(theta, G.tau - 1, p)
    residues = []
    u = v = 1
    for _ in range(G.tau):
        u = u * theta % p
        v = v * theta_inv % p
        residues.append((a * u + b * v) % p)
    return _char_sum(mod, residues)


def inversive_subgroup_sum(G, a: int, b: int) -> SumValue:
    """Sum over g in G with a*g + b != 0 of exp(2*pi*i*(a*g+b)^-1 / p).

    Terms with a*g + b = 0 are skipped and reported in the excluded count.
    """
    p = G.modulus.p
    terms = _inversive_residues(p, G.theta, a % p, b % p, G.tau)
    residues = [z for z in terms if z is not None]
    return _char_sum(G.modulus, residues, len(terms) - len(residues))
