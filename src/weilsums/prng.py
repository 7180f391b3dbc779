"""Pseudorandom sequences from subgroup orbits: f(theta^x) and (a*theta^x + b)^-1.

Excluded inversive terms (where a*theta^x + b = 0) are carried as None, an
out-of-band sentinel, so downstream statistics skip them instead of folding a
fake residue into the distribution.
"""

import struct
from dataclasses import dataclass

from .field import prime_modulus
from .sums import SparsePolynomial, _char_sum, _inversive_residues, _orbit_residues


@dataclass(frozen=True)
class GeneratorSequence:
    """Emitted residues in [0, p), with None marking excluded terms."""

    p: int
    period: int
    source: str
    residues: tuple

    def __len__(self):
        return len(self.residues)

    @property
    def excluded_count(self) -> int:
        return sum(1 for v in self.residues if v is None)

    def included(self) -> list:
        return [v for v in self.residues if v is not None]


def power_generator(G, f: SparsePolynomial, count: int) -> GeneratorSequence:
    """The sequence f(theta^x) mod p for x = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    residues = _orbit_residues(G.modulus.p, G.theta, f, count)
    return GeneratorSequence(G.modulus.p, G.tau, f"power f={f.format()}", tuple(residues))


def inversive_generator(G, a: int, b: int, count: int) -> GeneratorSequence:
    """The sequence (a*theta^x + b)^-1 mod p for x = 1..count; a must be nonzero."""
    if count < 1:
        raise ValueError("count must be >= 1")
    p = G.modulus.p
    a %= p
    b %= p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    residues = _inversive_residues(p, G.theta, a, b, count)
    return GeneratorSequence(p, G.tau, f"inversive a={a} b={b}", tuple(residues))


@dataclass(frozen=True)
class EquidistributionReport:
    """Normalized character-sum statistics of a residue sequence."""

    harmonics: int
    per_harmonic: tuple  # |sum_x e_p(h*s_x)| / N for h = 1..H
    max_harmonic: float
    serial_correlation: float
    included_count: int
    excluded_count: int


def equidistribution_report(seq: GeneratorSequence, harmonics: int = 10) -> EquidistributionReport:
    """Max normalized character sum over h = 1..harmonics, plus a lag-1 statistic.

    Purely descriptive.  Excluded terms are skipped: the harmonics run over
    the included terms, and the lag-1 statistic over the pairs of adjacent
    terms that are both included (0.0 when there are none).
    """
    if harmonics < 1:
        raise ValueError("harmonics must be >= 1")
    mod = prime_modulus(seq.p)
    p = mod.p
    vals = seq.included()
    n = len(vals)
    if n == 0:
        raise ValueError("sequence has no included terms")
    per = [_char_sum(mod, [h * v % p for v in vals]).magnitude / n for h in range(1, harmonics + 1)]
    res = seq.residues
    lags = [(y - x) % p for x, y in zip(res, res[1:]) if x is not None and y is not None]
    serial = _char_sum(mod, lags).magnitude / len(lags) if lags else 0.0
    return EquidistributionReport(
        harmonics, tuple(per), max(per), serial, n, seq.excluded_count
    )


def write_csv(seq: GeneratorSequence, stream):
    """index,value rows with LF endings; excluded terms get an empty value cell."""
    stream.write("index,value\n")
    for i, v in enumerate(seq.residues, start=1):
        stream.write(f"{i},{'' if v is None else v}\n")


def write_u64le(seq: GeneratorSequence, stream):
    """Included residues as packed little-endian u64 words (excluded terms skipped)."""
    for v in seq.included():
        stream.write(struct.pack("<Q", v))
