"""Pseudorandom sequences from subgroup orbits: f(theta^x) and (a*theta^x + b)^-1.

Excluded inversive terms (where a*theta^x + b = 0) are carried as None, an
out-of-band sentinel: CSV export leaves their value cell empty and u64-le
export skips them, so no fake residue enters the stream.
"""

import struct
from dataclasses import dataclass

from .sums import SparsePolynomial, _inversive_residues, _orbit_residues


@dataclass(frozen=True)
class GeneratorSequence:
    """Emitted residues in [0, p), with None marking excluded terms."""

    p: int
    residues: tuple

    def __len__(self):
        return len(self.residues)

    def included(self) -> list:
        return [v for v in self.residues if v is not None]


def power_generator(G, f: SparsePolynomial, count: int) -> GeneratorSequence:
    """The sequence f(theta^x) mod p for x = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    residues = _orbit_residues(G.modulus.p, G.theta, f, count)
    return GeneratorSequence(G.modulus.p, tuple(residues.tolist()))


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
    # 0 is never an inverse: it marks the excluded terms
    return GeneratorSequence(p, tuple(v or None for v in residues.tolist()))


def write_csv(seq: GeneratorSequence, stream):
    """index,value rows with LF endings; excluded terms get an empty value cell."""
    stream.write("index,value\n")
    for i, v in enumerate(seq.residues, start=1):
        stream.write(f"{i},{'' if v is None else v}\n")


def write_u64le(seq: GeneratorSequence, stream):
    """Included residues as packed little-endian u64 words (excluded terms skipped)."""
    for v in seq.included():
        stream.write(struct.pack("<Q", v))
