"""Pseudorandom sequences from subgroup orbits: f(theta^x) and (a*theta^x + b)^-1.

A sequence keeps its terms as one read-only int64 array from the orbit to the
output bytes.  Excluded inversive terms (where a*theta^x + b = 0) are marked in
band with -1, which is never a residue (0 cannot mark them, since f(theta^x)
may be 0): CSV export leaves their value cell empty and u64-le export skips
them, so no fake residue enters the stream.  Both writers format blocks of
rows in numpy, one write per block.
"""

from dataclasses import dataclass

import numpy as np

from .sums import SparsePolynomial, _inversive_residues, _orbit_residues

# Rows per block of the writers, one write each.  Formatting a CSV block holds
# about four times its text (at most 28 characters a row), under 2 MB: the
# buffers stay in cache, and the writers' memory is flat whatever the length.
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True, eq=False)
class GeneratorSequence:
    """Emitted terms as a read-only int64 array: residues in [0, p), -1 at excluded terms."""

    p: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def __len__(self):
        return len(self.values)

    @property
    def residues(self) -> tuple:
        """The terms as a tuple of int with None at excluded terms, built when read."""
        return tuple(None if v < 0 else v for v in self.values.tolist())


def power_generator(G, f: SparsePolynomial, count: int) -> GeneratorSequence:
    """The sequence f(theta^x) mod p for x = 1..count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return GeneratorSequence(G.modulus.p, _orbit_residues(G.modulus.p, G.theta, f, count))


def inversive_generator(G, a: int, b: int, count: int) -> GeneratorSequence:
    """The sequence (a*theta^x + b)^-1 mod p for x = 1..count; a must be nonzero."""
    if count < 1:
        raise ValueError("count must be >= 1")
    p = G.modulus.p
    a %= p
    b %= p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    return GeneratorSequence(p, _inversive_residues(p, G.theta, a, b, count))


def _digits(x: np.ndarray, out: np.ndarray, keep: np.ndarray) -> None:
    """Write the decimal digits of each x right-aligned as ASCII in its row of the
    uint8 array out, and mark the columns they fill in keep (a negative x fills none).

    Column k from the right holds (x // 10^k) % 10, one division by 10 per
    column, and is kept where x // 10^k > 0 (for k = 0, where x >= 0): every
    column but the padding of leading zeros.
    """
    w = out.shape[1]
    # int32 divides faster, and a number of at most 9 digits fits it
    x = x.astype(np.int32 if w <= 9 else np.int64)
    q = np.empty_like(x)
    for k in range(w - 1, -1, -1):
        (np.greater_equal if k == w - 1 else np.greater)(x, 0, out=keep[:, k])
        np.floor_divide(x, 10, out=q)
        x -= q * 10
        np.add(x, ord("0"), out=out[:, k], casting="unsafe")
        x, q = q, x


def _csv_rows(first: int, values: np.ndarray) -> str:
    """The CSV rows first, first + 1, ... of values (an empty value cell where negative)."""
    n = len(values)
    top = int(values.max())
    wi = len(str(first + n - 1))
    wv = len(str(top)) if top >= 0 else 0
    # a row is its index in wi columns, a comma, its value in wv columns and a
    # newline, with the padding of both numbers dropped
    buf = np.empty((n, wi + wv + 2), dtype=np.uint8)
    keep = np.empty(buf.shape, dtype=bool)
    _digits(np.arange(first, first + n), buf[:, :wi], keep[:, :wi])
    _digits(values, buf[:, wi + 1 : -1], keep[:, wi + 1 : -1])
    buf[:, wi] = ord(",")
    buf[:, -1] = ord("\n")
    keep[:, wi] = keep[:, -1] = True
    return buf[keep].tobytes().decode("ascii")


def write_csv(seq: GeneratorSequence, stream):
    """index,value rows with LF endings; excluded terms get an empty value cell."""
    stream.write("index,value\n")
    for i in range(0, len(seq), _BLOCK_ROWS):
        stream.write(_csv_rows(i + 1, seq.values[i : i + _BLOCK_ROWS]))


def write_u64le(seq: GeneratorSequence, stream):
    """Included residues as packed little-endian u64 words (excluded terms skipped)."""
    for i in range(0, len(seq), _BLOCK_ROWS):
        block = seq.values[i : i + _BLOCK_ROWS]
        stream.write(block[block >= 0].astype("<u8").tobytes())
