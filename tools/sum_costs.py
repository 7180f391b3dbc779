"""Time the residues, the character gather and the finish step of batches of character sums
(per-row math.fsum against the limb pass), the whole block pass with its traced peak, one
table build, tables of powers and the reduction of products.

    PYTHONPATH=src python3 tools/sum_costs.py [--repeat 7]

Each shape is one batch on one prime p: a list of cells (rows, terms), rows
sums of terms terms each.  They are a verify cell of 10 x 250 at p = 1009,
every cell of the theorem suite at p = 1201 (ten sums per tau | p - 1 above
p^(3/7 + 1/10), the batch one verify call makes), 1 x 1000, 1 x 2*10^4 and
1 x 2*10^5 at p = 982801, the criterion-13 sum and the long sums, and
1 x 2^22 at p = 167772161, above the table limit, where the sums once held
their terms whole.  Each row has one to three seeded power chains (c, m), as
the theorem suite's polynomials have one to three terms.  Four layers are
timed, min of --repeat runs each:

- chains: every block of `sums._residues` of the batch, its residues
  (`field.chain_sums` behind the term guard), in microseconds;
- gather: `field.unit_roots` of seeded random residues (the half table and
  its sign-bit fold up to the table limit), in ns per term;
- finish: per-row fsum, the accumulator the sums used before, against
  `sums._row_sums`, the one they use now.  The two must agree bit for bit,
  signs of zero included, or the script stops;
- sum: the whole pass of the batch (`sums._sums`: residues, characters and
  limb sums, block by block) in milliseconds, and its peak traced by
  tracemalloc in one more run, in bytes per term.  The peak of a long batch
  is a few blocks, so its bytes per term fall with its length.

A row times the build of the character table of TABLE_DEN from an empty
cache, min of --repeat builds, with the bytes it holds (TABLE_DEN//2 + 1 entries).
The `powers` rows time `field.powers(1, 2, n, q)`, one chain of n entries, min
of --repeat runs of `number` calls each, at the shapes of POWERS: the power
vectors of a lemma31 cell, the root tables of the orbit route and a block of
the log table.  The `reduce` rows time the two reductions of `field._reduce` on
n seeded entries below 2^62, modulo 982801: np.remainder and a - (a // q)*q.
"""

import argparse
import math
import platform
import time
import tracemalloc
from itertools import chain

import numpy as np

from weilsums import exponents, field, sums


def _theorem_cells(p: int) -> tuple:
    lo, _ = exponents.window_limits(p, "1/10")
    return tuple((10, tau) for tau in field.divisors(p - 1) if tau >= lo)


# (p, cells)
SHAPES = (
    (1009, ((10, 250),)),
    (1201, _theorem_cells(1201)),
    (982801, ((1, 1000),)),
    (982801, ((1, 20000),)),
    (982801, ((1, 200000),)),
    (167772161, ((1, 1 << 22),)),
)
# the table prime of the long sums
TABLE_DEN = 982801
# (q, n, number) of the one-chain tables of powers
POWERS = ((947, 43, 2000), (1009, 1008, 2000), (2003, 2002, 1000), (16777259, 1 << 20, 10))
# (n, number) of the reductions
REDUCE = ((64, 2000), (256, 2000), (512, 2000), (1024, 1000), (1 << 14, 100))


def _row(rng, p: int) -> list:
    """The chains (c, m) of one sum: one to three of them, and no constant."""
    return [tuple(v) for v in rng.integers(1, p, size=(rng.integers(1, 4), 2)).tolist()]


def _best(fn, repeat: int, number: int = 1) -> float:
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t) / number)
    return best


def _fsum(part: np.ndarray) -> float:
    """math.fsum of a 1-D float64 array, read in pieces so that no list holds all of it."""
    return math.fsum(chain.from_iterable(part[i : i + (1 << 16)].tolist() for i in range(0, len(part), 1 << 16)))


def _fsum_rows(parts: np.ndarray, lengths: list) -> list:
    rows = np.split(parts, np.cumsum(lengths)[:-1])
    return [complex(_fsum(row.real), _fsum(row.imag)) for row in rows]


def _bits(values: list) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _drain(blocks) -> None:
    for _ in blocks:
        pass


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="runs per layer and shape; the minimum is kept")
    args = ap.parse_args()
    print(f"# {platform.machine()} Python {platform.python_version()} numpy {np.__version__}")
    print(
        f"# {'cells':>5} {'rows':>4} {'terms':>7} {'p':>9} {'chains_us':>9} {'gather_ns':>9}"
        f" {'fsum_ms':>9} {'limbs_ms':>9} {'speedup':>7} {'sum_ms':>9} {'peak_B':>7}"
    )
    rng = np.random.default_rng(0)
    for p, cells in SHAPES:
        batch = [(terms, [_row(rng, p) for _ in range(rows)]) for rows, terms in cells]
        chains = _best(lambda: _drain(sums._residues(p, batch)), args.repeat)
        lengths = [terms for rows, terms in cells for _ in range(rows)]
        k = rng.integers(0, p, size=sum(lengths))
        parts = field.unit_roots(k, p)
        gather = _best(lambda: field.unit_roots(k, p), args.repeat)
        if _bits(sums._row_sums(parts, lengths)) != _bits(_fsum_rows(parts, lengths)):
            raise SystemExit(f"the limb pass differs from fsum on {cells} at p = {p}")
        old = _best(lambda: _fsum_rows(parts, lengths), args.repeat)
        new = _best(lambda: sums._row_sums(parts, lengths), args.repeat)
        del k, parts
        mod = field.prime_modulus(p)
        whole = _best(lambda: sums._sums(mod, batch, lengths), args.repeat)
        peak = _peak(lambda: sums._sums(mod, batch, lengths))
        print(
            f"  {len(cells):>5} {len(lengths):>4} {sum(lengths):>7} {p:>9} {chains * 1e6:>9.1f}"
            f" {gather / sum(lengths) * 1e9:>9.2f} {old * 1e3:>9.3f} {new * 1e3:>9.3f} {old / new:>6.1f}x"
            f" {whole * 1e3:>9.3f} {peak / sum(lengths):>7.1f}"
        )

    def build():
        field._unit_tables = field._TableCache()
        return field._unit_table(TABLE_DEN)

    build_s = _best(build, args.repeat)
    print(f"# table {'den':>7} {'build_ms':>9} {'bytes':>9}")
    print(f"  table {TABLE_DEN:>7} {build_s * 1e3:>9.3f} {build().nbytes:>9}")
    print(f"# powers {'q':>8} {'n':>8} {'powers_us':>9}")
    for q, n, number in POWERS:
        print(f"  powers {q:>8} {n:>8} {_best(lambda: field.powers(1, 2, n, q), args.repeat, number) * 1e6:>9.1f}")
    print(f"# reduce {'n':>8} {'remainder_us':>12} {'divide_us':>9}")
    for n, number in REDUCE:
        a = rng.integers(0, 1 << 62, size=n)
        out = np.empty_like(a)
        rem = _best(lambda: np.remainder(a, TABLE_DEN, out=out), args.repeat, number)

        def divide():
            np.floor_divide(a, TABLE_DEN, out=out)
            np.multiply(out, TABLE_DEN, out=out)
            np.subtract(a, out, out=out)

        print(f"  reduce {n:>8} {rem * 1e6:>12.2f} {_best(divide, args.repeat, number) * 1e6:>9.2f}")


if __name__ == "__main__":
    main()
