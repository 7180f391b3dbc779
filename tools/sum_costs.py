"""Time the character gather and the finish step of the character sums (per-row math.fsum against
the limb pass), and one table build.

    PYTHONPATH=src python3 tools/sum_costs.py [--repeat 7]

Each shape (rows, terms) is a batch of character rows gathered from the table
of p-th roots of unity at seeded random residues: 10 x 250 at p = 1009, the
cells of the verify suites, and 1 x 1000, 1 x 2*10^4 and 1 x 2*10^5 at
p = 982801, the criterion-13 sum and the long sums.  The gather,
`field.unit_roots` of the residues (the half table and its sign-bit fold up to
the table limit), is timed in ns per term, min of --repeat runs.  Both finish
routes are timed, min of --repeat runs: per-row fsum over tolist(), the
accumulator the sums used before, and `sums._row_sums`, the one they use now.  The two must agree
bit for bit, signs of zero included, or the script stops.

A last row times the build of the character table of TABLE_DEN from an empty
cache, min of --repeat builds, with the bytes it holds (TABLE_DEN//2 + 1 entries).
"""

import argparse
import math
import platform
import time

import numpy as np

from weilsums import field, sums

# (rows, terms, p)
SHAPES = ((10, 250, 1009), (1, 1000, 982801), (1, 20000, 982801), (1, 200000, 982801))
# the table prime of the long sums
TABLE_DEN = 982801


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _fsum_rows(parts: np.ndarray) -> list:
    return [complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist())) for row in parts]


def _bits(values: list) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in values]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="runs per route and shape; the minimum is kept")
    args = ap.parse_args()
    print(f"# {platform.machine()} Python {platform.python_version()} numpy {np.__version__}")
    print(f"# {'rows':>4} {'terms':>7} {'p':>7} {'gather_ns':>9} {'fsum_ms':>9} {'limbs_ms':>9} {'speedup':>7}")
    rng = np.random.default_rng(0)
    for rows, terms, p in SHAPES:
        k = rng.integers(0, p, size=(rows, terms))
        parts = field.unit_roots(k, p)
        gather = _best(lambda: field.unit_roots(k, p), args.repeat)
        if _bits(sums._row_sums(parts)) != _bits(_fsum_rows(parts)):
            raise SystemExit(f"the limb pass differs from fsum at {rows} x {terms}, p = {p}")
        old = _best(lambda: _fsum_rows(parts), args.repeat)
        new = _best(lambda: sums._row_sums(parts), args.repeat)
        print(f"  {rows:>4} {terms:>7} {p:>7} {gather / k.size * 1e9:>9.2f} {old * 1e3:>9.3f} {new * 1e3:>9.3f} {old / new:>6.1f}x")

    def build():
        field._unit_tables.pop(TABLE_DEN, None)
        return field._unit_table(TABLE_DEN)

    build_s = _best(build, args.repeat)
    print(f"# table {'den':>7} {'build_ms':>9} {'bytes':>9}")
    print(f"  table {TABLE_DEN:>7} {build_s * 1e3:>9.3f} {build().nbytes:>9}")


if __name__ == "__main__":
    main()
