"""Time the generator streams layer by layer: per-row writers against the block writers,
and a Fermat pass or one pow per entry against the batch inversion.

    PYTHONPATH=src python3 tools/stream_costs.py [--repeat 3]

Each length n is the first n terms of the inversive sequence (theta^x + b)^-1
on the subgroup of order 4*10^6 of F_p, p = 24000001, with b chosen so that
term 7 is excluded.  Four layers are timed, min of --repeat runs each:

- csv: one write per row, f"{i},{'' if v is None else v}\\n" over the
  residues (the writer the streams used before), against `prng.write_csv`;
- u64: one struct.pack("<Q", v) and write per included term, against
  `prng.write_u64le`;
- inverses: t^(p-2) by `field.array_power` over the whole array (the route
  the inverses took before), against `field.inverses`;
- inv-big: min(n, BIG_TERMS) random residues below p = 2147483659 (one of
  them 0), where products of two residues pass int64: one pow per entry
  (the route the inverses took there before) against `field.inverses`,
  which forms its products as Python ints.  The cap keeps the reference's
  lists of Python ints near 100 MB; the row prints its own length.

The two sides must agree byte for byte, or the script stops.
"""

import argparse
import io
import platform
import struct
import time

import numpy as np

from weilsums import field, prng

P, TAU = 24000001, 4000000
LENGTHS = (20000, 40000, 4000000)
BIG_P, BIG_TERMS = 2147483659, 10**6


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _csv_rows(residues: tuple) -> bytes:
    out = io.StringIO()
    out.write("index,value\n")
    for i, v in enumerate(residues, start=1):
        out.write(f"{i},{'' if v is None else v}\n")
    return out.getvalue().encode()


def _u64_words(residues: tuple) -> bytes:
    out = io.BytesIO()
    for v in residues:
        if v is not None:
            out.write(struct.pack("<Q", v))
    return out.getvalue()


def _csv_blocks(seq) -> bytes:
    out = io.StringIO()
    prng.write_csv(seq, out)
    return out.getvalue().encode()


def _u64_blocks(seq) -> bytes:
    out = io.BytesIO()
    prng.write_u64le(seq, out)
    return out.getvalue()


def _fermat(t: np.ndarray, p: int) -> np.ndarray:
    out = field.array_power(t, p - 2, p)
    out[t == 0] = 0
    return out


def _pow_each(t: np.ndarray, p: int) -> np.ndarray:
    return np.array([pow(v, p - 2, p) for v in t.tolist()], dtype=np.int64)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per route and length; the minimum is kept")
    args = ap.parse_args()
    print(f"# {platform.machine()} Python {platform.python_version()} numpy {np.__version__}")
    print(f"# {'terms':>7} {'layer':<8} {'ref_ms':>9} {'new_ms':>9} {'speedup':>7}")
    G = field.subgroup(P, TAU)
    b = -pow(G.theta, 7, P) % P
    for n in LENGTHS:
        seq = prng.inversive_generator(G, 1, b, n)
        residues = seq.residues
        t = np.empty(n, dtype=np.int64)  # theta^x + b for x = 1..n, the blocks written into t
        for _ in field.chain_sums(P, [(n, [[(G.theta, G.theta), (b, 1)]])], out=t):
            pass
        big = np.random.default_rng(n).integers(1, BIG_P, min(n, BIG_TERMS))
        big[len(big) // 2] = 0
        # field.inverses overwrites its argument, so it inverts a copy
        layers = (
            (n, "csv", lambda: _csv_rows(residues), lambda: _csv_blocks(seq)),
            (n, "u64", lambda: _u64_words(residues), lambda: _u64_blocks(seq)),
            (n, "inverses", lambda: _fermat(t, P).tobytes(), lambda: field.inverses(t.copy(), P).tobytes()),
            (len(big), "inv-big", lambda: _pow_each(big, BIG_P).tobytes(), lambda: field.inverses(big.copy(), BIG_P).tobytes()),
        )
        for terms, name, old, new in layers:
            if old() != new():
                raise SystemExit(f"the {name} bytes differ at {terms} terms")
            ref = _best(old, args.repeat)
            got = _best(new, args.repeat)
            print(f"  {terms:>7} {name:<8} {ref * 1e3:>9.3f} {got * 1e3:>9.3f} {ref / got:>6.1f}x")


if __name__ == "__main__":
    main()
