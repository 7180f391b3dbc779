"""Time the sparse and orbit moment routes and fit the costs that `moments._route` uses.

    PYTHONPATH=src python3 tools/route_costs.py [--repeat 5]

Each cell (p, tau, nvec, k) of a fixed ladder is timed on both routes, min of
--repeat runs, on the histogram of subgroup(p, tau): the sparse route as
`convolution.self_convolution_power` plus `sum_of_squares`, the orbit route as
`moments._orbit_count` with its moduli already found.  Weighted least squares
(each cell weighted by 1/time, so small cells count as much as large ones)
then fits

    orbit  = unit * gathers + row * rows + pass_ * r * (n_moduli + 1)
    sparse = pair * r^2 * pairs + step * (k - 1)

with the work terms of `moments._work`, and prints the costs in ns and in
orbit units, the unit of `_SPARSE_COST`, `_SPARSE_STEP`, `_ORBIT_ROW` and
`_ORBIT_PASS`.
The cells span both sides of the switch between the routes, for r = 1 and 2,
and take both routes for r = 3.
"""

import argparse
import platform
import time

import numpy as np

from weilsums import convolution, field, moments

# (p, tau values, nvec, k values)
LADDER = (
    (13, (12,), (1,), (2, 3)),
    (29, (28,), (1,), (2, 3)),
    (601, (10, 30, 60, 120), (1,), (3, 4)),
    (7561, (6, 9, 15, 21, 27, 35, 45, 63, 90, 135, 189, 270), (1,), (2, 3)),
    (31, (5, 10, 15, 30), (1, 2), (2, 3)),
    (101, (10, 20, 50), (1, 3), (2, 3)),
    (421, (20, 30, 42, 60, 84), (1, 2), (2, 3)),
    (601, (10, 20, 30, 40, 60), (1, 2), (2, 3)),
    (937, (13, 26, 39, 52), (1, 3), (2, 3)),
    (277, (69, 138, 276), (1, 2), (2,)),
    (467, (233, 466), (1, 2), (2,)),
    (1009, (126, 144), (1, 2), (3,)),
    (1009, (504, 1008), (1, 2), (2,)),
    (2003, (143, 154, 182), (1, 3), (3,)),
    (2003, (1001, 2002), (1, 3), (2,)),
    (31, (15, 30), (1, 2, 3), (2, 3)),
    (101, (25, 50), (1, 2, 3), (2, 3, 4)),
    (211, (42,), (1, 2, 3), (2, 3)),
)


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _sparse(hist: tuple, k: int, p: int, r: int) -> int:
    return convolution.sum_of_squares(convolution.self_convolution_power(hist, k, p, r))


def _fit(rows: list, times: list) -> np.ndarray:
    """Least-squares coefficients of times ~ rows, each equation divided by its time."""
    a, t = np.array(rows, dtype=float), np.array(times)
    return np.linalg.lstsq(a / t[:, None], np.ones(len(t)), rcond=None)[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="runs per route and cell; the minimum is kept")
    args = ap.parse_args()
    print(f"# {platform.machine()} Python {platform.python_version()} numpy {np.__version__}")
    print(f"# {'p':>5} {'tau':>4} {'nvec':>6} {'k':>2} {'pairs':>9} {'sparse_ms':>9} {'gathers':>10} {'moduli':>6}"
          f" {'orbit_ms':>8} {'picked':>6} {'faster':>6}")
    sparse_rows, sparse_t, orbit_rows, orbit_t = [], [], [], []
    for p, taus, nvec, ks in LADDER:
        r = len(nvec)
        for tau in taus:
            hist = moments._histogram(moments._power_vectors(field.subgroup(p, tau), nvec), p)
            for k in ks:
                pairs, gathers, rows, n_moduli = moments._work(hist, k, p, r)
                moduli = moments._moduli(p, moments._bound(hist, k, p, r))
                ts = _best(lambda: _sparse(hist, k, p, r), args.repeat)
                to = _best(lambda: moments._orbit_count(hist, k, p, r, moduli), args.repeat)
                sparse_rows.append((r * r * pairs, k - 1))
                sparse_t.append(ts)
                orbit_rows.append((gathers, rows, r * (n_moduli + 1)))
                orbit_t.append(to)
                picked = "sparse" if moments._route(hist, k, p, r) is None else "orbit"
                faster = "sparse" if ts <= to else "orbit"
                print(f"  {p:>5} {tau:>4} {','.join(map(str, nvec)):>6} {k:>2} {pairs:>9} {ts * 1e3:>9.3f}"
                      f" {gathers:>10} {n_moduli:>6} {to * 1e3:>8.3f} {picked:>6} {faster:>6}")
    unit, row, pass_ = _fit(orbit_rows, orbit_t)
    pair, step = _fit(sparse_rows, sparse_t)
    print(f"orbit unit (one int64 gather): {unit * 1e9:.2f} ns")
    for name, cost in (("_ORBIT_PASS", pass_), ("_ORBIT_ROW", row), ("_SPARSE_COST (pair / r^2)", pair),
                       ("_SPARSE_STEP", step)):
        print(f"{name}: {cost * 1e9:.1f} ns = {cost / unit:.1f} orbit units")


if __name__ == "__main__":
    main()
