"""Time the moment routes and fit the costs that `moments._route` uses.

    PYTHONPATH=src python3 tools/route_costs.py [--repeat 5]

Each cell (p, tau, nvec, k) of a fixed ladder is timed on the histogram of
subgroup(p, tau), min of --repeat runs, on the orbit route
(`moments._orbit_count` with its moduli already found) and on the other route
that `moments._route` weighs against it: the quotient route
(`moments._quotient_count`) for r <= 2, the sparse route
(`convolution.self_convolution_power`, the same pairing engine over one-point
orbits, plus `sum_of_squares`) for r = 3.
Weighted least squares (each cell weighted by 1/time, so small cells count as
much as large ones) then fits

    orbit    = unit * gathers + table * tables + row * rows + pass_ * r * (n_moduli + 1)
    quotient = pair * pairs + step * r * (k - 1) + call
    sparse   = pair * r * pairs + step * (k - 1)

with the work terms of `moments._work`, and prints the costs in ns and in
orbit units, the unit of the route costs in `moments`.  The cells span both
sides of the switch between the routes for r = 1 and 2, and take both routes
for r = 3.
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
    (601, (10, 30, 120, 600), (1,), (3, 4)),
    (7561, (9, 27, 90, 270, 1080, 7560), (1,), (2, 3)),
    (31, (5, 15, 30), (1, 2), (2, 3)),
    (101, (10, 50, 100), (1, 3), (2, 3)),
    (277, (69, 276), (1, 2), (2, 3)),
    (421, (20, 60, 420), (1, 2), (2, 3)),
    (467, (233, 466), (1, 2), (2, 3)),
    (601, (10, 40, 600), (1, 2), (2, 3)),
    (937, (13, 39, 117, 936), (1, 3), (2, 3)),
    (1009, (144, 336, 1008), (1, 2), (2, 3)),
    (2003, (182, 1001, 2002), (1, 3), (2, 3)),
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
    print(f"# {'p':>5} {'tau':>4} {'nvec':>6} {'k':>2} {'pairs':>9} {'other_ms':>9} {'gathers':>10} {'moduli':>6}"
          f" {'orbit_ms':>8} {'picked':>8} {'faster':>8}")
    rows = {"quotient": ([], []), "sparse": ([], [])}
    orbit_rows, orbit_t = [], []
    for p, taus, nvec, ks in LADDER:
        r = len(nvec)
        for tau in taus:
            G = field.subgroup(p, tau)
            hist = moments._histogram(moments._power_vectors(G, nvec), p)
            for k in ks:
                pairs, gathers, tables, n_rows, n_moduli = moments._work(hist, k, p, r, G.cofactor, nvec)
                moduli = moments._moduli(p, moments._bound(hist, k, p, r))
                if r <= 2:
                    other, terms = "quotient", (pairs, r * (k - 1), 1)
                    t_other = _best(lambda: moments._quotient_count(hist, k, p, G.cofactor, nvec), args.repeat)
                else:
                    other, terms = "sparse", (r * pairs, k - 1)
                    t_other = _best(lambda: _sparse(hist, k, p, r), args.repeat)
                to = _best(lambda: moments._orbit_count(hist, k, p, r, moduli), args.repeat)
                rows[other][0].append(terms)
                rows[other][1].append(t_other)
                orbit_rows.append((gathers, tables, n_rows, r * (n_moduli + 1)))
                orbit_t.append(to)
                picked = moments._route(hist, k, p, r, G.cofactor, nvec)[0]
                faster = other if t_other <= to else "orbit"
                print(f"  {p:>5} {tau:>4} {','.join(map(str, nvec)):>6} {k:>2} {pairs:>9} {t_other * 1e3:>9.3f}"
                      f" {gathers:>10} {n_moduli:>6} {to * 1e3:>8.3f} {picked:>8} {faster:>8}")
    unit, table, row, pass_ = _fit(orbit_rows, orbit_t)
    costs = [("_ORBIT_PASS", pass_), ("_ORBIT_ROW", row), ("_ORBIT_TABLE", table)]
    pair, step, call = _fit(*rows["quotient"])
    costs += [("_QUOTIENT_PAIR", pair), ("_QUOTIENT_STEP", step), ("_QUOTIENT_CALL", call)]
    pair, step = _fit(*rows["sparse"])
    costs += [("_SPARSE_COST", pair), ("_SPARSE_STEP", step)]
    print(f"orbit unit (one int64 gather): {unit * 1e9:.2f} ns")
    for name, cost in costs:
        print(f"{name}: {cost * 1e9:.1f} ns = {cost / unit:.1f} orbit units")


if __name__ == "__main__":
    main()
