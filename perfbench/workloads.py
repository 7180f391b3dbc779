"""Seeded argv lists for the benchmark workloads.

Each workload is a list of `weilsums` CLI argv lists.  The seed draws the
values of every call (polynomials, coefficients, counts, verify seeds, the
primes of the moment cells, the call order); the shape of a workload -- which
subcommand runs on which size class how often -- is fixed, so the cost of a
pass barely depends on the seed and medians from different seeds compare.

This module imports nothing from weilsums: generating the lists must not warm
any of the program's caches before the first measured call.
"""

import functools
import math
import random

WORKLOADS = ("moment-sweep", "sums-large", "sweep-mix")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    q = 3
    while q * q <= n:
        if n % q == 0:
            return False
        q += 2
    return True


@functools.cache
def _primes(lo: int, hi: int) -> tuple:
    return tuple(p for p in range(lo, hi + 1) if _is_prime(p))


def _divisors(n: int) -> list:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _poly(rng, p: int, tau: int, terms: int, constant: bool = False) -> str:
    exps = sorted(rng.sample(range(1, 3 * tau + 1), terms))
    parts = [f"{rng.randint(1, p - 1)}*x^{n}" for n in exps]
    if constant:
        parts.append(str(rng.randint(1, p - 1)))
    return "+".join(parts)


def _verify(suite: str, p: int, seed: int) -> list:
    return ["verify", "--suite", suite, "--pmin", str(p), "--pmax", str(p), "--seed", str(seed)]


# ---------------------------------------------------------------------------
# moment-sweep: the moment engine on both sides of the sparse/dense switch


def _moment_cell(rng, tau: int, k: int, r: int) -> list:
    """`moment --method both` on the order-tau subgroup of a seeded prime in 200..1000.

    The first exponent is coprime to tau, so every cell of one shape has
    tau distinct power vectors and the same cost whatever the seed picks.
    """
    p = rng.choice([q for q in _primes(200, 1000) if (q - 1) % tau == 0])
    e1 = rng.choice([n for n in range(1, 8) if math.gcd(n, tau) == 1])
    exps = [e1] + sorted(rng.sample(range(e1 + 1, 10), r - 1))
    return ["moment", "--p", str(p), "--tau", str(tau), "--k", str(k),
            "--exps", ",".join(map(str, exps)), "--method", "both"]


def _t3_cell(rng, orbit: int) -> list:
    """`t3` on a seeded p = s*orbit + 1 in 100..500: the histogram has orbit cells for every seed."""
    s = rng.choice([s for s in range(1, 40) if 100 <= s * orbit + 1 <= 500 and _is_prime(s * orbit + 1)])
    m, n = rng.choice(((1, 2), (2, 3), (1, 3), (3, 4)))
    return ["t3", "--p", str(s * orbit + 1), "--s", str(s), "--m", str(m), "--n", str(n)]


def _moment_sweep(rng, short: bool) -> list:
    calls = []
    # complete verify runs, one per prime; q3 and moments take no seed but
    # check themselves (exit 1 on a mismatch between the two routes).  The
    # lemma31 run keeps seed 0: its cost moves by a factor of 3 with the
    # seed, and at about 250 ms it would move the 90th percentile.
    q3_hi, mom_hi = (19, 13) if short else (31, 29)
    calls += [_verify("q3", p, 0) for p in _primes(11, q3_hi)]
    calls += [_verify("moments", p, 0) for p in _primes(11, mom_hi)]
    calls.append(["verify", "--suite", "lemma31", "--pmin", "11", "--pmax", "19" if short else "61",
                  "--seed", "0"])
    # seeded cross-checked cells on the sparse route.  The shape (tau, k, r)
    # of every cell is fixed, so the seed moves no call's cost.  The shapes
    # form two ladders of one cell per tau, whose costs rise in small
    # steps: 60 cells with k=2, r=2 and tau 10..69 (about 3 to 20 ms)
    # hold the median latency, and 29 cells with k=3, r=2 and tau 20..48
    # (about 20 to 250 ms) hold the 90th percentile.  A percentile that
    # falls inside a cluster of equal calls jumps when the host's share of
    # slow periods changes; on a ladder it moves with the mean speed.
    # 20 cheap r=1 cells (k=3, tau 6..25) keep the one-dimensional route.
    if short:
        calls += [_moment_cell(rng, 6, 3, 1), _moment_cell(rng, 8, 3, 2), _moment_cell(rng, 10, 2, 2)]
    else:
        calls += [_moment_cell(rng, tau, 3, 1) for tau in range(6, 26)]
        calls += [_moment_cell(rng, tau, 2, 2) for tau in range(10, 70)]
        calls += [_moment_cell(rng, tau, 3, 2) for tau in range(20, 49)]
    for orbit in (12,) if short else (16, 20, 24, 30):
        calls += [_t3_cell(rng, orbit) for _ in range(1 if short else 2)]
    # dense NTT route: r=1 with L = 16384, and r=2 with L = 1024 standing in
    # for the criterion-13 cell (same 2-D transform code, a tenth of the cost)
    dense1 = _primes(4481, 8191)
    for k in (3,) if short else (2, 2, 2, 3, 3, 3):
        p = rng.choice(dense1)
        e = rng.choice([n for n in range(1, 8) if math.gcd(n, p - 1) == 1])
        calls.append(["moment", "--p", str(p), "--tau", str(p - 1), "--k", str(k),
                      "--exps", str(e), "--method", "conv"])
    if not short:
        p = rng.choice(_primes(277, 509))
        exps = rng.choice(("1,2", "1,3", "2,3"))
        calls.append(["moment", "--p", str(p), "--tau", str(p - 1), "--k", "2", "--exps", exps,
                      "--method", "conv"])
    # spread each kind of call over the whole pass, as in the other workloads,
    # so that a percentile does not sample a single second of the run
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# sums-large: few long sums, character tables of about 40 MB each

# primes below 2**20 take the table path; 1995841 is above it (cmath.exp per term)
_TABLE_PRIMES = (982801, 960961, 1008001)
_NO_TABLE_PRIME = 1995841
_CRITERION13 = (1003001, 1000, "1*x^1+2*x^2+3*x^3")


def _tau_near(p: int, target: int) -> int:
    """The divisor of p-1 nearest to target (fixed, so a slot's cost does not depend on the seed)."""
    return min(_divisors(p - 1), key=lambda d: abs(d - target))


def _sum_calls(rng, p: int, targets: dict) -> list:
    """One call per (kind, target tau) slot on prime p."""
    calls = []
    for kind, taus in targets.items():
        for i, target in enumerate(taus):
            tau = _tau_near(p, target)
            head = ["--p", str(p), "--tau", str(tau)]
            if kind == "sum":
                poly = _poly(rng, p, tau, 1 + i % 3, constant=i % 2 == 1)
                calls.append(["sum", *head, "--poly", poly])
            elif kind == "twist":
                calls.append(["sum", *head, "--poly", _poly(rng, p, tau, 1 + i % 2),
                              "--twist", str(rng.randint(1, tau - 1))])
            elif kind == "incomplete":
                calls.append(["sum", *head, "--poly", _poly(rng, p, tau, 1 + i % 3),
                              "--incomplete", str(rng.randint(tau - tau // 8, tau))])
            elif kind == "kloosterman":
                calls.append(["kloosterman", *head, "--a", str(rng.randint(1, p - 1)),
                              "--b", str(rng.randint(1, p - 1))])
            elif kind == "inversive":
                calls.append(["inversive", *head, "--a", str(rng.randint(1, p - 1)),
                              "--b", str(rng.randint(0, p - 1))])
            elif kind == "prng-csv":
                calls.append(["prng", *head, "--poly", _poly(rng, p, tau, 1 + i % 2),
                              "--count", str(rng.randint(tau - tau // 8, tau))])
            elif kind == "prng-u64":
                a, b = rng.randint(1, p - 1), rng.randint(0, p - 1)
                calls.append(["prng", *head, "--inversive", f"{a},{b}",
                              "--count", str(rng.randint(tau - tau // 8, tau)),
                              "--format", "u64-le", "--out", f"seq{len(calls)}-{p}.bin"])
    return calls


def _sums_large(rng, short: bool) -> list:
    calls = []
    if short:
        kinds = ("sum", "twist", "incomplete", "kloosterman", "inversive", "prng-csv", "prng-u64")
        calls += _sum_calls(rng, _TABLE_PRIMES[0], {k: (2000,) for k in kinds})
        calls += _sum_calls(rng, _NO_TABLE_PRIME, {"sum": (2000,)})
    else:
        table = {
            "sum": (20000, 20000, 25000, 30000, 40000, 50000, 60000, 200000),
            "twist": (20000, 25000, 40000),
            "incomplete": (20000, 30000, 80000),
            "kloosterman": (20000, 25000, 50000),
            "inversive": (20000, 30000),
            "prng-csv": (20000, 40000),
            "prng-u64": (20000, 50000),
        }
        for p in _TABLE_PRIMES:
            calls += _sum_calls(rng, p, table)
        calls += _sum_calls(rng, _NO_TABLE_PRIME, {
            "sum": (20000, 25000, 30000, 40000), "twist": (20000,), "incomplete": (20000,),
            "kloosterman": (25000,), "inversive": (20000,),
        })
    # the criterion-13 subgroup: more than half of all calls, so the median
    # latency is this cluster of equal-cost sums and not a boundary between
    # two sizes of long sum
    p, tau, poly = _CRITERION13
    calls.append(["sum", "--p", str(p), "--tau", str(tau), "--poly", poly])
    for _ in range(2 if short else 125):
        calls.append(["sum", "--p", str(p), "--tau", str(tau), "--poly", _poly(rng, p, tau, 3)])
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# sweep-mix: many short verify calls, one per prime and suite


_SWEEP_RANGES = {
    # suite: (pmin, pmax) of the primes, one verify call each
    "theorem": (1000, 1300),
    "binomial": (1000, 1800),
    "monomial": (1000, 1800),
    "identity": (100, 160),
    "gauss": (1000, 2200),
    "curve": (300, 380),
}
_SWEEP_SHORT = {
    "theorem": (1009, 1013),
    "binomial": (1009, 1013),
    "monomial": (1009, 1013),
    "identity": (101, 103),
    "gauss": (1009, 1013),
    "curve": (307, 307),
}


def _sweep_mix(rng, short: bool) -> list:
    calls = []
    for suite, (lo, hi) in (_SWEEP_SHORT if short else _SWEEP_RANGES).items():
        calls += [_verify(suite, p, rng.randrange(10**6)) for p in _primes(lo, hi)]
    rng.shuffle(calls)
    return calls


_BUILDERS = {"moment-sweep": _moment_sweep, "sums-large": _sums_large, "sweep-mix": _sweep_mix}


def generate(workload: str, seed: int, short: bool = False) -> list:
    """The argv lists of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, short)
