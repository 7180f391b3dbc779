"""Command-line front end: sum evaluation, moment counting, curve analysis,
exponent tables, sequence export, and the bound-verification sweep harness.

Every subcommand is deterministic: identical arguments (including --seed)
produce byte-identical output.  Exit codes: 0 success, 1 assertion failure,
2 usage or guard error.
"""

import argparse
import contextlib
import functools
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, fields
from itertools import groupby

from . import curves, exponents, moments, prng, sums
from .field import GuardExceeded, divisors, is_prime, subgroup
from .sums import SparsePolynomial


def _primes_in(lo: int, hi: int) -> list:
    return [p for p in range(max(2, lo), hi + 1) if is_prime(p)]


def _random_sparse(rng, p: int, r: int, max_exp: int) -> SparsePolynomial:
    exps = sorted(rng.sample(range(1, max(max_exp, r) + 1), r))
    return SparsePolynomial(tuple((n, rng.randint(1, p - 1)) for n in exps))


@dataclass(frozen=True)
class ReportRow:
    suite: str
    p: int
    tau: object  # int, or None when the row has no subgroup
    params: str
    measured: object  # int or float
    bound: object
    ratio: float
    in_admissible_range: object  # bool or None
    passed: bool

    def as_csv(self) -> str:
        # in every row p is an int, ratio a float and passed a bool; the other cells vary in type
        return (
            f"{self.suite},{self.p},{_cell(self.tau)},{self.params},{_cell(self.measured)},{_cell(self.bound)},"
            f"{self.ratio:.6g},{_cell(self.in_admissible_range)},{'true' if self.passed else 'false'}"
        )

    def as_json(self) -> str:
        return json.dumps({**asdict(self), "ratio": float(format(self.ratio, ".6g"))}, sort_keys=True)


_FIELDS = tuple(f.name for f in fields(ReportRow))


def _cell(x, spec: str = ".12g") -> str:
    """Text of one output value: '' for None, true/false, exact ints, floats to `spec`."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, str)):
        return str(x)
    return format(x, spec)


# ---------------------------------------------------------------------------
# verify suites; each yields ReportRow in canonical (p, tau, params) order


def _cells(args, keep=None):
    """Yield (p, tau, G, window) for each prime p in [pmin, pmax] and divisor tau of p-1.

    Cells whose admissible window fails `keep` are skipped before G is built.
    The window of each prime is decided once (`exponents.window_limits`), and
    each tau compared with its limits.
    """
    for p in _primes_in(args.pmin, args.pmax):
        lo, hi = exponents.window_limits(p, args.eps)
        for tau in divisors(p - 1):
            window = exponents.AdmissibleRange(p, tau, args.eps, tau >= lo, tau <= hi)
            if keep is None or keep(window):
                yield p, tau, subgroup(p, tau), window


def _suite_gauss(args, rng):
    f = SparsePolynomial(((2, 1),))
    for p in _primes_in(max(3, args.pmin), args.pmax):
        s = sums.complete_sum(p, f)
        bound = math.sqrt(p)
        passed = abs(s.magnitude - bound) <= 1e-9 * bound
        yield ReportRow("gauss", p, None, "f=1*x^2", s.magnitude, bound, s.magnitude / bound, None, passed)


def _suite_identity(args, rng):
    """S(G; f) against (tau/(p-1)) S(F_p*; f(X^s)), s = (p-1)/tau, for twenty drawn f per cell.

    A prime's polynomials are drawn first, and both sides of all its cells
    summed in one `subgroup_sums` call.  A prime whose full-group sum would pass
    the term guard is refused before anything is drawn or summed.
    """
    for p, cells in groupby(_cells(args), key=lambda cell: cell[0]):
        if p - 1 > sums.SUM_TERM_LIMIT:
            raise GuardExceeded("terms", p - 1, sums.SUM_TERM_LIMIT)
        cells = [
            (tau, G, win, [_random_sparse(rng, p, rng.randint(1, 3), 3 * tau + 3) for _ in range(20)])
            for _, tau, G, win in cells
        ]
        full = subgroup(p, p - 1)
        composed = [
            (full, [SparsePolynomial(tuple((n * G.cofactor, c) for n, c in f.terms), f.constant) for f in fs])
            for _, G, _, fs in cells
        ]
        values = sums.subgroup_sums([(G, fs) for _, G, _, fs in cells] + composed)
        for (tau, G, win, fs), lhs, rhs in zip(cells, values, values[len(cells) :]):
            for i, (f, a, b) in enumerate(zip(fs, lhs, rhs)):
                diff = abs(a.value - b.value * tau / (p - 1))
                bound = 1e-8 * p
                params = f"i={i};f={f.format()}"
                yield ReportRow("identity", p, tau, params, diff, bound, diff / bound, win.inside, diff <= bound)


_MOMENT_EXPS = ((1,), (1, 2), (2, 3), (1, 3))


def _suite_moments(args, rng):
    for p, tau, G, win in _cells(args):
        for k in (2, 3):
            for nvec in _MOMENT_EXPS:
                qb = moments.q_bruteforce(G, nvec, k)
                qc = moments.q_convolution(G, nvec, k)
                nstr = "-".join(str(n) for n in nvec)
                yield ReportRow("moments", p, tau, f"k={k};n={nstr}", qc, qb, qc / qb, win.inside, qc == qb)


def _suite_lemma31(args, rng):
    pr = _primes_in(args.pmin, args.pmax)
    if not pr:
        return
    for i in range(100):
        p = rng.choice(pr)
        tau = rng.choice(divisors(p - 1))
        G = subgroup(p, tau)
        k = rng.choice((2, 3))
        l = rng.choice((2, 3))
        f = _random_sparse(rng, p, rng.choice((1, 2)), 10)
        rep = moments.verify_moment_inequality(G, f, k, l)
        rhs = float(rep.rhs)
        win = exponents.admissible_range(p, tau, args.eps)
        params = f"i={i};k={k};l={l};f={f.format()}"
        yield ReportRow("lemma31", p, tau, params, rep.lhs, rhs, rep.lhs / rhs, win.inside, rep.holds)


def _suite_q3(args, rng):
    """T_3(p; s, m, n) against s^6 Q_3(G; (m, n)) for every subgroup G of order tau = (p-1)/s.

    Up to tau^3 = 2^20 tuples Q_3 comes from enumeration, a route independent of
    t3_count's; above that from q_second_route, the other of the quotient and
    orbit routes from the one q_convolution takes on G.  t3_count(p, s, m, n) is
    q_convolution on F_p* with exponents (s m, s n): at s = 1 the same cell as
    G's, and at s > 1 a cell with the same orbits, on which _route picks the
    same route (on every row with p < 3000).  So each row compares two routes,
    except where the orbit route and enumeration both refuse G's cell (p above
    about 10^4, s > 1 and tau^3 > 10^8), which takes the quotient route twice.
    """
    for p, tau, G, win in _cells(args):
        s = G.cofactor
        q3 = moments.q_bruteforce if tau**3 <= 2**20 else moments.q_second_route
        for m, n in ((1, 2), (2, 3)):
            t3v = moments.t3_count(p, s, m, n)
            expected = s**6 * q3(G, (m, n), 3)
            yield ReportRow(
                "q3", p, tau, f"m={m};n={n};s={s}", t3v, expected, t3v / expected, win.inside, t3v == expected
            )


def _soft_suite(suite: str, keep, draw, bound):
    """A soft suite: ten drawn polynomials f per kept cell, |S(G; f)| against bound(p, tau, f, eps).

    The polynomials of all a prime's kept cells are drawn first, and summed in
    one `subgroup_sums` call, one batch over every subgroup of the prime;
    bounds and sums draw nothing from rng, so the draws keep their order.  A
    row passes when its ratio is at most the ceiling.
    """

    def run(args, rng):
        for p, cells in groupby(_cells(args, keep), key=lambda cell: cell[0]):
            cells = [(tau, G, win, [draw(rng, p, tau) for _ in range(10)]) for _, tau, G, win in cells]
            for (tau, G, win, fs), values in zip(cells, sums.subgroup_sums([(G, fs) for _, G, _, fs in cells])):
                for i, (f, s) in enumerate(zip(fs, values)):
                    b = bound(p, tau, f, args.eps)
                    mag = s.magnitude
                    ratio = mag / b
                    params = f"i={i};f={f.format()}"
                    yield ReportRow(suite, p, tau, params, mag, b, ratio, win.inside, ratio <= args.ceiling)

    return run


def _draw_binomial(rng, p: int, tau: int) -> SparsePolynomial:
    m = rng.randint(1, 3 * tau)
    n = rng.randint(m + 1, 3 * tau + 1)
    return SparsePolynomial(((m, rng.randint(1, p - 1)), (n, rng.randint(1, p - 1))))


_CURVE_CELLS = ((1, 2, 1), (1, 2, 2), (2, 3, 1), (2, 3, 2), (1, 3, 1), (1, 3, 2))


def _suite_curve(args, rng):
    for p in _primes_in(args.pmin, args.pmax):
        for m, n, s in _CURVE_CELLS:
            if (m * n * (n - m)) % p == 0:
                continue
            if s * m * n >= p:
                continue
            found = 0
            tries = 0
            while found < 5 and tries < 400:
                tries += 1
                A = rng.randint(0, p - 1)
                B = rng.randint(0, p - 1)
                rep = curves.check_curve_bound(curves.CurveSpec(p, m, n, s, A, B))
                if rep.delta == 0:
                    continue
                found += 1
                params = f"m={m};n={n};s={s};A={A};B={B}"
                yield ReportRow("curve", p, None, params, rep.count, rep.bound, rep.ratio, None, rep.holds is True)


_SUITES = {
    "gauss": _suite_gauss,
    "identity": _suite_identity,
    "moments": _suite_moments,
    "lemma31": _suite_lemma31,
    "q3": _suite_q3,
    "binomial": _soft_suite(
        "binomial", lambda w: w.inside, _draw_binomial, lambda p, tau, f, eps: exponents.binomial_bound(p, tau)
    ),
    "monomial": _soft_suite(
        "monomial",
        lambda w: w.inside,
        lambda rng, p, tau: SparsePolynomial(((rng.randint(1, 3 * tau), rng.randint(1, p - 1)),)),
        lambda p, tau, f, eps: exponents.monomial_bound(p, tau),
    ),
    "theorem": _soft_suite(
        "theorem",
        lambda w: w.above_lower,
        lambda rng, p, tau: _random_sparse(rng, p, rng.randint(1, 3), 12),
        # _cells kept only cells with tau >= p^(3/7+eps), so the window is not checked again
        lambda p, tau, f, eps: exponents._theorem_value(p, tau, f.degree, eps),
    ),
    "curve": _suite_curve,
}


# ---------------------------------------------------------------------------
# subcommand handlers


def _print_sum(s: sums.SumValue, show_excluded: bool = False):
    v = s.value
    print(f"value = {v.real:+.12e} {v.imag:+.12e}i")
    print(f"magnitude = {s.magnitude:.12e}")
    print(f"terms = {s.term_count}")
    if show_excluded:
        print(f"excluded = {s.excluded}")


def cmd_sum(args) -> int:
    G = subgroup(args.p, args.tau)
    f = SparsePolynomial.parse(args.poly)
    if args.twist is not None:
        s = sums.twisted_sum(G, f, args.twist)
    elif args.incomplete is not None:
        s = sums.incomplete_subgroup_sum(G, f, args.incomplete)
    else:
        s = sums.subgroup_sum(G, f)
    _print_sum(s)
    return 0


def cmd_kloosterman(args) -> int:
    G = subgroup(args.p, args.tau)
    _print_sum(sums.kloosterman_subgroup_sum(G, args.a, args.b))
    return 0


def cmd_inversive(args) -> int:
    G = subgroup(args.p, args.tau)
    _print_sum(sums.inversive_subgroup_sum(G, args.a, args.b), show_excluded=True)
    return 0


def cmd_moment(args) -> int:
    G = subgroup(args.p, args.tau)
    nvec = tuple(int(t) for t in args.exps.split(","))
    if args.method == "brute":
        print(f"Q = {moments.q_bruteforce(G, nvec, args.k)}")
        return 0
    if args.method == "conv":
        print(f"Q = {moments.q_convolution(G, nvec, args.k)}")
        return 0
    qb = moments.q_bruteforce(G, nvec, args.k)
    qc = moments.q_convolution(G, nvec, args.k)
    print(f"bruteforce = {qb}")
    print(f"convolution = {qc}")
    print(f"agree = {_cell(qb == qc)}")
    return 0 if qb == qc else 1


def cmd_t3(args) -> int:
    print(f"T3 = {moments.t3_count(args.p, args.s, args.m, args.n)}")
    return 0


def cmd_curve(args) -> int:
    delta = curves.delta_eval(args.m, args.n, args.A, args.B, args.p)
    print(f"delta = {delta}")
    print(f"delta_nonzero = {_cell(delta != 0)}")
    if args.delta_only:
        return 0
    rep = curves.check_curve_bound(curves.CurveSpec(args.p, args.m, args.n, args.s, args.A, args.B))
    print(f"d = {rep.spec.degree}")
    print(f"count = {rep.count}")
    print(f"bound = {rep.bound:.12g}")
    print(f"ratio = {rep.ratio:.6g}")
    print(f"in_hypothesis = {_cell(rep.in_hypothesis)}")
    print(f"holds = {_cell(rep.holds) if rep.holds is not None else 'not-asserted'}")
    return 0


def cmd_eta(args) -> int:
    eps = exponents.as_fraction(args.eps)
    table = exponents.eta_table(args.nmax, eps)
    if args.json:
        for n, kap, et in table.rows:
            print(
                json.dumps(
                    {"n": n, "kappa": kap, "eta": str(et), "decimal": float(et)},
                    sort_keys=True,
                )
            )
        return 0
    print("n kappa eta decimal")
    for n, kap, et in table.rows:
        print(f"{n} {'-' if kap is None else kap} {et} {float(et):.10g}")
    return 0


def cmd_prng(args) -> int:
    G = subgroup(args.p, args.tau)
    if args.poly is not None:
        seq = prng.power_generator(G, SparsePolynomial.parse(args.poly), args.count)
    else:
        try:
            a_text, b_text = args.inversive.split(",")
            a, b = int(a_text), int(b_text)
        except ValueError:
            raise ValueError(f"--inversive expects 'A,B', got {args.inversive!r}") from None
        seq = prng.inversive_generator(G, a, b, args.count)
    if args.format == "csv":
        if args.out:
            with open(args.out, "w", newline="") as fh:
                prng.write_csv(seq, fh)
        else:
            prng.write_csv(seq, sys.stdout)
    else:
        if args.out:
            with open(args.out, "wb") as fh:
                prng.write_u64le(seq, fh)
        else:
            prng.write_u64le(seq, sys.stdout.buffer)
    return 0


def cmd_verify(args) -> int:
    args.eps = exponents.as_fraction(args.eps)
    if args.pmin > args.pmax:
        raise ValueError("pmin must be <= pmax")
    exponents._check_eps(args.eps)
    if not args.ceiling >= 0:  # also catches NaN, which fails every comparison
        raise ValueError(f"ceiling must be >= 0, got {args.ceiling}")
    rng = random.Random(f"{args.suite}:{args.seed}")
    # open --out before the sweep, so a path that cannot be written fails at once
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        rows = list(_SUITES[args.suite](args, rng))
        if args.format == "csv":
            lines = [",".join(_FIELDS)] + [r.as_csv() for r in rows]
        else:
            lines = [r.as_json() for r in rows]
        fh.write("\n".join(lines) + "\n" if lines else "")
    failures = sum(1 for r in rows if not r.passed)
    max_ratio = max((r.ratio for r in rows), default=0.0)
    print(
        f"suite={args.suite} rows={len(rows)} failures={failures} max_ratio={max_ratio:.6g}",
        file=sys.stderr,
    )
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="weilsums",
        description="Exact character sums, moment counts, and bound verification "
        "over small multiplicative subgroups of prime fields.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("sum", help="subgroup sum, optionally twisted or incomplete")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    q.add_argument("--poly", required=True, help="e.g. 1*x^1 or 3*x^2+5*x^7+2")
    g = q.add_mutually_exclusive_group()
    g.add_argument("--twist", type=int, default=None, help="index-character frequency b")
    g.add_argument("--incomplete", type=int, default=None, help="sum the first N orbit terms")
    q.set_defaults(func=cmd_sum)

    q = sub.add_parser("kloosterman", help="sum of e_p(a*g + b*g^-1) over the subgroup")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.set_defaults(func=cmd_kloosterman)

    q = sub.add_parser("inversive", help="sum of e_p((a*g+b)^-1) over the subgroup")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.set_defaults(func=cmd_inversive)

    q = sub.add_parser("moment", help="exact 2k-th moment count Q_k")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--exps", required=True, help="comma-separated exponents, e.g. 1,2")
    q.add_argument("--method", choices=("brute", "conv", "both"), default="both")
    q.set_defaults(func=cmd_moment)

    q = sub.add_parser("t3", help="six-variable diagonal count over F_p*")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_t3)

    q = sub.add_parser("curve", help="degeneracy product, point count, and bound")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--s", type=int, default=1)
    q.add_argument("--A", type=int, required=True)
    q.add_argument("--B", type=int, required=True)
    q.add_argument("--delta-only", action="store_true", dest="delta_only")
    q.set_defaults(func=cmd_curve)

    q = sub.add_parser("eta", help="table of exponents (n, kappa_n, eta_n)")
    q.add_argument("--nmax", type=int, required=True)
    q.add_argument("--eps", required=True, help="exact rational, e.g. 1/10")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_eta)

    q = sub.add_parser("prng", help="emit a power or inversive generator sequence")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--tau", type=int, required=True)
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--poly", default=None)
    g.add_argument("--inversive", default=None, metavar="A,B")
    q.add_argument("--count", type=int, required=True)
    q.add_argument("--format", choices=("csv", "u64-le"), default="csv")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_prng)

    q = sub.add_parser("verify", help="run a verification sweep, emit a report stream")
    q.add_argument("--suite", choices=sorted(_SUITES), required=True)
    q.add_argument("--pmin", type=int, required=True)
    q.add_argument("--pmax", type=int, required=True)
    q.add_argument("--eps", default="1/10", help="window parameter, exact rational")
    q.add_argument("--ceiling", type=float, default=10.0, help="ratio ceiling for soft suites")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as e:  # GuardExceeded is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
