"""Command-line interface: output formats, exit codes, determinism."""

import json
import pathlib
import random
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from weilsums import cli, curves, field, moments, sums


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_sum_frozen_output(capsys):
    rc, out, _ = run(capsys, "sum", "--p", "13", "--tau", "4", "--poly", "1*x^1")
    assert rc == 0
    assert out == (
        "value = +2.738905549642e-01 +0.000000000000e+00i\n"
        "magnitude = 2.738905549642e-01\n"
        "terms = 4\n"
    )


def test_sum_twisted_and_incomplete(capsys):
    rc, out, _ = run(capsys, "sum", "--p", "13", "--tau", "4", "--poly", "1*x^1", "--incomplete", "0")
    assert rc == 0
    assert "terms = 0" in out
    rc, out, _ = run(capsys, "sum", "--p", "13", "--tau", "4", "--poly", "1*x^1", "--twist", "0")
    assert rc == 0
    assert "magnitude = 2.738905549642e-01" in out


def test_sum_twist_incomplete_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sum", "--p", "13", "--tau", "4", "--poly", "1*x^1", "--twist", "1", "--incomplete", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_kloosterman_output(capsys):
    rc, out, _ = run(capsys, "kloosterman", "--p", "13", "--tau", "4", "--a", "1", "--b", "1")
    assert rc == 0
    assert out.startswith("value = +3.136129493462e+00 ")
    assert "terms = 4" in out


def test_inversive_output(capsys):
    rc, out, _ = run(capsys, "inversive", "--p", "13", "--tau", "4", "--a", "1", "--b", "1")
    assert rc == 0
    assert out == (
        "value = -2.823403904396e-01 -6.959065608316e-02i\n"
        "magnitude = 2.907902259149e-01\n"
        "terms = 3\n"
        "excluded = 1\n"
    )


def test_moment_both(capsys):
    rc, out, _ = run(capsys, "moment", "--p", "13", "--tau", "4", "--k", "3", "--exps", "1,2")
    assert rc == 0
    assert out == "bruteforce = 256\nconvolution = 256\nagree = true\n"


def test_moment_small_subgroup_of_large_field(capsys):
    # p^2 > 10^10: the sparse route, checked against enumeration
    rc, out, _ = run(capsys, "moment", "--p", "100801", "--tau", "160", "--k", "3", "--exps", "1,2", "--method", "both")
    assert rc == 0
    assert out == "bruteforce = 24357760\nconvolution = 24357760\nagree = true\n"


@pytest.mark.parametrize("p, tau, exps, want", ((211, 42, "1,2,3", 428820), (31, 15, "1,2,3,4", 18285)))
def test_moment_beyond_two_exponents(capsys, p, tau, exps, want):
    rc, out, _ = run(capsys, "moment", "--p", str(p), "--tau", str(tau), "--k", "3", "--exps", exps, "--method", "both")
    assert rc == 0
    assert out == f"bruteforce = {want}\nconvolution = {want}\nagree = true\n"


def test_moment_keys_past_int64_are_refused(capsys):
    # p^3 > 2^63: the histogram's keys wrap, and both routes refuse before any count is printed
    assert 2097169**3 >= 2**63
    rc, out, err = run(capsys, "moment", "--p", "2097169", "--tau", "8", "--k", "2", "--exps", "1,2,3", "--method", "conv")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: guard ")


def test_moment_single_route(capsys):
    rc, out, _ = run(capsys, "moment", "--p", "13", "--tau", "4", "--k", "2", "--exps", "1,2", "--method", "brute")
    assert rc == 0
    assert out == "Q = 28\n"
    rc, out, _ = run(capsys, "moment", "--p", "13", "--tau", "4", "--k", "2", "--exps", "1,2", "--method", "conv")
    assert out == "Q = 28\n"


def test_t3_output(capsys):
    rc, out, _ = run(capsys, "t3", "--p", "13", "--s", "3", "--m", "1", "--n", "2")
    assert rc == 0
    assert out == "T3 = 186624\n"


def test_curve_output(capsys):
    rc, out, _ = run(capsys, "curve", "--p", "31", "--m", "2", "--n", "3", "--s", "2", "--A", "1", "--B", "2")
    assert rc == 0
    assert out == (
        "delta = 12\n"
        "delta_nonzero = true\n"
        "d = 12\n"
        "count = 48\n"
        "bound = 1177.44978906\n"
        "ratio = 0.0407661\n"
        "in_hypothesis = true\n"
        "holds = true\n"
    )


def test_curve_delta_only_and_not_asserted(capsys):
    rc, out, _ = run(capsys, "curve", "--p", "13", "--m", "1", "--n", "2", "--A", "1", "--B", "1", "--delta-only")
    assert rc == 0
    assert out == "delta = 0\ndelta_nonzero = false\n"
    rc, out, _ = run(capsys, "curve", "--p", "13", "--m", "1", "--n", "2", "--A", "1", "--B", "1")
    assert "holds = not-asserted" in out


def test_eta_text(capsys):
    rc, out, _ = run(capsys, "eta", "--nmax", "3", "--eps", "1/10")
    assert rc == 0
    assert out == (
        "n kappa eta decimal\n"
        "1 - 7/270 0.02592592593\n"
        "2 - 7/270 0.02592592593\n"
        "3 18 7/3240 0.002160493827\n"
    )


def test_eta_json(capsys):
    rc, out, _ = run(capsys, "eta", "--nmax", "4", "--eps", "1/10", "--json")
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert rows[2] == {"n": 3, "kappa": 18, "eta": "7/3240", "decimal": 7 / 3240}
    assert rows[0]["kappa"] is None


def test_prng_csv_stdout(capsys):
    rc, out, _ = run(capsys, "prng", "--p", "13", "--tau", "4", "--inversive", "1,1", "--count", "4")
    assert rc == 0
    assert out == "index,value\n1,3\n2,\n3,11\n4,7\n"


def test_prng_csv_file(tmp_path, capsys):
    dest = tmp_path / "seq.csv"
    rc, out, _ = run(capsys, "prng", "--p", "13", "--tau", "4", "--poly", "1*x^1", "--count", "4", "--out", str(dest))
    assert rc == 0
    assert out == ""
    assert dest.read_bytes() == b"index,value\n1,8\n2,12\n3,5\n4,1\n"


def test_prng_u64le_file(tmp_path, capsys):
    dest = tmp_path / "seq.bin"
    rc, _, _ = run(
        capsys, "prng", "--p", "13", "--tau", "4", "--inversive", "1,1",
        "--count", "4", "--format", "u64-le", "--out", str(dest),
    )
    assert rc == 0
    data = dest.read_bytes()
    assert struct.unpack("<3Q", data) == (3, 11, 7)


def test_prng_malformed_inversive(capsys):
    rc, _, err = run(capsys, "prng", "--p", "13", "--tau", "4", "--inversive", "3", "--count", "4")
    assert rc == 2
    assert "error:" in err


def test_bad_subgroup_is_usage_error(capsys):
    rc, _, err = run(capsys, "sum", "--p", "13", "--tau", "5", "--poly", "1*x^1")
    assert rc == 2
    assert "error:" in err


def test_guard_is_exit_2(capsys):
    # tau = p - 1 at p^2 > 10^8, k = 3: 5*10^7 pairs for the quotient route, a grid of 10^8 for the orbit route
    rc, _, err = run(capsys, "moment", "--p", "10007", "--tau", "10006", "--k", "3", "--exps", "1,2", "--method", "conv")
    assert rc == 2
    assert err == f"error: guard orbit grid: {10007 * 10006} exceeds limit {moments.GRID_SIZE_LIMIT}\n"
    # s = p - 1 asks for a label table of p^2 entries
    rc, _, err = run(capsys, "curve", "--p", "2053", "--m", "1", "--n", "2", "--s", "2052", "--A", "0", "--B", "0")
    assert rc == 2
    assert err == f"error: guard label table: {2053**2} exceeds limit {curves.LABEL_TABLE_LIMIT}\n"


def test_readme_names_every_guard():
    # every guard a command can report is named in README's exit-code paragraph
    src = pathlib.Path(cli.__file__).parent
    names = {name for path in src.glob("*.py") for name in re.findall(r'GuardExceeded\("([^"]+)"', path.read_text())}
    readme = (src.parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Exit codes:") :].split("\n\n")[0]
    assert {"terms", "tau^k", "sparse work", "label table"} <= names
    assert [name for name in sorted(names) if f"`{name}`" not in paragraph] == []


@pytest.mark.parametrize("p, m, n", ((101, 200, 201), (1009, 1, 400)))
def test_fiber_degree_guard_is_exit_2(capsys, p, m, n):
    # a discriminant of degree m*n = 40200; 399^2 root-of-unity factors over F_{p^18}
    start = time.perf_counter()
    rc, _, err = run(capsys, "curve", "--p", str(p), "--m", str(m), "--n", str(n), "--A", "1", "--B", "2", "--delta-only")
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert err == f"error: guard fiber degree: {m * n} exceeds limit {curves.FIBER_DEGREE_LIMIT}\n"


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("sum", "--p", "1000000007", "--tau", "1000000006", "--poly", "1*x^1"), "SUM_TERM_LIMIT"),
        (("kloosterman", "--p", "1000000007", "--tau", "500000003", "--a", "1", "--b", "1"), "SUM_TERM_LIMIT"),
        (("prng", "--p", "13", "--tau", "4", "--poly", "1*x^1", "--count", "1000000000"), "TERM_LIMIT"),
        (("prng", "--p", "13", "--tau", "4", "--inversive", "1,1", "--count", "1000000000"), "TERM_LIMIT"),
        (("moment", "--p", "99999989", "--tau", "99999988", "--k", "1", "--exps", "1", "--method", "brute"), "TERM_LIMIT"),
        (("moment", "--p", "99999989", "--tau", "99999988", "--k", "2", "--exps", "1", "--method", "conv"), "TERM_LIMIT"),
    ],
    ids=("sum", "kloosterman", "prng", "prng-inversive", "moment-brute", "moment-conv"),
)
def test_term_guard_is_exit_2_before_allocating(capsys, argv, limit):
    # the streams and power vectors, held whole, would need 0.7-8 GB of arrays, and the
    # sums, which stream, minutes of time; the guard refuses before anything is allocated
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: guard terms: ") and err.endswith(f" exceeds limit {getattr(sums, limit)}\n")
    assert peak < 1 << 20


def test_arithmetic_error_is_exit_2(capsys, monkeypatch):
    # a failed internal arithmetic check (orbit route divisibility, primitive root
    # search) is reported on stderr with exit 2, not as a traceback with exit 1
    def fail(*args):
        raise ArithmeticError("orbit route: p^r does not divide 7")

    monkeypatch.setattr(cli.moments, "q_convolution", fail)
    rc, out, err = run(capsys, "moment", "--p", "13", "--tau", "4", "--k", "2", "--exps", "1,2", "--method", "conv")
    assert rc == 2
    assert out == ""
    assert err == "error: orbit route: p^r does not divide 7\n"


def test_moment_large_k_on_full_group(capsys):
    # p^2 tau^12 needs 140 bits: the orbit route takes as many CRT moduli as the bound needs
    rc, out, _ = run(capsys, "moment", "--p", "1009", "--tau", "1008", "--k", "6", "--exps", "1,2", "--method", "conv")
    assert rc == 0
    assert out == "Q = 1080796806656096236195158122544\n"
    # floating-point Parseval estimate: p^-2 sum over xi of |h^(xi)|^12
    p = 1009
    grid = np.zeros((p, p))
    for g in range(1, p):
        grid[g, g * g % p] += 1
    estimate = np.sum(np.abs(np.fft.fft2(grid)) ** 12) / p**2
    assert abs(1080796806656096236195158122544 / estimate - 1) < 1e-9


def test_moment_prime_above_full_table(capsys):
    # p > 2^20 with r = 1: two-level root tables; Q_2 = (p-1)^2 + (p-1)(p-2)^2 on the full group
    p = 1048583
    rc, out, _ = run(capsys, "moment", "--p", str(p), "--tau", str(p - 1), "--k", "2", "--exps", "1", "--method", "conv")
    assert rc == 0
    assert out == f"Q = {(p - 1) ** 2 + (p - 1) * (p - 2) ** 2}\n"


def test_verify_moments_csv(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    rc, out, err = run(
        capsys, "verify", "--suite", "moments", "--pmin", "11", "--pmax", "13", "--out", str(dest)
    )
    assert rc == 0
    assert out == ""
    assert "suite=moments rows=80 failures=0" in err
    lines = dest.read_text().splitlines()
    assert lines[0] == "suite,p,tau,params,measured,bound,ratio,in_admissible_range,passed"
    assert len(lines) == 81
    assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize(
    "suite, pmin, pmax",
    [
        ("gauss", 1000, 1100),
        ("identity", 100, 110),
        ("moments", 11, 13),
        ("lemma31", 11, 61),
        ("q3", 11, 17),
        ("binomial", 1000, 1100),
        ("monomial", 1000, 1100),
        ("theorem", 1000, 1100),
        ("curve", 300, 320),
    ],
)
def test_csv_rows_equal_the_generic_cells(suite, pmin, pmax):
    # as_csv formats p, ratio and passed directly; the row types it assumes hold
    # in every suite, and each line equals the one _cell makes of every field
    args = cli.build_parser().parse_args(["verify", "--suite", suite, "--pmin", str(pmin), "--pmax", str(pmax)])
    args.eps = cli.exponents.as_fraction(args.eps)
    rows = list(cli._SUITES[suite](args, random.Random(f"{suite}:0")))
    assert rows
    for r in rows:
        assert type(r.p) is int and type(r.ratio) is float and type(r.passed) is bool, r
        generic = ",".join(cli._cell(getattr(r, name), ".6g" if name == "ratio" else ".12g") for name in cli._FIELDS)
        assert r.as_csv() == generic


def test_verify_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for dest in (a, b):
        rc, _, _ = run(
            capsys, "verify", "--suite", "lemma31", "--pmin", "7", "--pmax", "13",
            "--seed", "5", "--out", str(dest),
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != b""


def test_verify_json_format(capsys):
    rc, out, _ = run(
        capsys, "verify", "--suite", "gauss", "--pmin", "3", "--pmax", "31", "--format", "json"
    )
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 10  # odd primes up to 31
    for row in rows:
        assert row["passed"] is True
        assert row["suite"] == "gauss"
        assert list(row) == sorted(row)


def test_main_twice_in_one_process_carries_nothing_over(capsys):
    # the parser is built once per process; each call sees only its own options
    assert cli.build_parser() is cli.build_parser()
    argv = ["verify", "--suite", "lemma31", "--pmin", "7", "--pmax", "13"]
    rc, first, _ = run(capsys, *argv, "--format", "json", "--seed", "5", "--eps", "1/5")
    assert rc == 0 and first.startswith("{")
    rc, second, _ = run(capsys, *argv)
    assert rc == 0
    assert second.splitlines()[0] == ",".join(cli._FIELDS)
    rc, explicit, _ = run(capsys, *argv, "--format", "csv", "--seed", "0", "--eps", "1/10")
    assert rc == 0 and second == explicit
    args = cli.build_parser().parse_args(argv)
    assert (args.format, args.seed, args.eps, args.ceiling, args.out) == ("csv", 0, "1/10", 10.0, None)


@pytest.mark.parametrize("suite, pmin, pmax", [("theorem", 1009, 1013), ("identity", 101, 103)])
def test_verify_sums_each_prime_in_one_batch(capsys, monkeypatch, suite, pmin, pmax):
    # one limb pass per prime: the soft suites sum the cells a prime keeps, and the
    # identity suite both sides of all its cells, in one subgroup_sums batch
    calls = []
    row_sums = sums._row_sums

    def counted(parts, lengths, work=None):
        calls.append(len(lengths))
        return row_sums(parts, lengths, work)

    monkeypatch.setattr(sums, "_row_sums", counted)
    rc, out, _ = run(capsys, "verify", "--suite", suite, "--pmin", str(pmin), "--pmax", str(pmax))
    assert rc == 0
    primes = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    kept = sorted(set(primes))
    assert len(kept) == 2 and len(calls) == len(kept)
    # theorem: ten rows per kept cell; identity: twenty rows per cell on each side
    assert calls == [primes.count(p) * (2 if suite == "identity" else 1) for p in kept]


def test_sum_past_the_stream_limit_answers(capsys):
    # a sum streams in blocks, so the limit of streams and power vectors no longer
    # refuses it: the full group of p = 4194319 has 2^22 + 14 elements, and the sum
    # of e(x/p) over F_p* is -1, its imaginary parts cancelling in conjugate pairs
    p = 4194319
    assert p - 1 > sums.TERM_LIMIT
    rc, out, _ = run(capsys, "sum", "--p", str(p), "--tau", str(p - 1), "--poly", "1*x^1")
    assert rc == 0
    value, _, terms = out.splitlines()
    assert terms == f"terms = {p - 1}"
    real, imag = (float(v.rstrip("i")) for v in value.split()[2:])
    assert abs(real + 1) < 1e-6 and imag == 0


def test_identity_suite_refuses_a_prime_past_the_term_guard_at_once(capsys, monkeypatch):
    # p - 1 = 2^28 + 2: the full-group sum of 268435458 terms passes the term limit of
    # sums and is refused before any polynomial is drawn or any sum taken, even those
    # of the cells below the guard
    def no_sums(cells):
        raise AssertionError("a sum was taken")

    monkeypatch.setattr(sums, "subgroup_sums", no_sums)
    rc, out, err = run(capsys, "verify", "--suite", "identity", "--pmin", "268435459", "--pmax", "268435459")
    assert rc == 2
    assert out == ""
    assert err == f"error: guard terms: 268435458 exceeds limit {sums.SUM_TERM_LIMIT}\n"


def test_verify_identity_suite(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "identity", "--pmin", "7", "--pmax", "7")
    assert rc == 0
    assert "failures=0" in err


def test_verify_q3_and_curve_suites(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "q3", "--pmin", "5", "--pmax", "13")
    assert rc == 0
    assert "failures=0" in err
    rc, _, err = run(capsys, "verify", "--suite", "curve", "--pmin", "31", "--pmax", "37")
    assert rc == 0
    assert "failures=0" in err
    # the guard is on each cell's label table, not on p: p = 2003 has its rows
    rc, out, err = run(capsys, "verify", "--suite", "curve", "--pmin", "2003", "--pmax", "2003")
    assert rc == 0
    assert len(out.splitlines()) == 31
    assert "rows=30 failures=0" in err


def test_verify_tiny_ceiling_fails(capsys):
    # an absurd ceiling forces failures: exit code 1 and a failure count
    rc, _, err = run(
        capsys, "verify", "--suite", "binomial", "--pmin", "541", "--pmax", "541",
        "--ceiling", "1e-9",
    )
    assert rc == 1
    assert "failures=0" not in err


def test_verify_pmin_pmax_validation(capsys):
    for argv in (
        ("--suite", "gauss", "--pmin", "31", "--pmax", "13"),
        # no ratio is at most a negative or NaN ceiling: every row would fail
        ("--suite", "monomial", "--pmin", "2", "--pmax", "40", "--ceiling", "nan"),
        ("--suite", "monomial", "--pmin", "2", "--pmax", "40", "--ceiling", "-1"),
    ):
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2, argv
        assert out == "", argv
        assert err.startswith("error:"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "gauss", "--pmin", "3", "--pmax", "40", "--eps", "-1"),
        ("--suite", "curve", "--pmin", "3", "--pmax", "40", "--eps", "0"),
        # no primes in range: no suite would ever reach the window check
        ("--suite", "q3", "--pmin", "24", "--pmax", "28", "--eps", "-2"),
    ],
    ids=("gauss", "curve", "empty-range"),
)
def test_verify_eps_checked_for_every_suite(capsys, argv):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: eps must be positive, got {argv[-1]}\n"


def test_verify_opens_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    def never(args, rng):
        raise AssertionError("suite ran before --out was opened")

    monkeypatch.setitem(cli._SUITES, "q3", never)
    dest = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, "verify", "--suite", "q3", "--pmin", "11", "--pmax", "211", "--out", str(dest))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("prng", "--p", "13", "--tau", "4", "--poly", "1*x^1", "--count", "3"),
        ("verify", "--suite", "gauss", "--pmin", "3", "--pmax", "5"),
    ],
    ids=("prng", "verify"),
)
def test_unwritable_out_is_exit_2(tmp_path, capsys, argv):
    dest = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, *argv, "--out", str(dest))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert not dest.exists()


# --- fuzzing: every subcommand exits 0, 1 or 2, whatever its arguments ---


def _mostly(rng, good, bad):
    """A value from `good` four times in five, else one from `bad`."""
    return rng.choice(good if rng.random() < 0.8 else bad)


def _fuzz_poly(rng):
    if rng.random() < 0.7:
        exps = rng.sample(range(1, 9), rng.randint(1, 3))
        text = "+".join(f"{rng.randint(1, 60)}*x^{n}" for n in exps)
        return text + (f"+{rng.randint(0, 9)}" if rng.random() < 0.3 else "")
    return rng.choice(("", "x", "x^2", "-1*x^2", "3*y^2", "1*x^0", "1*x^-1", "0*x^2", "1*x^2+1*x^2", "1+2", "+"))


def _fuzz_argv(rng, command, tmp_path):
    """One argv for `command`: small values, mostly well-formed, sometimes not."""
    p = _mostly(rng, (3, 5, 7, 11, 13, 17, 19, 29, 31, 37, 41, 43, 53, 59), range(-3, 61))
    divs = [d for d in range(1, p) if (p - 1) % d == 0] or [1]
    tau = _mostly(rng, divs, range(-2, 13))
    m = _mostly(rng, (1, 2, 3), (-1, 0, 4))
    n = _mostly(rng, (m + 1, m + 2, m + 3), (-1, 0, m))
    small = lambda lo, hi: str(rng.randint(lo, hi))  # noqa: E731
    eps = _mostly(rng, ("1/10", "1/5", "1/20", "3/7"), ("0", "-1/10", "1/0", "abc", "0.1"))
    out = rng.choice(([], ["--out", str(tmp_path / "out")], ["--out", str(tmp_path / "missing" / "out")]))
    if command == "sum":
        extra = rng.choice(([], ["--twist", small(-3, 12)], ["--incomplete", small(-2, 14)]))
        return ["sum", "--p", str(p), "--tau", str(tau), "--poly", _fuzz_poly(rng)] + extra
    if command in ("kloosterman", "inversive"):
        return [command, "--p", str(p), "--tau", str(tau), "--a", small(-3, 60), "--b", small(-3, 60)]
    if command == "moment":
        exps = _mostly(rng, ("1", "2", "1,2", "2,3", "1,3", "1,2,3"), ("", "a", "1,,2", "0", "-1,2", "2,1", "1,1"))
        k = _mostly(rng, (1, 2, 3), (-1, 0))
        argv = ["moment", "--p", str(p), "--tau", str(tau), "--k", str(k), "--exps", exps]
        return argv + ["--method", rng.choice(("brute", "conv", "both"))]
    if command == "t3":
        s = (p - 1) // tau if tau in divs else tau
        return ["t3", "--p", str(p), "--s", str(s), "--m", str(m), "--n", str(n)]
    if command == "curve":
        # s = p - 1 asks for the largest label table, over its guard at p = 2053;
        # m, n past 2^63 reach count_points when A = B = 0 mod p ends delta_eval early
        p = rng.choice((p, p, 2053))
        s = rng.choice((small(-1, 3), str(p - 1)))
        A, B = small(-3, 60), small(-3, 60)
        if rng.random() < 0.3:
            m = 2**64 + 1
            n = m + rng.choice((2, 4))
            A, B = str(p * rng.randint(0, 2)), str(p * rng.randint(-1, 2))
        argv = ["curve", "--p", str(p), "--m", str(m), "--n", str(n), "--s", s, "--A", A, "--B", B]
        return argv + (["--delta-only"] if rng.random() < 0.3 else [])
    if command == "eta":
        return ["eta", "--nmax", small(-1, 5), "--eps", eps] + (["--json"] if rng.random() < 0.5 else [])
    if command == "prng":
        inversive = _mostly(rng, ("1,1", "2,5", "0,3"), ("3", "a,b", "1,2,3"))
        source = ["--poly", _fuzz_poly(rng)] if rng.random() < 0.6 else ["--inversive", inversive]
        argv = ["prng", "--p", str(p), "--tau", str(tau)] + source + ["--count", small(-2, 20)]
        return argv + ["--format", rng.choice(("csv", "u64-le"))] + out
    lo = rng.randint(-3, 60)
    suite = rng.choice(sorted(cli._SUITES))
    argv = ["verify", "--suite", suite, "--pmin", str(lo), "--pmax", str(lo + rng.randint(-2, 6)), "--eps", eps]
    argv += ["--ceiling", rng.choice(("10", "1e-9", "0.5")), "--seed", small(0, 9)]
    return argv + ["--format", rng.choice(("csv", "json"))] + out


_COMMANDS = ("sum", "kloosterman", "inversive", "moment", "t3", "curve", "eta", "prng", "verify")


@pytest.mark.parametrize("command", _COMMANDS)
def test_fuzz_exit_codes(tmp_path, capsys, command):
    rng = random.Random(f"fuzz:{command}")
    for _ in range(60):
        argv = _fuzz_argv(rng, command, tmp_path)
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects the argv
            rc = e.code
        capsys.readouterr()
        # for `moment`, exit 1 could only mean that two routes disagree
        assert rc in ((0, 2) if command == "moment" else (0, 1, 2)), argv


def test_moment_small_subgroup_of_a_large_field(capsys):
    # subgroup(10003601, 400) at k = 3: 80800 pairs of the quotient route (the sparse route's 3.2*10^7
    # pairs were refused); enumeration of the 6.4*10^7 tuples gives the same count
    rc, out, _ = run(capsys, "moment", "--p", "10003601", "--tau", "400", "--k", "3", "--exps", "1,2", "--method", "conv")
    assert (rc, out) == (0, "Q = 382561600\n")


def test_log_table_guard_is_exit_2(capsys):
    # two exponents above p = 2^24: the quotient route would take discrete logs from a table of p entries
    rc, _, err = run(capsys, "moment", "--p", "16777259", "--tau", "2", "--k", "2", "--exps", "1,2", "--method", "conv")
    assert rc == 2
    assert err == f"error: guard log table: 16777259 exceeds limit {field.LOG_TABLE_LIMIT}\n"
