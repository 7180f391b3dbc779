"""Command-line interface: output formats, exit codes, determinism."""

import json
import struct

import numpy as np
import pytest

from weilsums import cli


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
    # p^2 > 10^8 blocks the convolution route
    rc, _, err = run(capsys, "moment", "--p", "10007", "--tau", "2", "--k", "2", "--exps", "1,2", "--method", "conv")
    assert rc == 2
    assert "error:" in err


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


def test_verify_tiny_ceiling_fails(capsys):
    # an absurd ceiling forces failures: exit code 1 and a failure count
    rc, _, err = run(
        capsys, "verify", "--suite", "binomial", "--pmin", "541", "--pmax", "541",
        "--ceiling", "1e-9",
    )
    assert rc == 1
    assert "failures=0" not in err


def test_verify_pmin_pmax_validation(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "gauss", "--pmin", "31", "--pmax", "13")
    assert rc == 2
    assert "error:" in err
