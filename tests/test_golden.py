"""Golden stdout corpus: fixed CLI commands whose stdout, stderr and exit code are frozen.

The moment, t3 and moment-driven verify entries were recorded before the
dense NTT moment route was removed, so they pin those outputs across changes
of route.  The curve, sum, inversive, kloosterman and prng entries were
recorded before the F_p[X] arithmetic and the character accumulator were
merged into one implementation each.  The gauss, identity, binomial, monomial,
theorem and json verify entries, and the stderr of every entry, were recorded
before the verify suites were put on one (p, tau) walk.  The two curve entries
at e = n - m = 5 and 4 were recorded before the root-of-unity products were
computed from one inner constant per factor.  The binomial json entry was
recorded before the sums engine moved to numpy arrays.  The curve entry at
p = 1999 was recorded before point counts moved to one pair histogram per
cell.  Regenerate it only for
an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from weilsums import cli

CORPUS = pathlib.Path(__file__).with_name("golden_stdout.json")

COMMANDS = (
    ("moment", "--p", "13", "--tau", "4", "--k", "3", "--exps", "1,2", "--method", "brute"),
    ("moment", "--p", "13", "--tau", "4", "--k", "3", "--exps", "1,2", "--method", "conv"),
    ("moment", "--p", "13", "--tau", "4", "--k", "3", "--exps", "1,2"),
    ("moment", "--p", "31", "--tau", "30", "--k", "3", "--exps", "2,3", "--method", "both"),
    ("moment", "--p", "211", "--tau", "42", "--k", "3", "--exps", "1,3", "--method", "both"),
    ("moment", "--p", "101", "--tau", "100", "--k", "1", "--exps", "1", "--method", "conv"),
    # the dense 2-D and 1-D NTT routes of the recording tree
    ("moment", "--p", "307", "--tau", "306", "--k", "2", "--exps", "1,2", "--method", "conv"),
    ("moment", "--p", "4481", "--tau", "4480", "--k", "3", "--exps", "1", "--method", "conv"),
    ("t3", "--p", "13", "--s", "3", "--m", "1", "--n", "2"),
    ("t3", "--p", "61", "--s", "1", "--m", "1", "--n", "2"),
    ("t3", "--p", "101", "--s", "4", "--m", "2", "--n", "3"),
    ("verify", "--suite", "q3", "--pmin", "11", "--pmax", "61"),
    ("verify", "--suite", "moments", "--pmin", "11", "--pmax", "31"),
    ("verify", "--suite", "lemma31", "--pmin", "11", "--pmax", "61"),
    # F_p[X] arithmetic: extension fields of degree 2 and 4, resultants and discriminants
    ("curve", "--p", "11", "--m", "1", "--n", "4", "--A", "3", "--B", "5"),
    ("curve", "--p", "7", "--m", "1", "--n", "6", "--A", "3", "--B", "5", "--delta-only"),
    ("curve", "--p", "101", "--m", "2", "--n", "5", "--A", "3", "--B", "7"),
    ("verify", "--suite", "curve", "--pmin", "300", "--pmax", "320"),
    # delta over a degree-4 splitting field (e = 5), and a full report at e = 4
    ("curve", "--p", "43", "--m", "2", "--n", "7", "--A", "4", "--B", "6", "--delta-only"),
    ("curve", "--p", "101", "--m", "3", "--n", "7", "--A", "5", "--B", "9"),
    # point counts at p = 1999, recorded when they came from a p x p histogram
    ("curve", "--p", "1999", "--m", "2", "--n", "3", "--s", "2", "--A", "5", "--B", "7"),
    # the character accumulator: table and no-table paths, excluded terms, prng statistics
    ("sum", "--p", "1009", "--tau", "56", "--poly", "3*x^2+5*x^7", "--twist", "5"),
    ("sum", "--p", "1995841", "--tau", "1980", "--poly", "3*x^1+2*x^5", "--twist", "7"),
    ("inversive", "--p", "1009", "--tau", "1008", "--a", "1", "--b", "1008"),
    ("kloosterman", "--p", "1009", "--tau", "56", "--a", "3", "--b", "4"),
    ("prng", "--p", "101", "--tau", "20", "--inversive", "1,100", "--count", "20"),
    # every verify suite, soft suites and the json row format; stderr holds the summary line
    ("verify", "--suite", "gauss", "--pmin", "3", "--pmax", "200"),
    ("verify", "--suite", "identity", "--pmin", "11", "--pmax", "23"),
    ("verify", "--suite", "binomial", "--pmin", "1000", "--pmax", "1040"),
    ("verify", "--suite", "monomial", "--pmin", "1000", "--pmax", "1040"),
    ("verify", "--suite", "theorem", "--pmin", "1000", "--pmax", "1040"),
    ("verify", "--suite", "theorem", "--pmin", "1000", "--pmax", "1040", "--format", "json", "--seed", "3"),
    # json rows of sum magnitudes: a numpy scalar in a row would break json.dumps
    ("verify", "--suite", "binomial", "--pmin", "1000", "--pmax", "1040", "--format", "json", "--seed", "2"),
    ("verify", "--suite", "lemma31", "--pmin", "11", "--pmax", "31", "--format", "json"),
)


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _corpus() -> dict:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_golden_stdout(argv):
    want = _corpus()[" ".join(argv)]
    rc, out, err = _run(argv)
    assert rc == want["exit"]
    assert out == want["stdout"]
    assert err == want["stderr"]


if __name__ == "__main__":
    corpus = {}
    for argv in COMMANDS:
        rc, out, err = _run(argv)
        corpus[" ".join(argv)] = {"exit": rc, "stdout": out, "stderr": err}
        print(f"{rc} {' '.join(argv)}", file=sys.stderr)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
