"""The benchmark's own tests.

    python3 -m pytest -q perfbench

Short mode of every workload runs end to end in both metric sets; the
correctness gate, the tracer's restore and the missing-tree refusal are
checked directly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_exactly_the_declared_metrics(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--short")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    record = json.loads(record_line)
    for key in ("git_commit", "nproc", "cpu_model", "python", "numpy", "seed", "passes",
                "calls_per_pass", "thread_env"):
        assert key in record
    assert record["digests_recorded"]


def test_full_workloads_have_enough_calls_for_p90():
    for w in workloads.WORKLOADS:
        calls = workloads.generate(w, 7)
        assert len(calls) >= 100, w
        assert calls == workloads.generate(w, 7)
        assert calls != workloads.generate(w, 8)


def test_digest_mismatch_and_bad_exit_count_as_failed():
    good = {"ok": True, "traced": False, "weilsums_file": str(ROOT / "src/weilsums/__init__.py"),
            "codes": [0, 0, 0], "digests": ["a", "b", "c"], "errors": {}}
    assert run.check_passes([good, good], 3, ["a", "b", "c"])[:2] == (6, 0)
    assert run.check_passes([good], 3, ["a", "x", "c"])[:2] == (3, 1)
    crashed = dict(good, codes=[0, 1, 0])
    assert run.check_passes([good, crashed], 3, None)[:2] == (6, 1)
    other_tree = dict(good, weilsums_file="/elsewhere/weilsums/__init__.py")
    assert run.check_passes([other_tree], 3, None)[:2] == (3, 3)


def test_tracer_wraps_every_binding_and_restores_them():
    import weilsums.cli as cli
    import weilsums.field as field
    import weilsums.moments as moments
    import weilsums.sums as sums

    originals = (cli.subgroup, moments.subgroup_sum, sums.prime_modulus, field.PrimeModulus.__dict__["char_table"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(hasattr(f, "perfbench_span") for f in
                   (cli.subgroup, moments.subgroup_sum, sums.prime_modulus, field.PrimeModulus.char_table))
        G = cli.subgroup(13, 4)
        sums.subgroup_sum(G, sums.SparsePolynomial(((1, 1),)))
    finally:
        assert tracer.restore() == []
    assert (cli.subgroup, moments.subgroup_sum, sums.prime_modulus,
            field.PrimeModulus.__dict__["char_table"]) == originals
    m = spans.layer_metrics(tracer.spans)
    assert m["sums.calls"] == 1 and m["sums.terms"] == 4 and m["field.subgroup.calls"] == 1


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep-mix", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
