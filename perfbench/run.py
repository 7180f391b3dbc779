"""weilsums benchmark: time seeded CLI workloads end to end, or layer by layer.

    python3 perfbench/run.py --workload moment-sweep --seed 0 --seconds 30 --trace 0

A run repeats passes of the workload for --seconds seconds.  Each pass is a
fresh worker process (perfbench/worker.py) that calls `weilsums.cli.main` on
every argv list of the workload back to back, so the program's module caches
start empty as in a real CLI run.  With --trace 0 every pass is untraced and
the end-to-end metrics are printed; with --trace 1 untraced and traced passes
alternate and the per-layer metrics of BENCHMARK.json are printed.

Every call must exit 0, and its stdout and --out bytes must hash to the digest
recorded from the reference tree in digests.json (when the seed has one) and
to the same digest in every pass of the run, traced or not.  A traced pass must
also leave every wrapped weilsums attribute restored.  The last stdout line is
the result: {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when the run is correct.  A full record of the run is written to
perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
DIGESTS = BENCH_DIR / "digests.json"

# numpy and BLAS stay on one thread: the load is one client on one thread
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_PASSES = {False: 3, True: 2}  # untraced runs aggregate at least three passes


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload: str, seed: int, short: bool, traced: bool, timeout: float) -> dict:
    """One worker process; returns its record, with ok=False when it produced none."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pass-", dir=WORK_DIR)
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed),
            str(int(short)), str(int(traced)), workdir]
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(argv, env=_worker_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        t_end = time.monotonic()
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"worker timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "traced": traced,
                "error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rec = json.loads(lines[-1])
    rec.update(ok=True, traced=traced, setup_s=rec["t_first"] - t_spawn,
               wall_s=sum(rec["latency_s"]), pass_s=t_end - t_spawn)
    return rec


def load_digests(workload: str, seed: int, short: bool):
    """Per-call digests recorded from the reference tree, or None for an unrecorded seed."""
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload + ("/short" if short else ""), {})
    joined = table.get(str(seed))
    return None if joined is None else joined.split()


def check_passes(passes: list, n_calls: int, recorded) -> tuple:
    """Count failed calls over all passes; returns (attempted, failed, problems)."""
    problems = []
    reference = recorded
    if reference is None:
        reference = next((r["digests"] for r in passes if r["ok"] and len(r["digests"]) == n_calls), None)
    failed = 0
    for i, rec in enumerate(passes):
        if not rec["ok"]:
            failed += n_calls
            problems.append(f"pass {i}: {rec['error']}")
            continue
        if not Path(rec["weilsums_file"]).resolve().is_relative_to(ROOT / "src"):
            failed += n_calls
            problems.append(f"pass {i}: measured weilsums at {rec['weilsums_file']}, not this tree")
            continue
        if len(rec["codes"]) != n_calls:
            failed += n_calls
            problems.append(f"pass {i}: {len(rec['codes'])} calls, expected {n_calls}")
            continue
        for j, (code, digest) in enumerate(zip(rec["codes"], rec["digests"])):
            if code != 0 or reference is None or digest != reference[j]:
                failed += 1
                if len(problems) < 20:
                    err = rec["errors"].get(str(j), "")
                    problems.append(f"pass {i} call {j}: exit {code}, digest {digest} {err}".rstrip())
        if rec["traced"] and (rec["not_restored"] or not rec["patched"]):
            problems.append(f"pass {i}: {rec['patched']} wrapped, not restored: {rec['not_restored']}")
    return n_calls * len(passes), failed, problems


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(untraced: list) -> tuple:
    """Aggregates over untraced passes; call latency pooled over every call of every pass.

    wall_s is the mean pass time.  The host runs fast or slow for tens of
    seconds at a time, so the pass times of a run fall into two groups; their
    median jumps from one group to the other with the share of slow passes,
    while their mean moves in proportion to it.
    """
    lat = [x for r in untraced for x in r["latency_s"]]
    values = {
        "wall_s": statistics.fmean(r["wall_s"] for r in untraced),
        "call_p50_ms": 1e3 * _quantile(lat, 50),
        "call_p90_ms": 1e3 * _quantile(lat, 90),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in untraced),
    }
    n = len(untraced)
    samples = {"wall_s": n, "call_p50_ms": len(lat), "call_p90_ms": len(lat), "setup_s": n, "peak_rss_mb": n}
    return values, samples


def per_layer_metrics(untraced: list, traced: list) -> tuple:
    """Medians over traced passes, plus the traced/untraced mean wall-time ratio minus one."""
    values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    values["trace_overhead_frac"] = (statistics.fmean(r["wall_s"] for r in traced)
                                     / statistics.fmean(r["wall_s"] for r in untraced) - 1)
    samples = dict.fromkeys(values, len(traced))
    samples["trace_overhead_frac"] = len(traced) + len(untraced)
    return values, samples


def _git_commit():
    try:
        # the ceiling keeps git from reading any repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weilsums").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, short: bool = False) -> tuple:
    """Run passes for `seconds`; return (result line dict, full record dict)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    n_calls = len(workloads.generate(workload, seed, short))
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        passes.append(run_pass(workload, seed, short, traced, timeout=max(remaining, 1)))
        elapsed = time.monotonic() - start
        last = passes[-1].get("pass_s", elapsed)
        if not passes[-1]["ok"] or elapsed + last > RUN_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES[trace] and elapsed + last > seconds:
            break
    recorded = load_digests(workload, seed, short)
    attempted, failed, problems = check_passes(passes, n_calls, recorded)
    untraced = [r for r in passes if r["ok"] and not r["traced"]]
    traced_passes = [r for r in passes if r["ok"] and r["traced"]]
    correct = failed == 0 and not problems and bool(untraced) and (bool(traced_passes) or not trace)
    metrics = {}
    samples = {}
    if untraced and (traced_passes or not trace):
        values, samples = (per_layer_metrics(untraced, traced_passes) if trace
                           else end_to_end_metrics(untraced))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    ok = next((r for r in passes if r["ok"]), {})
    record = {
        "workload": workload,
        "seed": seed,
        "short": short,
        "trace": int(trace),
        "seconds": seconds,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": ok.get("python"),
        "numpy": ok.get("numpy"),
        "thread_env": THREAD_ENV,
        "load": "closed loop, one client: one process and thread, calls back to back",
        "passes": {"untraced": len(untraced), "traced": len(traced_passes),
                   "failed": len(passes) - len(untraced) - len(traced_passes)},
        "calls_per_pass": n_calls,
        "digests_recorded": recorded is not None,
        "samples": samples,
        "pass_wall_s": [round(r["wall_s"], 6) for r in untraced],
        "pass_setup_s": [round(r["setup_s"], 6) for r in untraced],
        "traced_wall_s": [round(r["wall_s"], 6) for r in traced_passes],
        "problems": problems,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    return result, record


def write_record(record: dict):
    """Keep the full record of a run in perfbench/results/, one file per workload, seed and mode."""
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{record['workload']}{'-short' if record['short'] else ''}-seed{record['seed']}-trace{record['trace']}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="a few cheap calls per workload, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "weilsums" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no weilsums source tree at {ROOT}", file=sys.stderr)
        return 2
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.short)
    write_record(record)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
