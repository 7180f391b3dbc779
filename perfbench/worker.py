"""One pass of a workload in a fresh process: every call through weilsums.cli.main.

Run by run.py, never imported by it.  The process starts with the program's
module caches empty, exactly like a real CLI invocation.  It generates the
argv lists, calls `cli.main` on each back to back (one client, closed loop),
and prints one JSON line with per-call latency, exit code and output digest.
With --trace the calls go through perfbench.spans wrappers and the line also
carries the per-layer metrics.

Usage: python3 perfbench/worker.py WORKLOAD SEED SHORT(0|1) TRACE(0|1) WORKDIR
"""

import hashlib
import io
import json
import os
import resource
import sys
import time

import workloads


def _call(main, argv: list, workdir: str) -> tuple:
    """Run one CLI call; return (latency_s, exit code, digest of stdout and --out bytes, error)."""
    out_buf = io.BytesIO()
    out = io.TextIOWrapper(out_buf, encoding="utf-8", newline="\n")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects an argv with exit 2
        code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crash is a failed call, and the pass goes on
        code, error = -1, f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - t0
    sys.stdout, sys.stderr = saved
    out.flush()
    h = hashlib.sha256(out_buf.getvalue())
    if "--out" in argv:
        path = os.path.join(workdir, argv[argv.index("--out") + 1])
        try:
            with open(path, "rb") as fh:
                h.update(b"\0out\0" + fh.read())
            os.remove(path)
        except OSError as e:
            code, error = -1, f"--out file: {e}"
    return latency, code, h.hexdigest()[:8], error


def main() -> int:
    workload, seed, short, trace, workdir = sys.argv[1:6]
    seed, short, trace = int(seed), short == "1", trace == "1"
    import numpy
    import weilsums
    import weilsums.cli

    calls = workloads.generate(workload, seed, short)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    os.chdir(workdir)  # relative --out names land in this pass's own directory
    t_first = time.monotonic()
    results = [_call(weilsums.cli.main, argv, workdir) for argv in calls]
    record = {
        "t_first": t_first,
        "latency_s": [r[0] for r in results],
        "codes": [r[1] for r in results],
        "digests": [r[2] for r in results],
        "errors": {i: r[3] for i, r in enumerate(results) if r[3]},
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "weilsums_file": weilsums.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        record["patched"] = tracer.patched_names
        record["not_restored"] = tracer.restore()
        record["layers"] = spans.layer_metrics(tracer.spans)
        record["span_count"] = len(tracer.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
