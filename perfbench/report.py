"""Print every metric of BENCHMARK.json for every workload, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload twice through run.py's code, once untraced (end-to-end
metrics) and once with tracing (per-layer metrics), writes the run records
to perfbench/results/ and prints one `workload metric value unit` line per
metric.  Exits 1 if any run is not correct.
"""

import argparse
import sys

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args(argv)
    all_correct = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, record = run.run_benchmark(workload, args.seed, args.seconds, trace)
            run.write_record(record)
            all_correct &= result["correct"]
            print(f"{workload} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} passes={record['passes']}", flush=True)
            for name, m in result["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}", flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
