"""Record the per-call output digests of this tree into perfbench/digests.json.

    python3 perfbench/record_digests.py [SEEDS]

For each workload, full and short, and each seed in 0..SEEDS-1 (default 32)
it runs one untraced pass and stores the 8-hex-digit SHA-256 prefix of every
call's stdout and --out bytes.  run.py then fails any call whose output
differs.  CLI output is byte-identical by contract, so this is rerun only
when a workload's argv lists change, never to make a changed program pass.
"""

import json
import sys

import run
import workloads


def main() -> int:
    seeds = range(int(sys.argv[1]) if len(sys.argv) > 1 else 32)
    table = {}
    for workload in workloads.WORKLOADS:
        for short in (False, True):
            key = workload + ("/short" if short else "")
            table[key] = {}
            for seed in seeds:
                rec = run.run_pass(workload, seed, short, traced=False, timeout=run.RUN_LIMIT_S)
                if not rec["ok"] or any(rec["codes"]) or rec["errors"]:
                    print(f"{key} seed {seed}: {rec.get('error') or rec['errors']}", file=sys.stderr)
                    return 1
                table[key][str(seed)] = " ".join(rec["digests"])
            print(f"{key}: {len(seeds)} seeds", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
