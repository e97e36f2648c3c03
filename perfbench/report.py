"""Run every workload in its own process and print its end-to-end metrics.

    python3 perfbench/report.py [--seed 7] [--seconds 30] [--trace 0|1]

Each workload's lines come from run.py: every metric with its unit and
sample count, and the correctness check against the recorded reference. A
closing table lists fail_frac per workload. Exits 1 if any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}", flush=True)
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            rows.append((workload, "run failed"))
            continue
        result = json.loads(lines[-1])
        rows.append((workload, f"{result['failed']}/{result['attempted']}"
                               f"{'' if result['correct'] else '  WRONG OUTPUT'}"))
    print("== fail_frac (failed/attempted operations)")
    for workload, text in rows:
        print(f"{workload:16s} {text}")
    return 0 if all(text.startswith("0/") for _, text in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
