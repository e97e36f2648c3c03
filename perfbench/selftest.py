"""Self-test of the benchmark harness, kept out of the package's test suite.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs for one second, timed and traced, and
checks the result line against BENCHMARK.json: exactly the four result keys,
every metric named there with its unit, numeric values, positive end-to-end
values and no failed operation. Then checks that run.py exits non-zero
without a result line when the checkout holds no package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit code {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} operations failed")
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {units}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: malformed metric {name}: {m}")
        elif not trace and not m["value"] > 0:
            problems.append(f"{where}: end-to-end metric {name} is {m['value']}")
    return problems


def check_without_sources() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit code {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_result(workload, trace)
            print(f"{workload:16s} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_without_sources()
    print(f"{'without sources':16s}        : {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
