"""Record the exact reference outputs that run.py checks every operation against.

    python3 perfbench/record_refs.py [--seeds 0-31,1009]

Run it from the root of a checkout at the commit whose outputs are the
reference. For each seed it records the sha256 of every ring42-bundle file
and of each rubble-stream event's bars, features and warning decision;
paper-fixture gets one entry, since it does not depend on the seed. Every
recorded output must also pass the workload's independent oracle.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tunneltda import dataio  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(name: str, seed: int, tmp: Path) -> list:
    in_dir, out_dir = tmp / "inputs", tmp / "bundle"
    shutil.rmtree(in_dir, ignore_errors=True)
    in_dir.mkdir(parents=True)
    seq = workloads.generate(name, seed)
    if seq is not None:
        dataio.write_sequence(seq, in_dir)
    work = workloads.CLASSES[name](in_dir, out_dir)
    outcomes = []
    for i in range(work.cycle):
        work.before(i)
        work.run(i)
        if not work.oracle(i):
            raise SystemExit(f"{name} seed {seed} operation {i} fails its oracle")
        outcomes.append(work.outcome(i))
    return outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31,1009")
    args = parser.parse_args()
    refs = {name: {} for name in workloads.NAMES}
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        refs["paper-fixture"]["any"] = record("paper-fixture", 0, Path(tmp))
        for seed in parse_seeds(args.seeds):
            for name in ("ring42-bundle", "rubble-stream"):
                refs[name][str(seed)] = record(name, seed, Path(tmp))
            print(f"recorded seed {seed}", flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
