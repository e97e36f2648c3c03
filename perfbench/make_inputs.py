"""One benchmark set-up in a fresh process: import, generate inputs, write them.

    python3 perfbench/make_inputs.py --workload NAME --seed N --out-dir DIR [--tiny]

Prints one JSON line with the wall time of each step; run.py starts this
several times and reports the median total as setup_s. The import is timed
because every user of the package pays it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy and tunneltda)
from tunneltda import dataio, synth  # noqa: E402


def main() -> None:
    t_import = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    in_synth = 0.0
    generate_sequence = synth.generate_sequence

    def timed_generate(cfg):
        nonlocal in_synth
        t = time.perf_counter()
        try:
            return generate_sequence(cfg)
        finally:
            in_synth += time.perf_counter() - t

    synth.generate_sequence = timed_generate
    t_gen = time.perf_counter()
    seq = workloads.generate(args.workload, args.seed, args.tiny)
    t_write = time.perf_counter()
    out_dir = Path(args.out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if seq is not None:
        dataio.write_sequence(seq, out_dir)
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "generate_s": t_write - t_gen,
                      "synth_s": in_synth, "write_s": t_end - t_write,
                      "total_s": t_end - T0}))


if __name__ == "__main__":
    main()
