"""tunneltda benchmark: one workload per run, from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Set-up (import, input generation, writing input files) runs SETUPS times in
fresh processes; the run then times the workload's operation in this process
for S seconds, checks every output against the recorded reference and prints
a summary followed by one JSON line. Times are given in reference seconds,
scaled by a speed probe run next to them (speed.py). --trace 1 is a separate run that reports
per-layer self times and counts from spans instead of the end-to-end metrics.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedClock, probe_s, reference_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFS = HERE / "refs.json"
SETUPS = 9
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
LAYER_TIMES = ("topology.distance", "topology.filtration", "topology.reduction",
               "features.extract", "lssvm.select", "lssvm.train", "lssvm.predict",
               "pipeline.run_all", "pipeline.experiment", "pipeline.warn",
               "dataio.read", "dataio.write")
LAYER_COUNTS = ("topology.simplices", "topology.triangles", "topology.bars_h0",
                "topology.bars_h1", "lssvm.train_calls", "dataio.bytes_read",
                "dataio.bytes_written", "dataio.files_written")
OP_UNIT = {"ring42-bundle": "bundle", "paper-fixture": "bundle", "rubble-stream": "event"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import tunneltda from this checkout's src/, never from anywhere else."""
    if not (SRC / "tunneltda" / "__init__.py").is_file():
        fail(f"no tunneltda sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import tunneltda
    if Path(tunneltda.__file__).resolve().parent != SRC / "tunneltda":
        fail(f"imported tunneltda from {tunneltda.__file__}, not from {SRC}")
    return tunneltda


def run_setups(workload: str, seed: int, in_dir: Path, tiny: bool) -> list[dict]:
    """Time SETUPS set-ups, each in a fresh process with the probe run around it.

    Each set-up's step times come from the child; `reference_s` is its total
    in reference seconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(in_dir)] + (["--tiny"] if tiny else [])
    timings = []
    probe = probe_s()
    for _ in range(SETUPS):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"set-up failed with exit code {done.returncode}:\n{done.stderr}")
        timing = json.loads(done.stdout.splitlines()[-1])
        probe_before, probe = probe, probe_s()
        timing["reference_s"] = reference_s(timing["total_s"], probe_before, probe)
        timings.append(timing)
    return timings


class Checker:
    """Counts attempted and failed operations against the expected outputs.

    With a recorded reference, operation i must reproduce entry i mod cycle
    exactly. Without one, the first cycle must pass the workload's
    independent oracle and every later cycle must reproduce the first.
    """

    def __init__(self, work, reference: list | None, clock: SpeedClock | None = None):
        self.work = work
        self.reference = reference
        self.clock = clock
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0

    def attempt(self) -> float:
        """Run operation number `attempted`; return its wall time in seconds.

        With a clock, the wall time includes the clock's probes, and the
        clock keeps the operation's segments and probes.
        """
        i = self.attempted
        self.attempted += 1
        w = self.work
        w.before(i)
        t0 = time.perf_counter()
        if self.clock:
            self.clock.begin()
        try:
            w.run(i)
        except Exception:
            if self.clock:
                self.clock.end(ok=False)
            elapsed = time.perf_counter() - t0
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return elapsed
        if self.clock:
            self.clock.end(ok=True)
        elapsed = time.perf_counter() - t0
        if not self._correct(i):
            self.failed += 1
        return elapsed

    def _correct(self, i: int) -> bool:
        k = i % self.work.cycle
        outcome = self.work.outcome(i)
        if self.reference is not None:
            ok = k < len(self.reference) and outcome == self.reference[k]
        elif k not in self.first:
            self.first[k] = outcome
            ok = self.work.oracle(i)
        else:
            ok = outcome == self.first[k]
        if not ok and self.failed == 0:
            print(f"perfbench: operation {i} differs from the reference", file=sys.stderr)
        return ok


def run_ops(checker: Checker, seconds: float, whole_cycles: bool = False,
            wrap=None) -> list[float]:
    """Attempt operations for at most `seconds` (at least one operation).

    No operation starts unless one as long as the last would still end in
    time, so that slow operations cannot stretch the run.
    """
    cycle = checker.work.cycle
    samples = []
    t_end = time.perf_counter() + seconds
    while True:
        samples.append(checker.attempt() if wrap is None else wrap(checker.attempt))
        if whole_cycles and checker.attempted % cycle:
            continue
        if time.perf_counter() + samples[-1] > t_end:
            return samples


def traced_metrics(checker: Checker, seconds: float, setups: list[dict]):
    """Untraced then traced operations, each over whole input cycles.

    Returns the per-layer metrics (self times and counts per traced
    operation), the tracer, and the numbers of untraced and traced operations.
    """
    import tracer
    from tunneltda.errors import ConditioningWarning

    untraced = run_ops(checker, seconds / 2, whole_cycles=True)
    tr = tracer.Tracer()
    conditioning = 0

    def traced_op(attempt):
        nonlocal conditioning
        idx = tr.open("op")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ConditioningWarning)
                return attempt()
        finally:
            tr.close(idx)
            conditioning += sum(1 for w in caught if issubclass(w.category, ConditioningWarning))

    tr.install()
    try:
        # Whole input cycles, so that counts per operation repeat exactly.
        traced = run_ops(checker, seconds / 2, whole_cycles=True, wrap=traced_op)
    finally:
        tr.uninstall()
    ops = len(traced)
    self_s = tr.self_times("op")
    metrics = {f"{name}_s": self_s.get(name, 0.0) / ops for name in LAYER_TIMES}
    metrics.update({name: tr.counts.get(name, 0) / ops for name in LAYER_COUNTS})
    metrics["lssvm.conditioning_warnings"] = conditioning / ops
    metrics["synth.generate_s"] = statistics.median(s["synth_s"] for s in setups)
    metrics["cli.self_s"] = self_s.get("cli", 0.0) / ops
    metrics["trace.op_mean_s"] = sum(traced) / ops
    metrics["trace.op_min_s"] = min(traced)
    metrics["trace.untraced_op_min_s"] = min(untraced)
    metrics["trace.overhead_s"] = metrics["trace.op_min_s"] - metrics["trace.untraced_op_min_s"]
    return metrics, tr, len(untraced), ops


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=OP_UNIT)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs with no recorded reference, for the self-test")
    args = parser.parse_args()

    tunneltda = import_package()
    import numpy
    import workloads

    key = workloads.reference_key(args.workload, args.seed, args.tiny)
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    reference = refs.get(args.workload, {}).get(key) if key else None

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    in_dir, out_dir = run_dir / "inputs", run_dir / "bundle"
    try:
        setups = run_setups(args.workload, args.seed, in_dir, args.tiny)
        work = workloads.CLASSES[args.workload](in_dir, out_dir)
        if args.trace:
            checker = Checker(work, reference)
            metrics, tr, n_untraced, n_traced = traced_metrics(checker, args.seconds, setups)
        else:
            clock = SpeedClock(work.split_at)
            checker = Checker(work, reference, clock)
            clock.install()
            try:
                run_ops(checker, args.seconds)
            finally:
                clock.uninstall()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "tunneltda": tunneltda.__version__,
           "reference": f"recorded ({key})" if reference is not None else "first cycle + oracle"}
    print("env: " + json.dumps(env))
    unit = OP_UNIT[args.workload]
    if args.trace:
        units = per_layer_units()
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"
        tr.write(trace_path, env)
        print(f"traced {n_traced} {unit}s after {n_untraced} untraced; spans in {trace_path}")
        base = metrics["trace.op_mean_s"]
        shared = {f"{name}_s" for name in LAYER_TIMES} | {"cli.self_s"}
        for name, value in metrics.items():
            share = f"  {100 * value / base:5.1f}% of trace.op_mean_s" if name in shared else ""
            print(f"{name:30s} {value:14.6g} {units[name]}{share}")
        result_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        ops = clock.reference_s()
        wall = clock.wall_s()
        if not ops:
            fail(f"every {unit} failed; nothing was timed")
        metrics = {"setup_s": statistics.median(s["reference_s"] for s in setups),
                   "op_p50_ms": 1000.0 * statistics.median(ops),
                   "peak_rss_mb": peak_mb}
        steps = ", ".join(f"{step} {statistics.median(s[step + '_s'] for s in setups):.3g} s"
                          for step in ("import", "generate", "write"))
        n_probes = sum(len(probes) for _, probes in clock.ops)
        counts = {"setup_s": f"median of {len(setups)} set-ups, reference seconds; "
                             f"wall medians: {steps}",
                  "op_p50_ms": f"median of {len(ops)} {unit}s, reference ms; "
                               f"{n_probes} probes",
                  "peak_rss_mb": "ru_maxrss of this process"}
        for name, value in metrics.items():
            print(f"{name:12s} {value:12.6g} {END_TO_END_UNITS[name]:3s}  ({counts[name]})")
        # Not gated: other tenants of the host move wall times by tens of percent.
        print(f"{'wall_p50_ms':12s} {1000 * statistics.median(wall):12.6g} ms   "
              f"(median of {len(wall)} {unit}s, wall time, informational)")
        print(f"{'wall_min_ms':12s} {1000 * min(wall):12.6g} ms   "
              f"(fastest {unit}, wall time, informational)")
        if len(ops) >= 100:
            p90 = statistics.quantiles(ops, n=10)[-1]
            print(f"{'op_p90_ms':12s} {1000 * p90:12.6g} ms   (p90 of {len(ops)} {unit}s, "
                  "reference ms, informational)")
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in metrics.items()}
    print(f"fail_frac    {checker.failed}/{checker.attempted} operations")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result_metrics}))


if __name__ == "__main__":
    main()
