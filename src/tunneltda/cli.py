"""Command-line interface.

Subcommands: compute-ph, features, train-predict, warn, loadcalc, synth,
run-all. Exit codes: 0 success, 1 input error (a usage error and a path that
cannot be read or written included), 2 numerical error, 3 warning triggered
(warn/run-all with --gate).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path


from . import blastload, dataio, pipeline, synth
from .errors import InputError, NumericalError
from .features import feature_series
from .topology import DEFAULT_MAX_FILTRATION


def _cmd_compute_ph(args) -> int:
    seq = dataio.load_sequence(args.manifest)
    out_dir = Path(args.out_dir)
    _, rows = pipeline.write_barcode_stage(seq, args.max_filtration, out_dir,
                                           out_dir / "summary.csv")
    for e, b0, f8, f14 in rows:
        print(f"event {e:3d}: beta0@0={b0}  f8={f8:.6g}  f14={f14}")
    print(f"wrote {len(rows)} barcode files to {out_dir}")
    return 0


def _cmd_features(args) -> int:
    barcodes = pipeline.read_barcode_dir(Path(args.barcode_dir))
    dataio.write_features(feature_series(barcodes), args.out)
    print(f"wrote {len(barcodes)} feature rows to {args.out}")
    return 0


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _reject_with_preset(args, *names: str) -> None:
    """--preset paper replaces these inputs, so giving one as well is an error."""
    if args.preset == "paper":
        given = [_flag(n) for n in names if getattr(args, n) is not None]
        if given:
            raise InputError(f"--preset paper cannot be combined with {', '.join(given)}")


def _feature_source(args) -> tuple:
    """(values, truth) of --feature, values by event; truth is the published
    held-out values under --preset paper and None for a features file."""
    _reject_with_preset(args, "features")
    if args.preset == "paper":
        series, truth = pipeline.paper_source()
        if args.feature not in series:
            available = ", ".join(str(k) for k in sorted(series))
            raise InputError(f"--feature {args.feature} is not in the paper fixture; "
                             f"available features: {available}")
        return series[args.feature], truth[args.feature]
    if args.features is None:
        raise InputError(f"{args.command} needs --features FILE or --preset paper")
    _, matrix = dataio.read_features(args.features)
    if not 1 <= args.feature <= matrix.shape[1]:
        raise InputError(f"--feature must be in 1..{matrix.shape[1]}, got {args.feature}")
    return matrix[:, args.feature - 1], None


def _print_experiment(report: pipeline.ExperimentReport) -> None:
    print(f"feature {report.feature_index}: gamma={report.gamma:g} "
          f"sigma={report.sigma:g} trend_guard={report.trend_guard_applied}")
    for e in report.test_events:
        truth = report.truth.get(e)
        err = report.rel_errors.get(e)
        line = f"  event {e}: predicted {report.predictions[e]:.4f}"
        if err is not None:
            line += f"  truth {truth:.4f}  error {100 * err:.2f}%"
        elif truth is not None:
            line += f"  truth {truth:.4f}  error undefined (truth 0)"
        print(line)


def _cmd_train_predict(args) -> int:
    values, truth = _feature_source(args)
    reports, _ = pipeline.run_feature_experiment(
        {args.feature: values}, {args.feature: truth}, args.split)
    report = reports[args.feature]
    _print_experiment(report)
    if args.out:
        dataio.write_json(args.out, report.to_dict())
        print(f"wrote report to {args.out}")
    return 0


def _print_warning(report: pipeline.WarningReport) -> None:
    """The warning decision; a trigger before any blast is explained."""
    if not report.triggered:
        print("no warning triggered")
        return
    print(f"WARNING triggered at event {report.trigger_event} "
          f"({report.criterion} criterion)")
    if report.trigger_event == 0 and report.criterion == "threshold":
        print(f"note: the series starts below the threshold ({report.series[0]:.6g} < "
              f"{report.threshold:.6g}); the default threshold {pipeline.DEFAULT_THRESHOLD} "
              "is in the paper's units, so data on another scale needs its own --threshold")


def _cmd_warn(args) -> int:
    series, _ = _feature_source(args)
    report = pipeline.detect_warning(series, args.threshold, args.rapid_ratio)
    _print_warning(report)
    for note in report.notes:
        print(f"note: {note}")
    if args.out:
        dataio.write_json(args.out, asdict(report))
        print(f"wrote report to {args.out}")
    if report.triggered and args.gate:
        return 3
    return 0


LOADCALC_GEOMETRY = tuple(f.name for f in fields(blastload.BlastConfig))


def _cmd_loadcalc(args) -> int:
    _reject_with_preset(args, *LOADCALC_GEOMETRY)
    if args.preset == "paper":
        load = blastload.paper_preset()
    else:
        missing = [n for n in LOADCALC_GEOMETRY if getattr(args, n) is None]
        if missing:
            raise InputError(
                "loadcalc needs --preset paper or all of: "
                + ", ".join(_flag(n) for n in missing))
        cfg = blastload.BlastConfig(*(getattr(args, n) for n in LOADCALC_GEOMETRY))
        load = blastload.calibrated_from_config(cfg)
    profile = load.profile
    print(f"single-hole peak P_m = {load.single_hole_peak!r} Pa")
    print(f"uniform peak        = {profile.peak_pressure!r} Pa (2R/L = {load.bore_ratio!r})")
    steps = round(profile.total_time * 2000)
    rows = []
    for k in range(steps + 1):
        t = k / 2000.0  # 0.5 ms sampling
        rows.append((t, blastload.load_at(profile, t)))
    if args.out:
        dataio.write_table(args.out, "t_s,pressure_pa", rows)
        print(f"wrote {len(rows)} samples to {args.out}")
    else:
        for t, p in rows:
            print(f"{1000 * t:6.1f} ms  {p:.6e} Pa")
    return 0


def _cmd_synth(args) -> int:
    cfg = synth.ScenarioConfig(**{f.name: getattr(args, f.name)
                                  for f in fields(synth.ScenarioConfig)})
    seq = synth.generate_sequence(cfg)
    manifest = dataio.write_sequence(seq, args.out_dir)
    print(f"wrote {len(seq)} snapshots and manifest to {manifest}")
    return 0


def _cmd_run_all(args) -> int:
    _reject_with_preset(args, "manifest", "seed")
    if args.manifest is not None and args.seed is not None:
        raise InputError("--manifest cannot be combined with --seed")
    if args.preset == "paper":
        seq = None
    elif args.manifest:
        seq = dataio.load_sequence(args.manifest)
    else:
        cfg = synth.ScenarioConfig() if args.seed is None else synth.ScenarioConfig(seed=args.seed)
        seq = synth.generate_sequence(cfg)
    written, warning = pipeline.run_all(
        seq, args.out_dir, max_filtration=args.max_filtration, split=args.split,
        threshold=args.threshold, rapid_change_ratio=args.rapid_ratio)
    for key, path in written.items():
        print(f"{key}: {path}")
    _print_warning(warning)
    return 3 if warning.triggered and args.gate else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunneltda",
        description="Persistence barcodes, feature prediction and collapse "
                    "early-warning for block point clouds under repeated blasts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-ph", help="barcodes for every snapshot in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--max-filtration", type=float, default=DEFAULT_MAX_FILTRATION)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_compute_ph)

    p = sub.add_parser("features",
                       help="extract the 14 features per barcode file, at the file's own cap")
    p.add_argument("--barcode-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train-predict", help="fit one feature series and predict the held-out events")
    p.add_argument("--features")
    p.add_argument("--preset", choices=["paper"])
    p.add_argument("--feature", type=int, default=8)
    p.add_argument("--split", type=int, default=pipeline.DEFAULT_SPLIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train_predict)

    p = sub.add_parser("warn", help="scan a feature series for the collapse warning")
    p.add_argument("--features")
    p.add_argument("--preset", choices=["paper"])
    p.add_argument("--feature", type=int, default=8)
    p.add_argument("--threshold", type=float, default=pipeline.DEFAULT_THRESHOLD)
    p.add_argument("--rapid-ratio", type=float, default=pipeline.DEFAULT_RAPID_RATIO)
    p.add_argument("--gate", action="store_true",
                   help="exit with code 3 when the warning triggers")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_warn)

    p = sub.add_parser("loadcalc", help="equivalent uniform blast load table")
    p.add_argument("--preset", choices=["paper"])
    for name in LOADCALC_GEOMETRY:
        p.add_argument(_flag(name), type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_loadcalc)

    p = sub.add_parser("synth", help="write a synthetic collapse sequence")
    for f in fields(synth.ScenarioConfig):
        p.add_argument(_flag(f.name), type=type(f.default), default=f.default)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run-all", help="full pipeline bundle")
    p.add_argument("--manifest")
    p.add_argument("--preset", choices=["paper"],
                   help="use the published feature series instead of snapshots")
    p.add_argument("--seed", type=int,
                   help="seed for the synthetic scenario, used when neither --manifest "
                        f"nor --preset is given (default {synth.ScenarioConfig.seed})")
    p.add_argument("--max-filtration", type=float, default=DEFAULT_MAX_FILTRATION)
    p.add_argument("--split", type=int, default=pipeline.DEFAULT_SPLIT)
    p.add_argument("--threshold", type=float, default=pipeline.DEFAULT_THRESHOLD)
    p.add_argument("--rapid-ratio", type=float, default=pipeline.DEFAULT_RAPID_RATIO)
    p.add_argument("--gate", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_run_all)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage error, after its message on stderr
            return 1
        raise
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
