import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tunneltda import dataio, features, lssvm, pipeline, topology
from tunneltda.cli import main

from conftest import plus_cloud


def run(args):
    return main([str(a) for a in args])


def test_synth_then_full_stage_chain(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["synth", "--seed", 3, "--n-blocks", 16, "--n-events", 5,
                "--ring-radius", 8, "--out-dir", data]) == 0
    assert (data / "manifest.json").exists()

    bc_dir = tmp_path / "barcodes"
    assert run(["compute-ph", "--manifest", data / "manifest.json",
                "--max-filtration", 20, "--out-dir", bc_dir]) == 0
    assert len(list(bc_dir.glob("barcode_*.csv"))) == 6
    summary = (bc_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "event,beta0_at_0,f8,f14"
    assert all(int(line.split(",")[1]) == 16 for line in summary[1:])

    feats = tmp_path / "features.csv"
    assert run(["features", "--barcode-dir", bc_dir, "--out", feats]) == 0

    report = tmp_path / "report.json"
    assert run(["train-predict", "--features", feats, "--feature", 8,
                "--split", 3, "--out", report]) == 0
    doc = json.loads(report.read_text())
    assert doc["feature_index"] == 8
    assert doc["test_events"] == [4, 5]

    warn_out = tmp_path / "warning.json"
    assert run(["warn", "--features", feats, "--threshold", "0",
                "--out", warn_out]) == 0
    assert json.loads(warn_out.read_text())["triggered"] is False
    capsys.readouterr()


def test_warn_rejects_nan_series_value(tmp_path, capsys):
    feats = tmp_path / "features.csv"
    rows = ["event," + ",".join(f"f{i}" for i in range(1, 15))]
    for event, f8 in enumerate(["21.8", "21.75", "nan", "21.9"]):
        values = ["1.0"] * 14
        values[7] = f8
        rows.append(f"{event}," + ",".join(values))
    feats.write_text("\n".join(rows) + "\n")
    assert run(["warn", "--features", feats, "--threshold", "21.68", "--gate"]) == 1
    assert "event 2 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("event, value", [(18, "nan"), (18, "inf"), (3, "-inf")])
def test_train_predict_refuses_a_value_that_is_not_finite(tmp_path, capsys, event, value):
    # at a held-out event NaN would be scored as an error of nan% and then
    # fail to serialize
    feats = tmp_path / "features.csv"
    rows = ["event," + ",".join(f"f{i}" for i in range(1, 15))]
    for e in range(21):
        values = [str(21.0 - 0.1 * e)] * 14
        if e == event:
            values[7] = value
        rows.append(f"{e}," + ",".join(values))
    feats.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    assert run(["train-predict", "--features", feats, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"input error: feature 8: series value at event {event} "
                            f"is not finite: {float(value)}\n")
    assert "predicted" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-predict", "warn"])
def test_feature_commands_need_a_source(capsys, command):
    assert run([command]) == 1
    assert capsys.readouterr().err == (
        f"input error: {command} needs --features FILE or --preset paper\n")


def test_warn_gate_exit_code_on_fixture(capsys):
    assert run(["warn", "--preset", "paper", "--gate"]) == 3
    out = capsys.readouterr().out
    assert "event 5" in out
    assert "threshold" in out
    assert "starts below" not in out


def test_warn_without_gate_returns_zero(capsys):
    assert run(["warn", "--preset", "paper"]) == 0
    capsys.readouterr()


def test_train_predict_fixture(capsys):
    assert run(["train-predict", "--preset", "paper", "--feature", 13]) == 0
    out = capsys.readouterr().out
    assert "42.0000" in out
    assert "0.00%" in out


def test_loadcalc_preset(tmp_path, capsys):
    out_file = tmp_path / "load.csv"
    assert run(["loadcalc", "--preset", "paper", "--out", out_file]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t_s,pressure_pa"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 71  # 0.5 ms steps across 35 ms
    assert rows[0] == (0.0, 0.0)
    assert rows[-1][0] == 0.035 and rows[-1][1] == 0.0
    peak_row = max(rows, key=lambda r: r[1])
    assert peak_row[0] == 0.005
    assert peak_row[1] == pytest.approx(1.38e8, rel=1e-12)
    pressures = np.array([r[1] for r in rows])
    assert np.all(pressures >= 0)
    assert (pressures == pressures.max()).sum() == 1
    capsys.readouterr()


LOADCALC_CONFIG = {"--radius": 0.021, "--spacing": 0.45, "--charge-density": 1000,
                   "--detonation-velocity": 3600, "--uncoupling": 1.4, "--enlargement": 8}


@pytest.mark.parametrize("changes, message", [
    ({"--detonation-velocity": "inf"}, "detonation_velocity must be positive and finite, got inf"),
    ({"--charge-density": 1e300, "--detonation-velocity": 1e5},
     "single-hole peak pressure inf is not finite"),
    ({"--detonation-velocity": 1e200}, "single-hole peak pressure inf is not finite"),
], ids=["infinite-velocity", "product-overflows", "power-overflows"])
def test_loadcalc_refuses_a_load_that_is_not_finite(tmp_path, capsys, changes, message):
    args = [a for flag, value in {**LOADCALC_CONFIG, **changes}.items() for a in (flag, value)]
    assert run(["loadcalc", *args, "--out", tmp_path / "load.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err
    assert not (tmp_path / "load.csv").exists()


def test_loadcalc_requires_config_or_preset(capsys):
    assert run(["loadcalc"]) == 1
    assert "input error" in capsys.readouterr().err


def test_missing_manifest_is_input_error(tmp_path, capsys):
    assert run(["compute-ph", "--manifest", tmp_path / "nope.json",
                "--out-dir", tmp_path / "o"]) == 1
    assert "input error" in capsys.readouterr().err


def test_features_refuses_mixed_caps(tmp_path, capsys):
    # each barcode's features are taken at its own cap, so a series mixing
    # caps would compare features measured on different scales
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", 2,
         "--ring-radius", 6, "--out-dir", data])
    bc_dir, other = tmp_path / "barcodes", tmp_path / "other"
    for cap, out_dir in ((30, bc_dir), (18, other)):
        run(["compute-ph", "--manifest", data / "manifest.json",
             "--max-filtration", cap, "--out-dir", out_dir])
    (bc_dir / "barcode_001.csv").write_bytes((other / "barcode_001.csv").read_bytes())
    capsys.readouterr()
    assert run(["features", "--barcode-dir", bc_dir, "--out", tmp_path / "f.csv"]) == 1
    err = capsys.readouterr().err
    assert "barcode_000.csv has max_filtration 30.0" in err
    assert "barcode_001.csv has 18.0" in err
    assert not (tmp_path / "f.csv").exists()


def test_features_refuses_two_barcode_files_for_one_event(tmp_path, capsys):
    # barcode_001.csv and barcode_1.csv both name event 1; neither may win
    bc_dir = tmp_path / "barcodes"
    bc_dir.mkdir()
    for name in ("barcode_000.csv", "barcode_001.csv", "barcode_1.csv"):
        (bc_dir / name).write_text("# max_filtration=30.0\ndim,birth,death\n0,0.0,inf\n")
    assert run(["features", "--barcode-dir", bc_dir, "--out", tmp_path / "f.csv"]) == 1
    err = capsys.readouterr().err
    assert (f"input error: barcode_001.csv and barcode_1.csv in {bc_dir} are both barcode "
            "files for event 1") in err
    assert not (tmp_path / "f.csv").exists()


def test_features_names_a_barcode_file_with_a_bad_cap(tmp_path, capsys):
    # nan != nan, so two nan caps would otherwise pass for two mixed caps
    bc_dir = tmp_path / "barcodes"
    bc_dir.mkdir()
    for event in (0, 1):
        (bc_dir / f"barcode_00{event}.csv").write_text(
            "# max_filtration=nan\ndim,birth,death\n0,0.0,inf\n")
    assert run(["features", "--barcode-dir", bc_dir, "--out", tmp_path / "f.csv"]) == 1
    err = capsys.readouterr().err
    assert (f"{bc_dir / 'barcode_000.csv'}:1: max_filtration must be positive and finite, "
            "got nan") in err
    assert not (tmp_path / "f.csv").exists()


def test_run_all_fixture_gate(tmp_path, capsys):
    assert run(["run-all", "--preset", "paper", "--gate",
                "--out-dir", tmp_path / "bundle"]) == 3
    assert (tmp_path / "bundle" / "experiment.json").exists()
    assert (tmp_path / "bundle" / "warning.json").exists()
    capsys.readouterr()


def write_features_file(path, n_events=4):
    rows = ["event," + ",".join(f"f{i}" for i in range(1, 15))]
    for event in range(n_events):
        rows.append(f"{event}," + ",".join(str(30.0 - event - 0.1 * i) for i in range(14)))
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("command", [["warn"], ["train-predict", "--split", 2]],
                         ids=["warn", "train-predict"])
@pytest.mark.parametrize("feature", [0, 15, -1])
def test_feature_out_of_range_is_input_error(tmp_path, capsys, command, feature):
    feats = write_features_file(tmp_path / "features.csv")
    assert run(command + ["--features", feats, "--feature", feature]) == 1
    assert f"--feature must be in 1..14, got {feature}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["warn", "train-predict"])
@pytest.mark.parametrize("feature", [3, 0, 15])
def test_feature_missing_from_fixture_is_input_error(capsys, command, feature):
    assert run([command, "--preset", "paper", "--feature", feature]) == 1
    err = capsys.readouterr().err
    assert f"--feature {feature} is not in the paper fixture" in err
    assert "available features: 2, 8, 13, 14" in err


def test_warn_rejects_shifted_event_column(tmp_path, capsys):
    # a features file whose events run 100..120: the row index is not the
    # event, so a warning "at event 10" would name the wrong blast
    feats = tmp_path / "features.csv"
    rows = ["event," + ",".join(f"f{i}" for i in range(1, 15))]
    rows += [f"{100 + i}," + ",".join(str(20.0 - i) for _ in range(14)) for i in range(21)]
    feats.write_text("\n".join(rows) + "\n")
    assert run(["warn", "--features", feats, "--threshold", 17, "--gate"]) == 1
    assert ":2: event 100 where 0 was expected" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["warn"], ["run-all"]])
def test_trigger_at_event_zero_is_explained_on_stdout(tmp_path, capsys, command):
    out = tmp_path / "bundle"
    extra = ["--out-dir", out] if command == ["run-all"] else ["--out", out / "warning.json"]
    out.mkdir()
    assert run(command + ["--preset", "paper", "--threshold", 30, "--gate"] + extra) == 3
    stdout = capsys.readouterr().out
    assert "WARNING triggered at event 0 (threshold criterion)" in stdout
    assert "the series starts below the threshold (21.82 < 30)" in stdout
    assert "default threshold 21.68 is in the paper's units" in stdout
    _, t6 = dataio.fixtures()
    report = pipeline.detect_warning(t6.features[8].y, 30.0)
    assert (out / "warning.json").read_text() == \
        json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"


def test_compute_ph_extracts_features_once_per_event(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", 3,
         "--ring-radius", 6, "--out-dir", data])
    capsys.readouterr()
    calls = []
    extract = features.extract_features
    monkeypatch.setattr(features, "extract_features",
                        lambda *a, **k: calls.append(1) or extract(*a, **k))
    assert run(["compute-ph", "--manifest", data / "manifest.json",
                "--out-dir", tmp_path / "barcodes"]) == 0
    assert len(calls) == 4
    assert len(capsys.readouterr().out.splitlines()) == 5


@pytest.mark.parametrize("command, flag", [
    ("warn", "--features"), ("train-predict", "--features"), ("run-all", "--manifest"),
    ("run-all", "--seed"), ("run-all", "--max-filtration"), ("loadcalc", "--radius"),
    ("loadcalc", "--enlargement"),
])
def test_preset_with_another_input_is_input_error(tmp_path, capsys, command, flag):
    # the preset would silently replace the other input, so both are refused
    if flag == "--features":
        value = write_features_file(tmp_path / "features.csv")
    else:
        value = {"--manifest": tmp_path / "manifest.json", "--seed": 3,
                 "--max-filtration": 5}.get(flag, 1.6)
    out = ["--out-dir", tmp_path / "bundle"] if command == "run-all" else []
    assert run([command, "--preset", "paper", flag, value] + out) == 1
    assert f"--preset paper cannot be combined with {flag}" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


def test_run_all_manifest_with_seed_is_input_error(tmp_path, capsys):
    # the manifest's snapshots would silently replace the seeded scenario
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", 3,
         "--ring-radius", 6, "--out-dir", data])
    capsys.readouterr()
    assert run(["run-all", "--manifest", data / "manifest.json", "--seed", 3,
                "--out-dir", tmp_path / "bundle"]) == 1
    assert "--manifest cannot be combined with --seed" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("split, message", [
    (0, "split 0 leaves fewer than 2 training events"),
    (3, "split 3 leaves no test events"),
])
def test_run_all_checks_split_before_writing(tmp_path, capsys, monkeypatch, split, message):
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", 3,
         "--ring-radius", 6, "--out-dir", data])
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "compute_barcodes", None)  # no barcode may be computed
    assert run(["run-all", "--manifest", data / "manifest.json", "--split", split,
                "--out-dir", tmp_path / "bundle"]) == 1
    assert capsys.readouterr().err == f"input error: [train-predict] {message}\n"
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--rapid-ratio", "inf", "rapid-change ratio must be finite, got inf"),
    ("--rapid-ratio", "0", "rapid-change ratio must be positive, got 0.0"),
    ("--threshold", "nan", "warning threshold must be finite, got nan"),
])
def test_warning_settings_are_refused_before_anything_runs(tmp_path, capsys, monkeypatch,
                                                           flag, value, message):
    # no barcode or model may be computed, and no file written
    monkeypatch.setattr(pipeline, "compute_barcodes", None)
    monkeypatch.setattr(pipeline, "run_feature_experiment", None)
    report = tmp_path / "report.json"
    assert run(["warn", "--preset", "paper", flag, value, "--out", report]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not report.exists()
    for source in (["--preset", "paper"], ["--seed", 3]):
        assert run(["run-all", *source, flag, value, "--out-dir", tmp_path / "bundle"]) == 1
        assert capsys.readouterr().err == f"input error: [warn] {message}\n"
        assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("command", ["compute-ph", "run-all"])
def test_infinite_cap_is_input_error(tmp_path, capsys, command):
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", 3,
         "--ring-radius", 6, "--out-dir", data])
    capsys.readouterr()
    assert run([command, "--manifest", data / "manifest.json", "--max-filtration", "inf",
                "--out-dir", tmp_path / "out"]) == 1
    assert "max_filtration must be positive and finite, got inf" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/**/barcode_*.csv"))


def test_compute_ph_rejects_too_many_triangles(tmp_path, capsys):
    # 500 blocks under a covering cap: C(500, 3) = 20,708,500 triangle candidates
    rng = np.random.default_rng(5)
    cloud = topology.PointCloud(tuple(f"b{i}" for i in range(500)),
                                rng.uniform(0.0, 10.0, size=(500, 2)))
    seq = dataio.SnapshotSequence((0,), (cloud,))
    manifest = dataio.write_sequence(seq, tmp_path / "data")
    assert run(["compute-ph", "--manifest", manifest, "--max-filtration", 20,
                "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "500 blocks at max_filtration 20 give 20708500 triangle candidates" in err
    assert f"limit of {topology.MAX_TRIANGLE_CANDIDATES}" in err
    assert not list((tmp_path / "out").glob("barcode_*.csv"))


@pytest.mark.parametrize("events", [(0.9, 1), (0, True), ("0", 1)])
def test_manifest_event_must_be_a_json_integer(tmp_path, capsys, events):
    # int() would read each of these as a valid event index
    (tmp_path / "snapshot.csv").write_text("block_id,x,y\nb0,0.0,0.0\nb1,1.0,0.0\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        {"snapshots": [{"event": e, "path": "snapshot.csv"} for e in events]}))
    assert run(["compute-ph", "--manifest", manifest, "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {manifest}: each snapshot entry needs an integer 'event'")
    assert not (tmp_path / "out").exists()


def test_stage_commands_reproduce_run_all(tmp_path, capsys):
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 16, "--n-events", 8,
         "--ring-radius", 8, "--out-dir", data])
    manifest, bundle, stages = data / "manifest.json", tmp_path / "bundle", tmp_path / "stages"
    assert run(["run-all", "--manifest", manifest, "--max-filtration", 20, "--split", 5,
                "--out-dir", bundle]) == 0
    assert run(["compute-ph", "--manifest", manifest, "--max-filtration", 20,
                "--out-dir", stages]) == 0
    assert run(["features", "--barcode-dir", stages, "--out", stages / "features.csv"]) == 0
    assert run(["train-predict", "--features", stages / "features.csv", "--feature", 8,
                "--split", 5, "--out", stages / "report.json"]) == 0
    assert run(["warn", "--features", stages / "features.csv",
                "--out", stages / "warning.json"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (bundle / "barcodes").iterdir())
    assert names == sorted(p.name for p in stages.glob("barcode_*.csv"))
    assert len(names) == 9
    for name in names:
        assert (bundle / "barcodes" / name).read_bytes() == (stages / name).read_bytes()
    for name in ("summary.csv", "features.csv", "warning.json"):
        assert (bundle / name).read_bytes() == (stages / name).read_bytes()
    assert json.loads((bundle / "experiment.json").read_text())["8"] == \
        json.loads((stages / "report.json").read_text())


def unreadable_input(tmp_path, case):
    """Arguments for one malformed input or unusable path."""
    manifest = tmp_path / "manifest.json"
    entry = {"event": 0, "path": "snapshot.csv"}
    if case == "manifest-is-a-list":
        manifest.write_text(json.dumps([entry]))
    elif case == "path-not-a-string":
        manifest.write_text(json.dumps({"snapshots": [{"event": 0, "path": 5}]}))
    else:
        manifest.write_text(json.dumps({"snapshots": [entry]}))
    if case == "snapshot-is-a-directory":
        (tmp_path / "snapshot.csv").mkdir()
    elif case == "snapshot-not-utf8":
        (tmp_path / "snapshot.csv").write_bytes(b"block_id,x,y\n\xff,0.0,0.0\n")
    if case in ("train-predict", "warn", "loadcalc"):
        return [case, "--preset", "paper", "--out", tmp_path / "missing" / "out"]
    if case == "run-all":
        (tmp_path / "file").write_text("")
        return ["run-all", "--preset", "paper", "--out-dir", tmp_path / "file" / "bundle"]
    return ["compute-ph", "--manifest", manifest, "--out-dir", tmp_path / "out"]


@pytest.mark.parametrize("case", [
    "manifest-is-a-list", "path-not-a-string", "snapshot-is-a-directory",
    "snapshot-not-utf8", "train-predict", "warn", "loadcalc", "run-all",
])
def test_unreadable_or_unwritable_input_is_input_error(tmp_path, capsys, case):
    # the last four write --out under a missing directory or --out-dir under a file
    assert run(unreadable_input(tmp_path, case)) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    if case == "snapshot-not-utf8":
        assert str(tmp_path / "snapshot.csv") in err


@pytest.mark.parametrize("args, flag", [
    (["compute-ph", "--manifest", "m.json", "--out-dir", "out", "--keep-zero-bars"],
     "--keep-zero-bars"),
    (["run-all", "--split", "abc", "--out-dir", "out"], "--split"),
    (["compute-ph", "--manifest", "m.json"], "--out-dir"),
    (["features", "--barcode-dir", "b", "--out", "f.csv", "--max-filtration", "18"],
     "--max-filtration"),
])
def test_usage_error_exits_one_with_argparse_message(capsys, args, flag):
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and flag in err and "Traceback" not in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["compute-ph", "--help"])
    assert exc.value.code == 0
    assert "--manifest" in capsys.readouterr().out


def test_zero_truth_gives_no_relative_error(tmp_path, capsys):
    # f14 (holes) drops to 0 from event 16 on, so the held-out truth is 0
    # there and |prediction - truth| / |truth| has no value
    feats = tmp_path / "features.csv"
    rows = ["event," + ",".join(f"f{i}" for i in range(1, 15))]
    for event in range(21):
        values = ["1.0"] * 14
        values[13] = str(max(0, 5 - event // 4)) if event < 16 else "0"
        rows.append(f"{event}," + ",".join(values))
    feats.write_text("\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    assert run(["train-predict", "--features", feats, "--feature", 14, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "event 16: predicted" in stdout
    assert stdout.count("error undefined (truth 0)") == 5

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["rel_errors"] == {}
    assert doc["truth"] == {str(e): 0.0 for e in range(16, 21)}


@pytest.mark.parametrize("flag, value, name", [
    ("--collapse-rate", "nan", "collapse_rate"),
    ("--jitter", "inf", "jitter"),
    ("--ring-radius", "inf", "ring_radius"),
])
def test_synth_rejects_non_finite_parameter(tmp_path, capsys, flag, value, name):
    assert run(["synth", flag, value, "--out-dir", tmp_path / "data"]) == 1
    err = capsys.readouterr().err
    assert name in err and value in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("args, prefix", [
    (["run-all", "--preset", "paper"], "[train-predict] feature 2: "),
    (["train-predict", "--preset", "paper", "--feature", 14], "feature 14: "),
], ids=["run-all", "train-predict"])
def test_numerical_error_names_the_feature(tmp_path, capsys, monkeypatch, args, prefix):
    # no solve meets a zero residual tolerance, so the search fails at its
    # first grid point, in the first searched feature (the paper's f13 is
    # constant and takes no search)
    monkeypatch.setattr(lssvm, "KKT_RESIDUAL_TOL", 0.0)
    if args[0] == "run-all":
        args = args + ["--out-dir", tmp_path / "out"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical error: {prefix}KKT solve failed at gamma=1, ")


def readme_commands():
    """The tunneltda lines of README's "Command line" block, as argument lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("tunneltda ")]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # a flag that the parser no longer has must not survive in the docs
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 10
    for args in commands:
        assert run(args) == (3 if "--gate" in args else 0), args
    capsys.readouterr()


def test_out_of_memory_exits_one_without_a_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(pc, cap):
        raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (11585, 11585)")
    monkeypatch.setattr(topology.PointCloud, "edges_within", exhausted)
    assert run(["run-all", "--seed", 1, "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err == ("input error: out of memory: Unable to allocate 1.00 GiB for an array "
                   "with shape (11585, 11585)\n")


def test_edge_candidate_limit_exits_one_and_writes_nothing(tmp_path, capsys):
    # the x sweep would measure more than topology.MAX_EDGE_CANDIDATES pairs
    cloud = plus_cloud()
    dataio.write_sequence(dataio.SnapshotSequence((0, 1, 2), (cloud,) * 3), tmp_path / "data")
    out = tmp_path / "out"
    assert run(["run-all", "--manifest", tmp_path / "data" / "manifest.json",
                "--max-filtration", 0.01, "--split", 1, "--out-dir", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "input error: [compute-ph] [persistence event 0] 11600 blocks at max_filtration 0.01 "
        f"give 16991045 block pairs within the cap in x, above the limit of "
        f"{topology.MAX_EDGE_CANDIDATES}; lower the cap\n")
    assert [p for p in out.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("command", ["compute-ph", "run-all"])
def test_stale_barcode_files_are_refused(tmp_path, capsys, monkeypatch, command):
    # barcodes of a 21-event run, then a 5-event run into the same directory:
    # features would read events 5..20 of the first run as data
    long, short = tmp_path / "long", tmp_path / "short"
    for n_events, data in ((20, long), (4, short)):
        run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", n_events,
             "--ring-radius", 6, "--out-dir", data])
    out = tmp_path / "out"
    bc_dir = out if command == "compute-ph" else out / "barcodes"
    args = [command, "--max-filtration", 10, "--out-dir", out]
    if command == "run-all":
        args += ["--split", 2]
    assert run(args + ["--manifest", long / "manifest.json"]) == 0
    before = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*")
              if p.is_file()}
    capsys.readouterr()
    monkeypatch.setattr(pipeline, "compute_barcodes", None)  # no barcode may be computed
    assert run(args + ["--manifest", short / "manifest.json"]) == 1
    err = capsys.readouterr().err
    assert (f"{bc_dir / 'barcode_005.csv'} is a barcode file for event 5, but the sequence "
            "has events 0..4; remove it or choose another directory") in err
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*")
            if p.is_file()} == before


LOCALE_SCRIPT = """
import locale, sys
from tunneltda import dataio, synth
from tunneltda.cli import main
from tunneltda.topology import PointCloud

data, out = sys.argv[1:]
if not sys.flags.utf8_mode:
    # the C locale's encoding is ASCII, which cannot write the id
    assert locale.getpreferredencoding(False).lower().replace("-", "") != "utf8"
    seq = synth.generate_sequence(synth.ScenarioConfig(n_blocks=12, n_events=4, seed=3,
                                                       ring_radius=6.0))
    ids = ("\\u00e9",) + seq.clouds[0].ids[1:]
    clouds = tuple(PointCloud(ids, c.xy) for c in seq.clouds)
    dataio.write_sequence(dataio.SnapshotSequence(seq.events, clouds), data)
    assert dataio.load_sequence(data + "/manifest.json").clouds[0].ids == ids
sys.exit(main(["run-all", "--manifest", data + "/manifest.json", "--split", "2",
               "--out-dir", out]))
"""


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # under the C locale a block id outside ASCII writes and reads back, and
    # run-all on it writes the same bundle bytes as under UTF-8
    src = Path(dataio.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C")
    bundles = [tmp_path / "ascii", tmp_path / "utf8"]
    for utf8, out in zip("01", bundles):  # the C locale run writes the data
        result = subprocess.run([sys.executable, "-c", LOCALE_SCRIPT, str(tmp_path), str(out)],
                                env=dict(env, PYTHONUTF8=utf8), capture_output=True)
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert "\u00e9" in (tmp_path / "snapshot_000.csv").read_text(encoding="utf-8")
    c_locale, utf8 = ({p.relative_to(b): p.read_bytes() for p in b.rglob("*") if p.is_file()}
                      for b in bundles)
    assert len(c_locale) == 15 and c_locale == utf8
