import json

import numpy as np
import pytest

from tunneltda import dataio, features, pipeline, topology
from tunneltda.cli import main


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


def test_loadcalc_requires_config_or_preset(capsys):
    assert run(["loadcalc"]) == 1
    assert "input error" in capsys.readouterr().err


def test_missing_manifest_is_input_error(tmp_path, capsys):
    assert run(["compute-ph", "--manifest", tmp_path / "nope.json",
                "--out-dir", tmp_path / "o"]) == 1
    assert "input error" in capsys.readouterr().err


def test_features_warns_on_mixed_filtration(tmp_path, capsys):
    data = tmp_path / "data"
    run(["synth", "--seed", 3, "--n-blocks", 12, "--n-events", 2,
         "--ring-radius", 6, "--out-dir", data])
    bc_dir = tmp_path / "barcodes"
    run(["compute-ph", "--manifest", data / "manifest.json",
         "--max-filtration", 15, "--out-dir", bc_dir])
    capsys.readouterr()
    with pytest.warns(UserWarning, match="mixed|extracted with"):
        assert run(["features", "--barcode-dir", bc_dir,
                    "--max-filtration", 18, "--out", tmp_path / "f.csv"]) == 0
    capsys.readouterr()


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
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


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
    ("run-all", "--seed"), ("loadcalc", "--radius"), ("loadcalc", "--enlargement"),
])
def test_preset_with_another_input_is_input_error(tmp_path, capsys, command, flag):
    # the preset would silently replace the other input, so both are refused
    if flag == "--features":
        value = write_features_file(tmp_path / "features.csv")
    else:
        value = {"--manifest": tmp_path / "manifest.json", "--seed": 3}.get(flag, 1.6)
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
