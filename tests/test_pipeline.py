import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltda import dataio, features, pipeline, topology
from tunneltda.dataio import SnapshotSequence
from tunneltda.errors import InputError
from tunneltda.pipeline import (FeaturePredictor, detect_warning, run_all,
                                run_feature_experiment, run_table6_experiment)
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import PointCloud, betti_numbers

import reference_warning


# ---------------------------------------------------------------------------
# warning criterion

def table6_f8():
    _, t6 = dataio.fixtures()
    return t6.features[8].y


def test_warning_on_published_series():
    report = detect_warning(table6_f8(), threshold=21.68)
    assert report.triggered
    assert report.criterion == "threshold"
    assert report.trigger_event == 5
    assert report.at_threshold_events == (4,)
    assert any("event 4" in note for note in report.notes)


@pytest.mark.parametrize("series, threshold", [
    ([21.8, 21.75, float("nan"), 21.9], 21.68),
    ([21.8, 21.75, float("nan"), 21.9], None),
    ([21.8, float("-inf"), 21.9], 21.68),
    ([21.8, 21.75, 21.9], float("nan")),
])
def test_warning_rejects_non_finite(series, threshold):
    with pytest.raises(InputError, match="finite"):
        detect_warning(series, threshold=threshold)


@pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan")])
def test_warning_rapid_change_ratio_must_be_positive(ratio):
    with pytest.raises(InputError, match=f"rapid-change ratio must be positive, got {ratio}"):
        detect_warning(table6_f8(), rapid_change_ratio=ratio)


def test_warning_constant_series_never_triggers():
    report = detect_warning([42.0] * 21)
    assert not report.triggered
    assert report.trigger_event is None


def test_warning_rapid_change_fires_at_step():
    series = [10.0 - 0.01 * k for k in range(11)]  # ten identical drops
    series.append(series[-1] - 0.5)                # then a 50x drop
    report = detect_warning(series, threshold=None)
    assert report.triggered
    assert report.criterion == "rapid-change"
    assert report.trigger_event == 11


def test_warning_threshold_checked_before_rapid_change():
    series = [30.0, 29.9, 29.8, 20.0]  # event 3 breaks both criteria
    report = detect_warning(series, threshold=25.0)
    assert report.trigger_event == 3
    assert report.criterion == "threshold"


def test_warning_lower_threshold_never_fires_earlier():
    series = table6_f8()
    events = []
    for threshold in (21.68, 20.0, 18.0, 16.5):
        r = detect_warning(series, threshold=threshold)
        events.append(r.trigger_event if r.triggered else len(series))
    assert events == sorted(events)


def test_warning_needs_two_events():
    with pytest.raises(InputError):
        detect_warning([1.0])


def test_warning_flat_prefix_guarded():
    # median prior drop is zero: the ratio criterion must stay silent
    report = detect_warning([5.0, 5.0, 5.0, 4.0], threshold=None)
    assert not report.triggered


# a few shared levels make ties between values and drops, and plateaus, common
LEVELS = st.sampled_from([16.0, 17.5, 18.0, 18.0, 21.68, 21.7])
STEPS = st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.5, 2.0, -0.02])
warning_series = st.one_of(
    st.lists(st.one_of(LEVELS, st.floats(0.0, 30.0)), min_size=2, max_size=40),
    st.builds(lambda start, steps: list(start - np.cumsum([0.0] + steps)),
              LEVELS, st.lists(STEPS, min_size=1, max_size=39)),
)


@settings(max_examples=300, deadline=None)
@given(warning_series, st.one_of(st.none(), LEVELS, st.floats(0.0, 30.0)),
       st.sampled_from([0.5, 1.0, 2.0, 10.0]))
def test_warning_matches_per_event_reference_scan(series, threshold, ratio):
    # the drops are built once per call; the reference rebuilds them per event
    assert detect_warning(series, threshold, ratio) == reference_warning.detect_warning(
        series, threshold, ratio)


# ---------------------------------------------------------------------------
# prediction protocol

def test_table6_experiment_meets_error_gates():
    reports = run_table6_experiment()
    assert reports[8].max_rel_error() <= 0.05
    assert reports[2].max_rel_error() <= 0.12
    assert reports[13].max_rel_error() == 0.0
    for k in (2, 8, 13, 14):
        assert reports[k].train_events == tuple(range(16))
        assert reports[k].test_events == tuple(range(16, 21))


def test_constant_feature_predicts_exactly():
    values = np.full(21, 42.0)
    truth = {e: 42.0 for e in range(16, 21)}
    reports, predictors = run_feature_experiment({13: values}, {13: truth})
    report, predictor = reports[13], predictors[13]
    assert all(v == 42.0 for v in report.predictions.values())
    assert report.max_rel_error() == 0.0
    assert np.all(predictor.model.alphas == 0.0)


def test_trend_guard_applies_only_to_monotone_series():
    down = np.linspace(10.0, 4.0, 12)
    report = run_feature_experiment({8: down}, {8: {}}, split=8)[0][8]
    assert report.trend_guard_applied
    preds = [report.predictions[e] for e in sorted(report.predictions)]
    assert all(a >= b for a, b in zip(preds, preds[1:]))
    assert preds[0] <= down[8]

    wiggly = np.array([3.0, 4.0, 2.0, 5.0, 3.5, 4.2, 2.8, 4.9, 3.1, 4.4, 2.6, 4.7])
    report = run_feature_experiment({14: wiggly}, {14: {}}, split=8)[0][14]
    assert not report.trend_guard_applied


def test_trend_guard_keeps_a_rising_series_rising():
    # forecasts are clamped to at least the last training value, then made
    # non-decreasing by a running max
    preds, guarded = pipeline._apply_trend_guard(np.array([1.0, 2.0, 3.0]),
                                                 np.array([2.5, 4.0, 3.5, 5.0]))
    assert guarded
    assert preds.tolist() == [3.0, 4.0, 4.0, 5.0]

    up = np.linspace(4.0, 10.0, 12)
    report = run_feature_experiment({2: up}, {2: {}}, split=8)[0][2]
    assert report.trend_guard_applied
    preds = [report.predictions[e] for e in sorted(report.predictions)]
    assert all(a <= b for a, b in zip(preds, preds[1:]))
    assert preds[0] >= up[8]


@pytest.mark.parametrize("split", [0, -1])
def test_experiment_needs_two_training_events(split):
    with pytest.raises(InputError, match=f"split {split} leaves fewer than 2 training events"):
        run_feature_experiment({8: table6_f8()}, {8: None}, split=split)


def test_experiment_requires_test_events():
    with pytest.raises(InputError):
        run_feature_experiment({1: np.arange(5.0)}, {1: {}}, split=10)


def test_experiment_series_must_share_one_length():
    # a value's position is its event, so a short series would leave held-out
    # events without a value and a long one would add events the others lack
    series = {8: np.linspace(21.0, 17.0, 21), 14: np.linspace(8.0, 14.0, 20)}
    with pytest.raises(InputError, match=r"got lengths \{8: 21, 14: 20\}"):
        run_feature_experiment(series, dict.fromkeys(series))


def test_predictor_round_trips_through_model_file(tmp_path):
    # trained on events 0..15
    predictor = run_feature_experiment({8: table6_f8()}, {8: None})[1][8]
    path = tmp_path / "model.json"
    dataio.write_model(predictor.model, predictor.x_mean, predictor.x_std, path)
    model, mean, std = dataio.read_model(path)
    back = FeaturePredictor(model, mean, std)
    query = np.arange(16, 21)
    assert np.allclose(predictor.predict(query), back.predict(query), atol=1e-12)


# ---------------------------------------------------------------------------
# full bundle

def small_scenario():
    return generate_sequence(ScenarioConfig(n_blocks=18, n_events=8, seed=5,
                                            ring_radius=8.0, collapse_rate=0.4,
                                            jitter=0.04))


def test_compute_barcodes_calls_barcode_from_cloud_once_per_snapshot(monkeypatch):
    # The ring benchmark cuts its timing at each pipeline.barcode_from_cloud
    # call, looked up through the module attribute. Inside one sequence the
    # ring's repeated edge set is enumerated twice, then reused.
    seq = generate_sequence(ScenarioConfig())
    calls, cofaces = [], []
    from_cloud, build = pipeline.barcode_from_cloud, topology.build_vr_filtration
    monkeypatch.setattr(pipeline, "barcode_from_cloud",
                        lambda *a, **k: calls.append(1) or from_cloud(*a, **k))

    def traced_build(*args):
        f = build(*args)
        cofaces.append(f.cofaces)
        return f
    monkeypatch.setattr(topology, "build_vr_filtration", traced_build)
    for _ in range(2):  # a second sequence starts cold again
        calls.clear()
        cofaces.clear()
        barcodes = pipeline.compute_barcodes(seq, 30.0)
        assert len(calls) == len(barcodes) == len(seq.clouds) == 21
        assert cofaces[0] is None and all(c is not None for c in cofaces[1:])


def test_barcode_dir_reads_only_ascii_digits(tmp_path):
    # \d would read barcode_١.csv (ARABIC-INDIC DIGIT ONE) as event 1. The
    # name is made from its UTF-8 bytes, so it exists under an ASCII
    # file-system encoding too.
    for name in ("barcode_000.csv", "barcode_\u0661.csv"):
        with open(os.fsencode(tmp_path) + b"/" + name.encode("utf-8"), "wb") as fh:
            fh.write(b"# max_filtration=30.0\ndim,birth,death\n0,0.0,inf\n")
    assert len(pipeline.read_barcode_dir(tmp_path)) == 1


def test_barcode_stage_writes_no_zero_length_bar(tmp_path):
    # a block coinciding with another merges at scale 0 and fills every
    # triangle it closes at once: zero-length bars in dims 0 and 1
    seq = small_scenario()
    clouds = tuple(PointCloud(c.ids + ("twin",), np.vstack([c.xy, c.xy[:1]])) for c in seq.clouds)
    seq = SnapshotSequence(seq.events, clouds)
    vectors, _ = pipeline.write_barcode_stage(seq, 25.0, tmp_path, tmp_path / "summary.csv")
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert len(summary) == len(seq.events)
    for event, line, vec in zip(seq.events, summary, vectors):
        b = dataio.read_barcode(tmp_path / pipeline.barcode_filename(event))
        assert b.pairs and all(p.death > p.birth for p in b.pairs)
        beta0 = int(line.split(",")[1])
        assert beta0 == betti_numbers(b, 0.0)[0] == vec.f13 == len(seq.clouds[event]) - 1


def test_run_all_fixture_mode_reproduces_stage_results(tmp_path):
    out = tmp_path / "bundle"
    written, report = run_all(None, out)
    experiment = json.loads((out / "experiment.json").read_text())
    warning = json.loads((out / "warning.json").read_text())
    assert warning["triggered"] and warning["trigger_event"] == 5
    assert warning == json.loads(json.dumps(dataclasses.asdict(report)))
    assert sorted(Path(p).name for p in written.values()) == [
        "experiment.json", "plot_f8_series.csv", "plot_hole_counts.csv", "warning.json"]
    assert warning["at_threshold_events"] == [4]
    direct = run_table6_experiment()
    for k in ("2", "8", "13", "14"):
        got = experiment[k]["predictions"]
        expect = direct[int(k)].predictions
        assert got == {str(e): v for e, v in expect.items()}
    f8_lines = (out / "plot_f8_series.csv").read_text().splitlines()
    assert f8_lines[0] == "event,f8"
    assert len(f8_lines) == 22


def test_run_all_matches_stagewise_composition(tmp_path):
    seq = small_scenario()
    out = tmp_path / "bundle"
    run_all(seq, out, max_filtration=25.0, split=5, threshold=None)

    barcodes = pipeline.compute_barcodes(seq, 25.0)
    from tunneltda.features import feature_matrix, feature_series
    matrix = feature_matrix(feature_series(barcodes))

    events, stored = dataio.read_features(out / "features.csv")
    assert events == list(seq.events)
    assert np.array_equal(stored, matrix)

    for event in seq.events:
        stored_bc = dataio.read_barcode(out / "barcodes" / f"barcode_{event:03d}.csv")
        assert stored_bc.pairs == barcodes[event].pairs

    warning = json.loads((out / "warning.json").read_text())
    direct = pipeline.detect_warning(matrix[:, 7], None)
    assert warning["triggered"] == direct.triggered

    experiment = json.loads((out / "experiment.json").read_text())
    column = matrix[:, 7]
    truth = {e: float(column[e]) for e in seq.events if e > 5}
    direct_report = run_feature_experiment({8: column}, {8: truth}, split=5)[0][8]
    assert experiment["8"]["predictions"] == {
        str(e): v for e, v in direct_report.predictions.items()}


def test_run_all_deterministic_bytes(tmp_path):
    seq = small_scenario()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_all(seq, out1, max_filtration=25.0, split=5, threshold=None)
    run_all(seq, out2, max_filtration=25.0, split=5, threshold=None)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_run_all_extracts_features_once_per_event(tmp_path, monkeypatch):
    seq = small_scenario()
    calls = []
    extract = features.extract_features
    monkeypatch.setattr(features, "extract_features",
                        lambda *a, **k: calls.append(1) or extract(*a, **k))
    run_all(seq, tmp_path / "bundle", max_filtration=25.0, split=5, threshold=None)
    assert len(calls) == len(seq)


def test_run_all_requires_input(tmp_path):
    # seq None is the bundled paper series; a split at its last event
    # leaves nothing to forecast
    with pytest.raises(InputError, match="no test events"):
        run_all(None, tmp_path / "x", split=20)


def test_stage_attribution_in_errors(tmp_path):
    seq = small_scenario()
    with pytest.raises(InputError, match="\\[compute-ph"):
        run_all(seq, tmp_path / "y", max_filtration=-1.0)


def test_no_scored_event_gives_nan_max_rel_error():
    # f14 (holes) is 0 from event 16 on: every held-out truth is 0, so no
    # event is scored, and that must not read as a perfect forecast
    values = np.array([max(0, 5 - e // 4) if e < 16 else 0 for e in range(21)], dtype=float)
    report = run_feature_experiment({14: values}, {14: None})[0][14]
    assert report.rel_errors == {}
    assert math.isnan(report.max_rel_error())
