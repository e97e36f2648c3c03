"""Orchestration: snapshots -> barcodes -> features -> prediction -> warning.

The prediction protocol mirrors the published experiment: one regressor per
feature with the blast index as input, trained on events 0..split and
evaluated on the remaining events. The early warning watches the longest
dim-1 bar (feature 8): the collapse boundary is flagged when it drops
strictly below the threshold, or when a single per-event drop dwarfs the
typical drop seen so far.
"""

from __future__ import annotations

import json
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio, features, lssvm
from .dataio import SnapshotSequence
from .errors import InputError, NumericalError
from .topology import (Barcode, DEFAULT_MAX_FILTRATION, barcode_from_cloud,
                       betti_numbers)

DEFAULT_THRESHOLD = 21.68
DEFAULT_RAPID_RATIO = 10.0
DEFAULT_SPLIT = 15
EXPERIMENT_FEATURES = (2, 8, 13, 14)


@contextmanager
def _stage(name: str):
    """Re-raise pipeline errors with the failing stage attached."""
    try:
        yield
    except (InputError, NumericalError) as exc:
        exc.args = (f"[{name}] {exc.args[0] if exc.args else exc}",) + exc.args[1:]
        raise


# ---------------------------------------------------------------------------
# persistence and features

def compute_barcodes(seq: SnapshotSequence,
                     max_filtration: float = DEFAULT_MAX_FILTRATION,
                     keep_zero_bars: bool = False) -> list[Barcode]:
    """One barcode per snapshot, in event order."""
    barcodes = []
    for event, cloud in zip(seq.events, seq.clouds):
        with _stage(f"persistence event {event}"):
            barcodes.append(barcode_from_cloud(cloud, max_filtration, keep_zero_bars))
    return barcodes


def summary_rows(barcodes: list[Barcode],
                 vectors: list[features.FeatureVector]) -> list[tuple[int, int, float, int]]:
    """Per event: (event, components at scale 0, longest hole bar, hole count)."""
    return [(event, betti_numbers(b, 0.0)[0], vec.f8, vec.f14)
            for event, (b, vec) in enumerate(zip(barcodes, vectors))]


SUMMARY_HEADER = "event,beta0_at_0,f8,f14"


def barcode_filename(event: int) -> str:
    return f"barcode_{event:03d}.csv"


def write_summary(rows: list[tuple[int, int, float, int]], path: str | Path) -> None:
    dataio.write_table(path, SUMMARY_HEADER, rows)


# ---------------------------------------------------------------------------
# per-feature prediction

@dataclass(frozen=True)
class FeaturePredictor:
    """A trained regressor over the blast index, with its input standardization."""

    model: lssvm.LssvmModel
    x_mean: float
    x_std: float

    @classmethod
    def fit(cls, events: np.ndarray, values: np.ndarray) -> "FeaturePredictor":
        """LOO grid search over (gamma, sigma) on standardized event indices.

        A constant target column short-circuits to the exact flat model
        (zero coefficients, bias equal to the constant): the KKT system is
        satisfied exactly and predictions carry no solver noise.
        """
        events = np.asarray(events, dtype=float)
        values = np.asarray(values, dtype=float)
        x_mean = float(events.mean())
        x_std = float(events.std())
        if x_std == 0.0:
            raise InputError("training events are all identical")
        xs = ((events - x_mean) / x_std)[:, None]
        if np.ptp(values) == 0.0:
            model = lssvm.LssvmModel(
                alphas=np.zeros(len(values)), bias=float(values[0]),
                gamma=lssvm.GAMMA_GRID[0], kernel=lssvm.KernelSpec("rbf", lssvm.SIGMA_GRID[0]),
                inputs=xs,
            )
            return cls(model, x_mean, x_std)
        ts = lssvm.TrainingSet(xs, values)
        gamma, kernel, _ = lssvm.select_hyperparameters(ts)
        return cls(lssvm.train_regressor(ts, gamma, kernel), x_mean, x_std)

    def predict(self, events: np.ndarray) -> np.ndarray:
        xs = ((np.asarray(events, dtype=float) - self.x_mean) / self.x_std)[:, None]
        return lssvm.predict_batch(self.model, xs)


def _apply_trend_guard(train_values: np.ndarray, preds: np.ndarray) -> tuple[np.ndarray, bool]:
    """Clamp forecasts of a strictly monotone series to stay monotone.

    Kernel extrapolation drifts back toward the bias far from the data; for
    a damage indicator that only ever moved one way that drift is spurious,
    so forecasts are capped at the last observed value and made monotone by
    running min (or max). Uses training data only.
    """
    diffs = np.diff(train_values)
    if np.all(diffs < 0):
        return np.minimum.accumulate(np.minimum(preds, train_values[-1])), True
    if np.all(diffs > 0):
        return np.maximum.accumulate(np.maximum(preds, train_values[-1])), True
    return preds, False


@dataclass(frozen=True)
class ExperimentReport:
    """Held-out predictions for one feature and their errors against truth."""

    feature_index: int
    train_events: tuple[int, ...]
    test_events: tuple[int, ...]
    predictions: dict[int, float]
    truth: dict[int, float]
    rel_errors: dict[int, float]   # |prediction - truth| / |truth|
    gamma: float
    sigma: float
    trend_guard_applied: bool

    def max_rel_error(self) -> float:
        return max(self.rel_errors.values()) if self.rel_errors else 0.0

    def to_dict(self) -> dict:
        return {
            "feature_index": self.feature_index,
            "train_events": list(self.train_events),
            "test_events": list(self.test_events),
            "predictions": {str(k): v for k, v in self.predictions.items()},
            "truth": {str(k): v for k, v in self.truth.items()},
            "rel_errors": {str(k): v for k, v in self.rel_errors.items()},
            "gamma": self.gamma,
            "sigma": self.sigma,
            "trend_guard_applied": self.trend_guard_applied,
        }


def run_feature_experiment(
    events: list[int], values: np.ndarray, truth: dict[int, float],
    feature_index: int, split: int = DEFAULT_SPLIT,
) -> tuple[ExperimentReport, FeaturePredictor]:
    """Train on events <= split, predict the rest, score against truth."""
    events = list(events)
    values = np.asarray(values, dtype=float)
    train_idx = [i for i, e in enumerate(events) if e <= split]
    test_idx = [i for i, e in enumerate(events) if e > split]
    if len(train_idx) < 2:
        raise InputError(f"split {split} leaves fewer than 2 training events")
    if not test_idx:
        raise InputError(f"split {split} leaves no test events")
    train_events = np.array([events[i] for i in train_idx])
    test_events = np.array([events[i] for i in test_idx])
    train_values = values[train_idx]

    predictor = FeaturePredictor.fit(train_events, train_values)
    raw = predictor.predict(test_events)
    preds, guarded = _apply_trend_guard(train_values, raw)

    predictions = {int(e): float(p) for e, p in zip(test_events, preds)}
    rel = {}
    for e in test_events:
        e = int(e)
        if e in truth:
            denom = abs(truth[e])
            rel[e] = abs(predictions[e] - truth[e]) / denom if denom else float("inf")
    return ExperimentReport(
        feature_index=feature_index,
        train_events=tuple(int(e) for e in train_events),
        test_events=tuple(int(e) for e in test_events),
        predictions=predictions,
        truth={int(e): float(v) for e, v in truth.items()},
        rel_errors=rel,
        gamma=predictor.model.gamma,
        sigma=float(predictor.model.kernel.sigma),
        trend_guard_applied=guarded,
    ), predictor


def _paper_source() -> tuple[list[int], dict[int, np.ndarray], dict[int, dict[int, float]]]:
    """The bundled published series: events, values and held-out truth by feature."""
    _, t6 = dataio.fixtures()
    return (list(range(21)), {k: np.array(fx.y) for k, fx in t6.features.items()},
            {k: fx.j for k, fx in t6.features.items()})


def run_table6_experiment(feature_indices: tuple[int, ...] = EXPERIMENT_FEATURES,
                          split: int = DEFAULT_SPLIT) -> dict[int, ExperimentReport]:
    """Fixture-driven experiment: train on the published series, score against
    the published held-out values."""
    events, series, truth = _paper_source()
    return {k: run_feature_experiment(events, series[k], truth[k], k, split)[0]
            for k in feature_indices}


# ---------------------------------------------------------------------------
# early warning

@dataclass(frozen=True)
class WarningReport:
    triggered: bool
    trigger_event: int | None
    criterion: str | None           # 'threshold' or 'rapid-change'
    series: tuple[float, ...]
    threshold: float | None
    rapid_change_ratio: float
    at_threshold_events: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "triggered": self.triggered,
            "trigger_event": self.trigger_event,
            "criterion": self.criterion,
            "series": list(self.series),
            "threshold": self.threshold,
            "rapid_change_ratio": self.rapid_change_ratio,
            "at_threshold_events": list(self.at_threshold_events),
            "notes": list(self.notes),
        }


def detect_warning(series, threshold: float | None = DEFAULT_THRESHOLD,
                   rapid_change_ratio: float = DEFAULT_RAPID_RATIO) -> WarningReport:
    """Scan a longest-hole-bar series for the collapse boundary.

    Threshold criterion: first event strictly below the threshold; an event
    exactly at the threshold is recorded as an advisory, not a trigger.
    Rapid-change criterion: first event whose drop exceeds the ratio times
    the median of all earlier drops (skipped while that median is zero, so a
    flat series never divides by zero). A non-finite series value or
    threshold is an InputError, because NaN compares false against every
    threshold and would hide a collapse.
    """
    series = [float(v) for v in series]
    if len(series) < 2:
        raise InputError("warning scan needs a series of at least 2 events")
    for e, value in enumerate(series):
        if not math.isfinite(value):
            raise InputError(f"warning series value at event {e} is not finite: {value}")
    if threshold is not None and not math.isfinite(threshold):
        raise InputError(f"warning threshold must be finite, got {threshold}")
    if not rapid_change_ratio > 0:
        raise InputError(f"rapid-change ratio must be positive, got {rapid_change_ratio}")
    at_threshold = []
    trigger_event = None
    criterion = None
    for e, value in enumerate(series):
        if threshold is not None:
            if abs(value - threshold) <= 1e-12 * max(1.0, abs(threshold)):
                at_threshold.append(e)
            elif value < threshold:
                trigger_event, criterion = e, "threshold"
                break
        if e >= 2:
            drops = [series[i - 1] - series[i] for i in range(1, e + 1)]
            median_prior = statistics.median(drops[:-1])
            if median_prior > 0 and drops[-1] > rapid_change_ratio * median_prior:
                trigger_event, criterion = e, "rapid-change"
                break
    notes = tuple(
        f"event {e} sits exactly at the threshold {threshold}" for e in at_threshold
    )
    return WarningReport(
        triggered=trigger_event is not None,
        trigger_event=trigger_event,
        criterion=criterion,
        series=tuple(series),
        threshold=threshold,
        rapid_change_ratio=rapid_change_ratio,
        at_threshold_events=tuple(at_threshold),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# full run

def run_all(seq: SnapshotSequence | None, out_dir: str | Path,
            max_filtration: float = DEFAULT_MAX_FILTRATION,
            split: int = DEFAULT_SPLIT,
            threshold: float | None = DEFAULT_THRESHOLD,
            rapid_change_ratio: float = DEFAULT_RAPID_RATIO) -> tuple[dict, WarningReport]:
    """Run every stage and write the full bundle under out_dir.

    seq supplies the snapshots, and the bundle also holds their barcodes,
    features, summary and models; seq None means the bundled paper series.
    Returns a manifest of what was written and the warning report.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}

    if seq is None:
        events, series, truth = _paper_source()
        model_dir = None
    else:
        with _stage("compute-ph"):
            barcodes = compute_barcodes(seq, max_filtration)
        barcode_dir = out_dir / "barcodes"
        barcode_dir.mkdir(exist_ok=True)
        for event, b in zip(seq.events, barcodes):
            dataio.write_barcode(b, barcode_dir / barcode_filename(event))
        written["barcodes"] = str(barcode_dir)

        with _stage("features"):
            vectors = features.feature_series(barcodes, max_filtration)
        events = list(seq.events)
        dataio.write_features(events, vectors, out_dir / "features.csv")
        written["features"] = str(out_dir / "features.csv")

        write_summary(summary_rows(barcodes, vectors), out_dir / "summary.csv")
        written["summary"] = str(out_dir / "summary.csv")

        matrix = features.feature_matrix(vectors)
        series = {k: matrix[:, k - 1] for k in EXPERIMENT_FEATURES}
        truth = {k: {e: float(v) for e, v in zip(events, column) if e > split}
                 for k, column in series.items()}
        model_dir = out_dir / "models"

    reports = {}
    with _stage("train-predict"):
        for k in EXPERIMENT_FEATURES:
            reports[k], predictor = run_feature_experiment(
                events, series[k], truth[k], k, split)
            if model_dir is not None:
                model_dir.mkdir(exist_ok=True)
                dataio.write_model(predictor.model, predictor.x_mean,
                                   predictor.x_std, model_dir / f"model_f{k}.json")

    experiment_doc = {str(k): reports[k].to_dict() for k in sorted(reports)}
    (out_dir / "experiment.json").write_text(
        json.dumps(experiment_doc, indent=2, sort_keys=True) + "\n")
    written["experiment"] = str(out_dir / "experiment.json")

    with _stage("warn"):
        warning = detect_warning(series[8], threshold, rapid_change_ratio)
    (out_dir / "warning.json").write_text(
        json.dumps(warning.to_dict(), indent=2, sort_keys=True) + "\n")
    written["warning"] = str(out_dir / "warning.json")

    dataio.write_table(out_dir / "plot_f8_series.csv", "event,f8", enumerate(series[8]))
    dataio.write_table(out_dir / "plot_hole_counts.csv", "event,f14",
                       ((e, int(v)) for e, v in enumerate(series[14])))
    written["plot_f8"] = str(out_dir / "plot_f8_series.csv")
    written["plot_holes"] = str(out_dir / "plot_hole_counts.csv")
    return written, warning
