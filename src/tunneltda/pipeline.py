"""Orchestration: snapshots -> barcodes -> features -> prediction -> warning.

The prediction protocol mirrors the published experiment: one regressor per
feature with the blast index as input, trained on events 0..split and
evaluated on the remaining events. The early warning watches the longest
dim-1 bar (feature 8): the collapse boundary is flagged when it drops
strictly below the threshold, or when a single per-event drop dwarfs the
typical drop seen so far.
"""

from __future__ import annotations

import math
import re
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dataio, features, lssvm
from .dataio import SnapshotSequence
from .errors import InputError, NumericalError
from .topology import Barcode, DEFAULT_MAX_FILTRATION, barcode_from_cloud, check_max_filtration

DEFAULT_THRESHOLD = 21.68
DEFAULT_RAPID_RATIO = 10.0
DEFAULT_SPLIT = 15
EXPERIMENT_FEATURES = (2, 8, 13, 14)


def _prefix(exc: Exception, text: str) -> None:
    exc.args = (f"{text}{exc.args[0] if exc.args else exc}",) + exc.args[1:]


@contextmanager
def _prefixed(text: str):
    """Re-raise pipeline errors with text, such as the failing stage, in
    front of the message."""
    try:
        yield
    except (InputError, NumericalError) as exc:
        _prefix(exc, text)
        raise


# ---------------------------------------------------------------------------
# persistence and features

def compute_barcodes(seq: SnapshotSequence,
                     max_filtration: float = DEFAULT_MAX_FILTRATION) -> list[Barcode]:
    """One barcode per snapshot, in event order. The builds share one reuse
    dict (see build_vr_filtration), dropped on return."""
    barcodes, reuse = [], {}
    for event, cloud in enumerate(seq.clouds):
        with _prefixed(f"[persistence event {event}] "):
            barcodes.append(barcode_from_cloud(cloud, max_filtration, reuse))
    return barcodes


SUMMARY_HEADER = "event,beta0_at_0,f8,f14"
BARCODE_FILE_RE = re.compile(r"barcode_([0-9]+)\.csv$")  # \d would take any Unicode digit


def barcode_filename(event: int) -> str:
    return f"barcode_{event:03d}.csv"


def _barcode_files(barcode_dir: Path):
    """(event, path) of each barcode file in barcode_dir, by name."""
    for p in sorted(barcode_dir.glob("barcode_*.csv")):
        m = BARCODE_FILE_RE.search(p.name)
        if m:
            yield int(m.group(1)), p


def read_barcode_dir(barcode_dir: Path) -> list[Barcode]:
    """The barcodes of the barcode_NNN.csv files in barcode_dir, in event
    order; the files must cover events 0..max without gaps, one file per
    event, and carry one max_filtration, since each barcode's features are
    taken at its own cap."""
    found = {}
    for event, p in _barcode_files(barcode_dir):
        if event in found:
            raise InputError(f"{found[event].name} and {p.name} in {barcode_dir} are both "
                             f"barcode files for event {event}")
        found[event] = p
    if not found:
        raise InputError(f"no barcode_*.csv files in {barcode_dir}")
    missing = [e for e in range(max(found) + 1) if e not in found]
    if missing:
        raise InputError(f"missing barcode file(s) for event(s) {missing} in {barcode_dir}")
    barcodes = [dataio.read_barcode(found[e]) for e in sorted(found)]
    first = {}  # the first file at each cap
    for e, b in enumerate(barcodes):
        first.setdefault(b.max_filtration, found[e].name)
    if len(first) > 1:
        (cap, name), *rest = first.items()
        raise InputError(f"barcode files in {barcode_dir} carry mixed max_filtration values: "
                         f"{name} has max_filtration {cap}, "
                         + ", ".join(f"{n} has {c}" for c, n in rest))
    return barcodes


def write_barcode_stage(seq: SnapshotSequence, max_filtration: float,
                        barcode_dir: Path, summary_path: Path) -> tuple[list, list]:
    """Write each snapshot's barcode file under barcode_dir, extract the
    features once and write the summary: per event (event, components at
    scale 0, longest hole bar, hole count). Every bar has positive length,
    so the components at scale 0 are the dim-0 bar count, f13. Returns
    (vectors, summary rows).

    A barcode file already in barcode_dir for an event past the sequence's
    last would be read as data by read_barcode_dir, so it is refused before
    anything is computed or written."""
    for event, p in _barcode_files(barcode_dir):
        if event >= len(seq):
            raise InputError(f"{p} is a barcode file for event {event}, but the sequence has "
                             f"events 0..{len(seq) - 1}; remove it or choose another directory")
    barcodes = compute_barcodes(seq, max_filtration)
    barcode_dir.mkdir(parents=True, exist_ok=True)
    for event, b in enumerate(barcodes):
        dataio.write_barcode(b, barcode_dir / barcode_filename(event))
    vectors = features.feature_series(barcodes)
    rows = [(event, vec.f13, vec.f8, vec.f14) for event, vec in enumerate(vectors)]
    dataio.write_table(summary_path, SUMMARY_HEADER, rows)
    return vectors, rows


# ---------------------------------------------------------------------------
# per-feature prediction

@dataclass(frozen=True)
class FeaturePredictor:
    """A trained regressor over the blast index, with its input standardization."""

    model: lssvm.LssvmModel
    x_mean: float
    x_std: float

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
    rel_errors: dict[int, float]   # |prediction - truth| / |truth|, for truth != 0
    gamma: float
    sigma: float
    trend_guard_applied: bool

    def max_rel_error(self) -> float:
        """The largest relative error; NaN when no held-out event was scored."""
        return max(self.rel_errors.values()) if self.rel_errors else math.nan

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


def _check_split(split: int, n: int) -> None:
    """Refuse a split that leaves fewer than 2 of n events to train on, or none to test."""
    if split < 1:
        raise InputError(f"split {split} leaves fewer than 2 training events")
    if split >= n - 1:
        raise InputError(f"split {split} leaves no test events")


def run_feature_experiment(
    series: dict[int, np.ndarray], truth: dict[int, dict[int, float] | None],
    split: int = DEFAULT_SPLIT,
) -> tuple[dict[int, ExperimentReport], dict[int, FeaturePredictor]]:
    """Train one regressor per feature on events 0..split, predict the rest
    and score them against truth[k]: by event, or None for the held-out
    events' own values. Returns the reports and predictors by feature.

    series maps each feature to its values over events 0..n-1: a value's
    position is its event, so every series must have the same length. Every
    regressor takes the same standardized event indices as input, so the
    features share one split, one standardization and one leave-one-out
    search: one lssvm.select_hyperparameters call with a target column per
    searched feature, which factors each kernel once for the whole run. A
    constant training column skips the search and takes the exact flat model
    (zero coefficients, bias equal to the constant): the KKT system is
    satisfied exactly and predictions carry no solver noise. Each other
    feature's chosen (gamma, kernel) is then trained on its own. Errors name
    the feature they come from. A value that is not finite, in training or
    held out, is an InputError naming its event, as in detect_warning.
    """
    values = {k: np.asarray(column, dtype=float) for k, column in series.items()}
    lengths = {k: len(v) for k, v in values.items()}
    n = max(lengths.values(), default=0)
    if set(lengths.values()) != {n}:
        raise InputError(f"feature series must share one length, got lengths {lengths}")
    for k, column in values.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise InputError(f"feature {k}: series value at event {bad[0]} is not finite: "
                             f"{column[bad[0]]}")
    _check_split(split, n)
    # events 0..split with split >= 1 have a nonzero spread
    train_events = np.arange(split + 1, dtype=float)
    test_events = np.arange(split + 1, n)
    x_mean = float(train_events.mean())
    x_std = float(train_events.std())
    xs = ((train_events - x_mean) / x_std)[:, None]

    sets = {k: lssvm.TrainingSet(xs, column[:split + 1]) for k, column in values.items()}
    searched = [k for k, ts in sets.items() if np.ptp(ts.targets) > 0.0]
    picks = {}
    if searched:
        try:
            picks = dict(zip(searched, lssvm.select_hyperparameters(lssvm.TrainingSet(
                xs, np.column_stack([sets[k].targets for k in searched])))))
        except NumericalError as exc:
            if exc.column is not None:
                _prefix(exc, f"feature {searched[exc.column]}: ")
            raise

    reports, predictors = {}, {}
    for k, ts in sets.items():
        with _prefixed(f"feature {k}: "):
            if k in picks:
                gamma, kernel, _ = picks[k]
                model = lssvm.train_regressor(ts, gamma, kernel)
            else:
                model = lssvm.LssvmModel(
                    alphas=np.zeros(ts.m), bias=float(ts.targets[0]),
                    gamma=lssvm.GAMMA_GRID[0],
                    kernel=lssvm.KernelSpec("rbf", lssvm.SIGMA_GRID[0]), inputs=xs,
                )
        predictors[k] = FeaturePredictor(model, x_mean, x_std)
        preds, guarded = _apply_trend_guard(ts.targets, predictors[k].predict(test_events))
        predictions = {int(e): float(p) for e, p in zip(test_events, preds)}
        scored = truth[k]
        if scored is None:
            scored = {int(e): float(values[k][e]) for e in test_events}
        # no relative error for an event without a truth, or with a truth of 0
        rel = {e: abs(p - scored[e]) / abs(scored[e])
               for e, p in predictions.items() if scored.get(e)}
        reports[k] = ExperimentReport(
            feature_index=k,
            train_events=tuple(int(e) for e in train_events),
            test_events=tuple(int(e) for e in test_events),
            predictions=predictions,
            truth={int(e): float(v) for e, v in scored.items()},
            rel_errors=rel,
            gamma=model.gamma,
            sigma=float(model.kernel.sigma),
            trend_guard_applied=guarded,
        )
    return reports, predictors


def paper_source() -> tuple[dict[int, np.ndarray], dict[int, dict[int, float]]]:
    """The bundled published series: values over events 0..20 and held-out
    truth, by feature."""
    _, t6 = dataio.fixtures()
    return ({k: np.array(fx.y) for k, fx in t6.features.items()},
            {k: fx.j for k, fx in t6.features.items()})


def run_table6_experiment() -> dict[int, ExperimentReport]:
    """Fixture-driven experiment: train on the published series up to the
    default split, score against the published held-out values."""
    return run_feature_experiment(*paper_source())[0]


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
    drops = [a - b for a, b in zip(series, series[1:])]  # drops[e - 1]: into event e
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
            median_prior = statistics.median(drops[:e - 1])
            if median_prior > 0 and drops[e - 1] > rapid_change_ratio * median_prior:
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
    # the arguments are checked before any barcode is computed or file written
    if seq is None:
        series, truth = paper_source()
        n_events = len(series[8])
    else:
        with _prefixed("[compute-ph] "):
            check_max_filtration(max_filtration)
        n_events = len(seq)
    with _prefixed("[train-predict] "):
        _check_split(split, n_events)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}

    model_dir = None
    if seq is not None:
        with _prefixed("[compute-ph] "):
            vectors, _ = write_barcode_stage(seq, max_filtration, out_dir / "barcodes",
                                             out_dir / "summary.csv")
        dataio.write_features(vectors, out_dir / "features.csv")
        written["barcodes"] = str(out_dir / "barcodes")
        written["features"] = str(out_dir / "features.csv")
        written["summary"] = str(out_dir / "summary.csv")

        matrix = features.feature_matrix(vectors)
        series = {k: matrix[:, k - 1] for k in EXPERIMENT_FEATURES}
        truth = dict.fromkeys(EXPERIMENT_FEATURES)  # None: the held-out events' own values
        model_dir = out_dir / "models"

    with _prefixed("[train-predict] "):
        reports, predictors = run_feature_experiment(
            {k: series[k] for k in EXPERIMENT_FEATURES}, truth, split)
    if model_dir is not None:
        model_dir.mkdir(exist_ok=True)
        for k, predictor in predictors.items():
            dataio.write_model(predictor.model, predictor.x_mean,
                               predictor.x_std, model_dir / f"model_f{k}.json")

    dataio.write_json(out_dir / "experiment.json",
                      {str(k): reports[k].to_dict() for k in sorted(reports)})
    written["experiment"] = str(out_dir / "experiment.json")

    with _prefixed("[warn] "):
        warning = detect_warning(series[8], threshold, rapid_change_ratio)
    dataio.write_json(out_dir / "warning.json", asdict(warning))
    written["warning"] = str(out_dir / "warning.json")

    dataio.write_table(out_dir / "plot_f8_series.csv", "event,f8", enumerate(series[8]))
    dataio.write_table(out_dir / "plot_hole_counts.csv", "event,f14",
                       ((e, int(v)) for e, v in enumerate(series[14])))
    written["plot_f8"] = str(out_dir / "plot_f8_series.csv")
    written["plot_holes"] = str(out_dir / "plot_hole_counts.csv")
    return written, warning
