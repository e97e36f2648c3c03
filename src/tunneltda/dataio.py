"""File formats, bundled fixture tables, and serialization for all artifacts.

Formats (all UTF-8 text, whatever the locale; numbers in full round-trip precision):
  snapshot  CSV, header ``block_id,x,y``, coordinates in meters; a block
            id holds no comma or line break and no whitespace at either
            end, which the reader would strip
  manifest  JSON listing ``{"event": int, "path": str}`` pairs (paths
            relative to the manifest) under ``snapshots``; other keys,
            such as ``metadata``, are ignored
  barcode   CSV ``dim,birth,death`` with ``inf`` for open deaths, preceded
            by a ``# max_filtration=...`` comment line; there is at least
            one bar, and the cap and each row obey ``Barcode``'s rules
  features  CSV, header ``event,f1..f14``; the event column runs 0..n-1 in
            file order
  model     JSON with kernel spec, gamma, standardization constants,
            coefficients, bias, and training inputs
  summary   CSV ``event,beta0_at_0,f8,f14`` (``summary.csv``)
  plots     CSV ``event,f8`` (``plot_f8_series.csv``) and ``event,f14``
            (``plot_hole_counts.csv``)
  reports   JSON with sorted keys and a two-space indent (``experiment.json``,
            ``warning.json`` and the ``--out`` of train-predict and warn),
            written by ``write_json``

Every file is read by ``_read_text``, which drops one UTF-8 byte-order mark at
its start, and written by ``_write_text``, which writes none; every CSV table
goes through ``write_table`` and ``_read_table``. A missing file, malformed
content or text that is not UTF-8 raises InputError naming the file; a path that
cannot be read or written raises the OSError as it comes, and the command line
reports that as an input error too.

Readers only parse: ``_read_table`` converts each column with its converter,
and ``PointCloud`` and ``Barcode`` judge the values, raising an EntryError whose
position the reader turns into a line. Within a file the first fault in this
order is reported: the file itself (missing, or not UTF-8); the preamble and
header; the field count, by line; the first row that does not convert
(``path:line: malformed <kind> row``), then the barcode's cap value; the type's
own rules (the cap before any bar, a snapshot's first repeated id before its
first non-finite block, the features' event column).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EntryError, InputError
from .features import FeatureVector
from .lssvm import KernelSpec, LssvmModel
from .topology import Barcode, PointCloud


# ---------------------------------------------------------------------------
# CSV tables

def _cell(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return repr(float(v))


def _write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _read_text(path: Path, kind: str) -> str:
    if not path.exists():
        raise InputError(f"{kind} file not found: {path}")
    try:  # decoded before the mark is dropped, so a bad byte's offset counts from byte 0
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_json(path: Path, kind: str):
    try:
        return json.loads(_read_text(path, kind))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def write_table(path: str | Path, header: str, rows, preamble: str | None = None) -> None:
    """Optional preamble line, header, one line per row: ints as written,
    strings as is, other numbers as repr(float(v)) (so inf and -0.0 survive)."""
    lines = [header] if preamble is None else [preamble, header]
    lines += [",".join(map(_cell, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _read_table(path: Path, kind: str, header: str, columns,
                preamble: str | None = None) -> tuple[str | None, list[int], list[list]]:
    """(rest of the preamble line or None, the line numbers of the non-blank
    rows, one list per column), each column's fields converted by its entry
    of columns; a field that does not convert names its row."""
    lines = _read_text(path, kind).splitlines()
    value = None
    if preamble is not None:
        if not lines or not lines[0].startswith(preamble):
            raise InputError(f"{path}:1: missing '{preamble}' line")
        value = lines.pop(0)[len(preamble):]
    header_line = 1 if preamble is None else 2
    if not lines or lines[0].strip() != header:
        raise InputError(f"{path}:{header_line}: missing header '{header}'")
    linenos, rows = [], []
    for lineno, line in enumerate(lines[1:], start=header_line + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise InputError(f"{path}:{lineno}: expected {len(columns)} comma-separated fields")
        linenos.append(lineno)
        rows.append(parts)
    if not rows:
        raise InputError(f"{path}: no data rows")
    try:
        return value, linenos, [list(map(f, col)) for f, col in zip(columns, zip(*rows))]
    except ValueError:
        for lineno, parts in zip(linenos, rows):
            try:
                for f, v in zip(columns, parts):
                    f(v)
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed {kind} row") from None
        raise


# ---------------------------------------------------------------------------
# snapshots

SNAPSHOT_HEADER = "block_id,x,y"


def write_snapshot(pc: PointCloud, path: str | Path) -> None:
    """Write one snapshot CSV. A block id that would not read back as itself
    (one with a comma or a line break, or with whitespace at either end,
    which the reader strips) or that UTF-8 cannot encode (a lone surrogate)
    is refused before the file is opened."""
    for bid in map(str, pc.ids):
        if "," in bid or bid != bid.strip() or len(bid.splitlines()) > 1:
            raise InputError(f"{path}: block_id {bid!r} would not read back; an id may not "
                             "hold a comma or a line break, or begin or end with whitespace")
        try:
            bid.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InputError(f"{path}: block_id {bid!r} cannot be written as UTF-8 "
                             f"({exc.reason})") from None
    write_table(path, SNAPSHOT_HEADER,
                ((str(bid), x, y) for bid, (x, y) in zip(pc.ids, pc.xy)))


def load_snapshot(path: str | Path) -> PointCloud:
    path = Path(path)
    _, linenos, (ids, x, y) = _read_table(path, "snapshot", SNAPSHOT_HEADER,
                                          (str.strip, float, float))
    try:
        return PointCloud(tuple(ids), np.column_stack((x, y)))
    except EntryError as exc:
        raise InputError(f"{path}:{linenos[exc.index]}: {exc}") from None


# ---------------------------------------------------------------------------
# snapshot sequences

@dataclass(frozen=True)
class SnapshotSequence:
    """Snapshots indexed by blast event: 0 is the natural excavation state."""

    events: tuple[int, ...]
    clouds: tuple[PointCloud, ...]

    def __post_init__(self):
        if len(self.events) != len(self.clouds) or not self.events:
            raise InputError("sequence needs one cloud per event")
        if self.events != tuple(range(len(self.events))):
            i = next(i for i, event in enumerate(self.events) if event != i)
            raise InputError(f"event indices must run 0..{len(self.events) - 1} in order; "
                             f"entry {i} has event {self.events[i]}")
        base = set(self.clouds[0].ids)
        for event, cloud in zip(self.events, self.clouds):
            if set(cloud.ids) != base:
                raise InputError(
                    f"event {event} has a different block_id set than event 0"
                )

    def __len__(self) -> int:
        return len(self.events)


def write_sequence(seq: SnapshotSequence, out_dir: str | Path) -> Path:
    """Write snapshot CSVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for event, cloud in zip(seq.events, seq.clouds):
        name = f"snapshot_{event:03d}.csv"
        write_snapshot(cloud, out_dir / name)
        entries.append({"event": event, "path": name})
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, {"snapshots": entries})
    return manifest_path


def load_sequence(manifest_path: str | Path) -> SnapshotSequence:
    manifest_path = Path(manifest_path)
    doc = _read_json(manifest_path, "manifest")
    entries = doc.get("snapshots") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{manifest_path}: manifest needs a non-empty 'snapshots' list")
    events, clouds = [], []
    for i, entry in enumerate(entries):
        try:
            event, rel = entry["event"], entry["path"]
        except (KeyError, TypeError):
            event = rel = None
        # type(), not isinstance: a JSON true is a bool, which is an int
        if type(event) is not int or not isinstance(rel, str):
            raise InputError(f"{manifest_path}: each snapshot entry needs an integer "
                             f"'event' and a string 'path', got {entry!r}")
        if event != i:
            raise InputError(f"{manifest_path}: snapshot entry {i} ({rel}) has event {event}; "
                             "entries must list events 0, 1, 2, ... in order")
        events.append(event)
        clouds.append(load_snapshot(manifest_path.parent / rel))
    return SnapshotSequence(tuple(events), tuple(clouds))


# ---------------------------------------------------------------------------
# barcodes

BARCODE_PREAMBLE = "# max_filtration="
BARCODE_HEADER = "dim,birth,death"


def write_barcode(b: Barcode, path: str | Path) -> None:
    write_table(path, BARCODE_HEADER,
                zip(b.dims.tolist(), b.births.tolist(), b.deaths.tolist()),
                preamble=BARCODE_PREAMBLE + repr(float(b.max_filtration)))


def read_barcode(path: str | Path) -> Barcode:
    """Barcode's rules judge the cap and each row; a refusal names file and line."""
    path = Path(path)
    cap, linenos, (dims, births, deaths) = _read_table(
        path, "barcode", BARCODE_HEADER, (int, float, float), preamble=BARCODE_PREAMBLE)
    try:
        cap = float(cap)
    except ValueError:
        raise InputError(f"{path}:1: malformed max_filtration value") from None
    try:
        return Barcode.from_arrays(np.array(dims), np.array(births), np.array(deaths), cap)
    except EntryError as exc:
        raise InputError(f"{path}:{linenos[exc.index]}: {exc}") from None
    except InputError as exc:  # the cap's rule, judged before any bar
        raise InputError(f"{path}:1: {exc}") from None


# ---------------------------------------------------------------------------
# feature tables

FEATURES_HEADER = "event," + ",".join(f"f{i}" for i in range(1, 15))


def write_features(vectors: list[FeatureVector], path: str | Path) -> None:
    """One row per vector, its event being its position."""
    write_table(path, FEATURES_HEADER,
                ([event] + [getattr(vec, f"f{i}") for i in range(1, 15)]
                 for event, vec in enumerate(vectors)))


def read_features(path: str | Path) -> tuple[list[int], np.ndarray]:
    """Returns (events, matrix) where matrix has one row of f1..f14 per event.

    The event column must run 0..n-1 in file order."""
    path = Path(path)
    _, linenos, (events, *values) = _read_table(path, "features", FEATURES_HEADER,
                                                (int,) + (float,) * 14)
    for k, event in enumerate(events):
        if event != k:
            raise InputError(f"{path}:{linenos[k]}: event {event} where {k} was expected")
    return events, np.column_stack(values)


# ---------------------------------------------------------------------------
# JSON reports and models

def write_json(path: str | Path, doc) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_model(model: LssvmModel, x_mean: float, x_std: float,
                path: str | Path) -> None:
    doc = {
        "kernel": {"kind": model.kernel.kind, "sigma": model.kernel.sigma},
        "gamma": model.gamma,
        "x_mean": x_mean,
        "x_std": x_std,
        "alphas": model.alphas.tolist(),
        "bias": model.bias,
        "inputs": model.inputs.tolist(),
        "classification": model.classification,
    }
    _write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _finite_number(value) -> bool:
    # type(), not isinstance: a JSON true is a bool, which is an int; an
    # integer past the largest float has no float value
    return (type(value) is float and math.isfinite(value)
            or type(value) is int and abs(value) <= sys.float_info.max)


def read_model(path: str | Path) -> tuple[LssvmModel, float, float]:
    """(model, x_mean, x_std) from a file as write_model writes it: gamma,
    bias, x_mean, x_std and kernel.sigma finite JSON numbers (sigma null for
    a linear kernel), alphas a list of them, inputs one list of them per
    alpha, all of one length, and classification, if given, a JSON boolean.
    Anything else is refused by field, with the file's name."""
    path = Path(path)
    doc = _read_json(path, "model")
    try:
        kind, sigma = doc["kernel"]["kind"], doc["kernel"].get("sigma")
        fields = {name: doc[name] for name in ("gamma", "bias", "x_mean", "x_std")}
        alphas, inputs = doc["alphas"], doc["inputs"]
        classification = doc.get("classification", False)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed model file: {exc}") from None

    def refuse(name, rule):
        return InputError(f"{path}: model field {name} must be {rule}")

    for name, value in fields.items():
        if not _finite_number(value):
            raise refuse(name, f"a finite number, got {value!r}")
    if not (sigma is None or _finite_number(sigma)):
        raise refuse("kernel.sigma", f"a finite number or null, got {sigma!r}")
    if type(classification) is not bool:
        raise refuse("classification", f"true or false, got {classification!r}")
    if not (isinstance(alphas, list) and all(map(_finite_number, alphas))):
        raise refuse("alphas", "a list of finite numbers")
    if not (isinstance(inputs, list) and len(inputs) == len(alphas)
            and all(isinstance(row, list) and len(row) == len(inputs[0])
                    and all(map(_finite_number, row)) for row in inputs)):
        raise refuse("inputs", f"{len(alphas)} lists of finite numbers, one per alpha, "
                               "all of one length")
    try:
        kernel = KernelSpec(kind, sigma)
    except InputError as exc:
        raise refuse("kernel", f"a valid kernel: {exc}") from None
    model = LssvmModel(np.array(alphas, dtype=float), float(fields["bias"]),
                       float(fields["gamma"]), kernel, np.array(inputs, dtype=float),
                       classification)
    return model, float(fields["x_mean"]), float(fields["x_std"])


# ---------------------------------------------------------------------------
# bundled fixtures

@dataclass(frozen=True)
class FixtureTable5:
    """Displacements (m) after 0..20 blasts: overall maximum and upper collapse zone."""

    rows: tuple[tuple[int, float, float], ...]

    def max_displacement(self, event: int) -> float:
        return self.rows[event][1]

    def collapse_displacement(self, event: int) -> float:
        return self.rows[event][2]


@dataclass(frozen=True)
class FeatureFixture:
    """One feature's published series: per-event values, held-out truth, errors."""

    y: tuple[float, ...]            # events 0..20 (16..20 are model outputs)
    j: dict[int, float] = field(default_factory=dict)   # published truth, 16..20
    w_percent: dict[int, float] = field(default_factory=dict)  # reported errors


@dataclass(frozen=True)
class FixtureTable6:
    features: dict[int, FeatureFixture]
    notes: tuple[str, ...] = ()


_TABLE5 = (
    (0, 0.232, 0.208), (1, 0.264, 0.212), (2, 0.282, 0.249), (3, 0.331, 0.253),
    (4, 0.389, 0.272), (5, 0.788, 0.488), (6, 0.924, 0.580), (7, 1.04, 0.674),
    (8, 1.149, 0.804), (9, 1.257, 0.908), (10, 1.40, 1.12), (11, 1.671, 1.292),
    (12, 1.997, 1.389), (13, 2.14, 1.67), (14, 2.45, 1.843), (15, 2.688, 2.08),
    (16, 3.028, 2.121), (17, 3.44, 2.457), (18, 3.81, 2.65), (19, 4.264, 2.97),
    (20, 4.758, 3.331),
)

_F2_Y = (16.1, 16.0, 15.89, 15.8, 15.5, 15.4, 15.36, 15.31, 15.3, 14.56, 14.24,
         13.23, 12.85, 12.64, 12.5, 12.04, 11.6, 11.54, 11.23, 10.62, 10.2)
_F8_Y = (21.82, 21.76, 21.75, 21.70, 21.68, 21.44, 21.12, 20.58, 19.65, 19.12,
         18.64, 18.18, 17.78, 17.56, 17.31, 16.88, 16.42, 16.31, 16.26, 16.15, 16.01)
_F13_Y = (42.0,) * 21
_F14_Y = (8.0, 11.0, 12.0, 13.0, 13.0, 14.0, 15.0, 16.0, 12.0, 13.0, 13.0, 14.0,
          10.0, 14.0, 14.0, 14.0, 14.0, 11.0, 12.0, 13.0, 14.0)

_FIXTURE_NOTES = (
    "Narrative peak-change values (0.04, 0.14, 2.17, 3.84, 5.4, 5.7 after blasts "
    "1/4/8/12/16/20) imply 16.42 at event 16; the prediction table lists 16.54 "
    "there. The table is canonical.",
    "Feature 14 at event 19 is reported with a 100% error although both values "
    "equal 13; the reported error column is kept verbatim.",
    "Reported error percentages are consistent with |Y-J|/|Y|; recomputed errors "
    "in this package use |Y-J|/|J| instead.",
)


def fixtures() -> tuple[FixtureTable5, FixtureTable6]:
    """The bundled displacement and prediction tables."""
    t5 = FixtureTable5(_TABLE5)
    t6 = FixtureTable6(
        features={
            2: FeatureFixture(
                _F2_Y,
                j={16: 11.8, 17: 11.7, 18: 11.65, 19: 11.42, 20: 11.1},
                w_percent={16: 1.72, 17: 1.38, 18: 3.74, 19: 7.53, 20: 8.82},
            ),
            8: FeatureFixture(
                _F8_Y,
                j={16: 16.54, 17: 16.44, 18: 16.40, 19: 16.39, 20: 16.37},
                w_percent={16: 0.73, 17: 0.79, 18: 0.86, 19: 1.48, 20: 2.25},
            ),
            13: FeatureFixture(
                _F13_Y,
                j={16: 42.0, 17: 42.0, 18: 42.0, 19: 42.0, 20: 42.0},
            ),
            14: FeatureFixture(
                _F14_Y,
                j={16: 13.0, 17: 15.0, 18: 13.0, 19: 13.0, 20: 15.0},
                w_percent={16: 7.14, 17: 36.36, 18: 8.3, 19: 100.0, 20: 6.67},
            ),
        },
        notes=_FIXTURE_NOTES,
    )
    return t5, t6
