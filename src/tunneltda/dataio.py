"""File formats, bundled fixture tables, and serialization for all artifacts.

Formats (all plain text, numbers written with full round-trip precision):
  snapshot  CSV, header ``block_id,x,y``, coordinates in meters
  manifest  JSON listing ``{"event": int, "path": str}`` pairs (paths
            relative to the manifest), optional ``metadata``
  barcode   CSV ``dim,birth,death`` with ``inf`` for open deaths, preceded
            by a ``# max_filtration=...`` comment line; the cap is positive
            and finite, there is at least one bar, and no birth or finite
            death lies above the cap, as the engine writes it
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

Every CSV table goes through ``write_table`` and ``_read_table``. Malformed
content, or a table or manifest that is not UTF-8, raises InputError naming
the file; a path that cannot be read or written raises the OSError as it
comes, and the command line reports that as an input error too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError
from .features import FeatureVector
from .lssvm import KernelSpec, LssvmModel
from .topology import Barcode, PersistencePair, PointCloud


# ---------------------------------------------------------------------------
# CSV tables

def _cell(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    return repr(float(v))


def write_table(path: str | Path, header: str, rows, preamble: str | None = None) -> None:
    """Optional preamble line, header, one line per row: ints as written,
    strings as is, other numbers as repr(float(v)) (so inf and -0.0 survive)."""
    lines = [header] if preamble is None else [preamble, header]
    lines += [",".join(map(_cell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_table(path: Path, kind: str, header: str,
                preamble: str | None = None) -> tuple[str | None, list[tuple[int, list[str]]]]:
    """(rest of the preamble line or None, non-blank rows as (line number,
    fields)), each row having as many fields as the header."""
    if not path.exists():
        raise InputError(f"{kind} file not found: {path}")
    lines = _read_text(path).splitlines()
    value = None
    if preamble is not None:
        if not lines or not lines[0].startswith(preamble):
            raise InputError(f"{path}:1: missing '{preamble}' line")
        value = lines.pop(0)[len(preamble):]
    header_line = 1 if preamble is None else 2
    if not lines or lines[0].strip() != header:
        raise InputError(f"{path}:{header_line}: missing header '{header}'")
    n_fields = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=header_line + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise InputError(f"{path}:{lineno}: expected {n_fields} comma-separated fields")
        rows.append((lineno, parts))
    if not rows:
        raise InputError(f"{path}: no data rows")
    return value, rows


# ---------------------------------------------------------------------------
# snapshots

SNAPSHOT_HEADER = "block_id,x,y"


def write_snapshot(pc: PointCloud, path: str | Path) -> None:
    write_table(path, SNAPSHOT_HEADER,
                ((str(bid), x, y) for bid, (x, y) in zip(pc.ids, pc.xy)))


def load_snapshot(path: str | Path) -> PointCloud:
    path = Path(path)
    _, table = _read_table(path, "snapshot", SNAPSHOT_HEADER)
    ids, coords = [], []
    seen = set()
    for lineno, (bid, x, y) in table:
        bid = bid.strip()
        if bid in seen:
            raise InputError(f"{path}:{lineno}: duplicate block_id {bid!r}")
        seen.add(bid)
        ids.append(bid)
        try:
            coords.append((float(x), float(y)))
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric coordinate") from None
    xy = np.array(coords)
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():
        lineno = table[int(finite.argmin())][0]
        raise InputError(f"{path}:{lineno}: coordinates must be finite")
    return PointCloud(tuple(ids), xy)


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
        expected = tuple(range(len(self.events)))
        if self.events != expected:
            missing = sorted(set(expected) - set(self.events))
            raise InputError(
                f"event indices must run 0..{len(self.events) - 1} without gaps; "
                f"missing {missing or list(self.events)}"
            )
        base = set(self.clouds[0].ids)
        for event, cloud in zip(self.events, self.clouds):
            if set(cloud.ids) != base:
                raise InputError(
                    f"event {event} has a different block_id set than event 0"
                )

    def __len__(self) -> int:
        return len(self.events)


def write_sequence(seq: SnapshotSequence, out_dir: str | Path,
                   metadata: dict | None = None) -> Path:
    """Write snapshot CSVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for event, cloud in zip(seq.events, seq.clouds):
        name = f"snapshot_{event:03d}.csv"
        write_snapshot(cloud, out_dir / name)
        entries.append({"event": event, "path": name})
    manifest = {"snapshots": entries}
    if metadata:
        manifest["metadata"] = metadata
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_sequence(manifest_path: str | Path) -> SnapshotSequence:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise InputError(f"manifest not found: {manifest_path}")
    try:
        doc = json.loads(_read_text(manifest_path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{manifest_path}: invalid JSON: {exc}") from None
    entries = doc.get("snapshots") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{manifest_path}: manifest needs a non-empty 'snapshots' list")
    events, clouds = [], []
    for entry in entries:
        try:
            event, rel = entry["event"], entry["path"]
        except (KeyError, TypeError):
            event = rel = None
        # type(), not isinstance: a JSON true is a bool, which is an int
        if type(event) is not int or not isinstance(rel, str):
            raise InputError(f"{manifest_path}: each snapshot entry needs an integer "
                             f"'event' and a string 'path', got {entry!r}")
        events.append(event)
        clouds.append(load_snapshot(manifest_path.parent / rel))
    return SnapshotSequence(tuple(events), tuple(clouds))


# ---------------------------------------------------------------------------
# barcodes

BARCODE_PREAMBLE = "# max_filtration="
BARCODE_HEADER = "dim,birth,death"


def write_barcode(b: Barcode, path: str | Path) -> None:
    write_table(path, BARCODE_HEADER,
                ((int(p.dim), float(p.birth), float(p.death)) for p in b.pairs),
                preamble=BARCODE_PREAMBLE + repr(float(b.max_filtration)))


def read_barcode(path: str | Path) -> Barcode:
    path = Path(path)
    cap, table = _read_table(path, "barcode", BARCODE_HEADER, preamble=BARCODE_PREAMBLE)
    try:
        cap = float(cap)
    except ValueError:
        raise InputError(f"{path}:1: malformed max_filtration value") from None
    if not 0 < cap < math.inf:  # also false for nan
        raise InputError(f"{path}:1: max_filtration must be positive and finite, got {cap}")
    pairs = []
    for lineno, (dim, birth, death) in table:
        try:
            dim, birth, death = int(dim), float(birth), float(death)
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed persistence pair") from None
        # the checks of Barcode, with the file and line in the message
        if dim not in (0, 1):
            raise InputError(f"{path}:{lineno}: dimension {dim}, expected 0 or 1")
        if not 0 <= birth <= death:  # also true when either is NaN
            raise InputError(f"{path}:{lineno}: death {death} and birth {birth} make an "
                             "invalid persistence pair; need 0 <= birth <= death")
        # the engine enters no simplex above the cap and writes an open bar as inf
        if birth > cap or cap < death < math.inf:
            raise InputError(f"{path}:{lineno}: birth {birth} or death {death} lies above "
                             f"max_filtration {cap}")
        pairs.append(PersistencePair(dim, birth, death))
    return Barcode(tuple(pairs), cap)


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
    _, table = _read_table(path, "features", FEATURES_HEADER)
    rows = []
    for lineno, parts in table:
        try:
            event = int(parts[0])
            rows.append([float(v) for v in parts[1:]])
        except ValueError:
            raise InputError(f"{path}:{lineno}: malformed feature row") from None
        if event != len(rows) - 1:
            raise InputError(f"{path}:{lineno}: event {event} where {len(rows) - 1} was expected")
    return list(range(len(rows))), np.array(rows)


# ---------------------------------------------------------------------------
# JSON reports and models

def write_json(path: str | Path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_model(path: str | Path) -> tuple[LssvmModel, float, float]:
    path = Path(path)
    if not path.exists():
        raise InputError(f"model file not found: {path}")
    try:
        doc = json.loads(path.read_text())
        kernel = KernelSpec(doc["kernel"]["kind"], doc["kernel"].get("sigma"))
        model = LssvmModel(
            alphas=np.array(doc["alphas"], dtype=float),
            bias=float(doc["bias"]),
            gamma=float(doc["gamma"]),
            kernel=kernel,
            inputs=np.array(doc["inputs"], dtype=float),
            classification=bool(doc.get("classification", False)),
        )
        return model, float(doc["x_mean"]), float(doc["x_std"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model file: {exc}") from None


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
