"""The three benchmark workloads: input generation, the timed operation, outputs.

Why each workload exists is recorded in README.md next to this file. Inputs
depend only on the seed; the program sees them only as files on disk.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from tunneltda import cli, dataio, features, pipeline, synth, topology
from tunneltda.dataio import SnapshotSequence
from tunneltda.topology import PointCloud

NAMES = ("ring42-bundle", "paper-fixture", "rubble-stream")

RING_CAP = 30.0

# Rubble: blocks stratified over an annulus around the tunnel (one block per
# band x sector cell, so every seed has the same density), snapped to a
# quarter-metre grid so that many pairwise distances tie exactly.
RUBBLE_BANDS, RUBBLE_SECTORS = 5, 40
RUBBLE_R_IN, RUBBLE_R_OUT = 10.0, 20.0
RUBBLE_GRID = 0.25
RUBBLE_EVENTS = 20           # blasts after the natural state (event 0)
RUBBLE_SINK = 0.35           # m of descent per event at the crown, as in synth
RUBBLE_CAP = 6.0


def rubble_sequence(seed: int, tiny: bool = False) -> SnapshotSequence:
    """Rubble snapshots for events 0..RUBBLE_EVENTS; the upper arc sinks each event.

    Descent is rounded to the grid, so blocks stay on it in every snapshot.
    """
    bands, sectors, events = (2, 8, 3) if tiny else (RUBBLE_BANDS, RUBBLE_SECTORS, RUBBLE_EVENTS)
    rng = np.random.default_rng(seed)
    band, sector = np.divmod(np.arange(bands * sectors), sectors)
    radius = RUBBLE_R_IN + (band + rng.uniform(size=band.size)) * (RUBBLE_R_OUT - RUBBLE_R_IN) / bands
    angle = 2.0 * np.pi * (sector + rng.uniform(size=sector.size)) / sectors
    grid = RUBBLE_GRID
    base = grid * np.round(np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]) / grid)
    sink = RUBBLE_SINK * np.maximum(np.sin(angle), 0.0)
    ids = tuple(f"R{k:03d}" for k in range(len(base)))
    clouds = []
    for event in range(events + 1):
        xy = base.copy()
        xy[:, 1] -= grid * np.round(event * sink / grid)
        clouds.append(PointCloud(ids, xy))
    return SnapshotSequence(tuple(range(events + 1)), tuple(clouds))


def ring_sequence(seed: int, tiny: bool = False) -> SnapshotSequence:
    """The default 42-block x 21-event synth scenario (6 x 18 when tiny).

    The tiny ring keeps 18 events because run-all trains on events 0..15.
    """
    if tiny:
        return synth.generate_sequence(synth.ScenarioConfig(n_blocks=6, n_events=17, seed=seed))
    return synth.generate_sequence(synth.ScenarioConfig(seed=seed))


def generate(name: str, seed: int, tiny: bool = False) -> SnapshotSequence | None:
    """Inputs of a workload; paper-fixture reads only the bundled tables."""
    if name == "ring42-bundle":
        return ring_sequence(seed, tiny)
    if name == "rubble-stream":
        return rubble_sequence(seed, tiny)
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mst_lengths(xy: np.ndarray) -> list[float]:
    """Edge lengths of a Euclidean minimum spanning tree (Prim), ascending."""
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=-1))
    n = len(xy)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    lengths = []
    for _ in range(n - 1):
        best[in_tree] = np.inf
        k = int(np.argmin(best))
        lengths.append(float(best[k]))
        in_tree[k] = True
        best = np.minimum(best, d[k])
    return sorted(lengths)


def h0_matches_mst(xy: np.ndarray, h0: list[tuple[float, float]], cap: float) -> bool:
    """Independent check of the dim-0 bars: one bar per MST edge within the cap.

    Every block is born at 0; MST edges of length 0 (coincident blocks) give
    no bar, edges above the cap leave one more component open forever.
    """
    mst = mst_lengths(xy)
    expected_finite = [w for w in mst if 0.0 < w <= cap]
    expected_open = 1 + sum(1 for w in mst if w > cap)
    finite = sorted(death for birth, death in h0 if death != float("inf"))
    return (all(birth == 0.0 for birth, _ in h0) and finite == expected_finite
            and len(h0) - len(finite) == expected_open)


class _Bundle:
    """One `run-all` through cli.main per operation; the output is the bundle."""

    cycle = 1
    split_at: tuple = ()  # (module, attribute) whose calls cut the timed operation

    def __init__(self, in_dir: Path, out_dir: Path, argv: list[str]):
        self.in_dir = in_dir
        self.out_dir = out_dir
        self.argv = argv + ["--out-dir", str(out_dir)]

    def before(self, i: int) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, i: int) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"run-all exited with {rc}")

    def outcome(self, i: int) -> dict[str, str]:
        """sha256 of every bundle file, by path relative to the bundle."""
        return {p.relative_to(self.out_dir).as_posix(): sha256(p)
                for p in sorted(self.out_dir.rglob("*")) if p.is_file()}

    def oracle(self, i: int) -> bool:
        """No independent check; paper-fixture's recorded reference covers every seed."""
        return True


class RingBundle(_Bundle):
    # A bundle takes ~5 s while the host's speed changes within seconds; cut
    # at the 21 barcodes, every part of it is timed next to a probe (speed.py).
    split_at = ((pipeline, "barcode_from_cloud"),)

    def __init__(self, in_dir: Path, out_dir: Path):
        super().__init__(in_dir, out_dir, ["run-all", "--manifest", str(in_dir / "manifest.json"),
                                           "--max-filtration", repr(RING_CAP)])

    def oracle(self, i: int) -> bool:
        seq = dataio.load_sequence(self.in_dir / "manifest.json")
        for event, cloud in zip(seq.events, seq.clouds):
            bars = dataio.read_barcode(self.out_dir / "barcodes" / pipeline.barcode_filename(event))
            h0 = [(p.birth, p.death) for p in bars.in_dim(0)]
            if not h0_matches_mst(np.asarray(cloud.xy), h0, RING_CAP):
                return False
        return True


class PaperFixture(_Bundle):
    def __init__(self, in_dir: Path, out_dir: Path):
        super().__init__(in_dir, out_dir, ["run-all", "--preset", "paper"])


class RubbleStream:
    """One snapshot file -> barcode -> features -> warning decision per operation.

    Operation i handles event i mod cycle; the series restarts with event 0.
    The rubble has no calibrated threshold, so only the rapid-change
    criterion is scanned.
    """

    split_at: tuple = ()

    def __init__(self, in_dir: Path, out_dir: Path):
        self.paths = sorted(in_dir.glob("snapshot_*.csv"))
        self.cycle = len(self.paths)
        self.series: list[float] = []

    def before(self, i: int) -> None:
        if i % self.cycle == 0:
            self.series = []

    def run(self, i: int) -> None:
        cloud = dataio.load_snapshot(self.paths[i % self.cycle])
        self.barcode = topology.barcode_from_cloud(cloud, RUBBLE_CAP)
        self.vector = features.extract_features(self.barcode)
        self.series.append(self.vector.f8)
        self.report = (pipeline.detect_warning(self.series, threshold=None)
                       if len(self.series) >= 2 else None)
        self.cloud = cloud

    def outcome(self, i: int) -> str:
        """sha256 of the event's bars, features and warning decision, all exact."""
        lines = [f"{p.dim},{p.birth!r},{p.death!r}" for p in self.barcode.pairs]
        lines.append(",".join(repr(v) for v in self.vector.as_array()))
        r = self.report
        lines.append("-" if r is None else repr((r.triggered, r.trigger_event, r.criterion)))
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def oracle(self, i: int) -> bool:
        h0 = [(p.birth, p.death) for p in self.barcode.in_dim(0)]
        return h0_matches_mst(np.asarray(self.cloud.xy), h0, RUBBLE_CAP)


CLASSES = {"ring42-bundle": RingBundle, "paper-fixture": PaperFixture,
           "rubble-stream": RubbleStream}


def reference_key(name: str, seed: int, tiny: bool) -> str | None:
    """Key of the recorded reference for this run; None when there is none.

    paper-fixture reads only the bundled tables, so one reference serves
    every seed. Tiny inputs have no recorded reference.
    """
    if name == "paper-fixture":
        return "any"
    return None if tiny else str(seed)
