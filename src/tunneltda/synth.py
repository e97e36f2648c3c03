"""Deterministic synthetic collapse sequences for end-to-end tests and demos.

Not a mechanics model: a geometric surrogate in which blocks start on a ring
(the tunnel boundary) and the upper arc sinks a fixed amount per blast event,
shrinking the central cavity the way the real collapse zone does. Determinism
under a fixed seed is part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import SnapshotSequence
from .errors import InputError
from .topology import PointCloud


@dataclass(frozen=True)
class ScenarioConfig:
    n_blocks: int = 42
    n_events: int = 20          # blasts after the natural state (event 0)
    seed: int = 7
    ring_radius: float = 12.0
    collapse_rate: float = 0.35  # m of descent per event at the crown
    jitter: float = 0.05         # bound on the static per-block offset, m

    def __post_init__(self):
        if self.n_blocks < 4:
            raise InputError(f"need at least 4 blocks, got {self.n_blocks}")
        if self.n_events < 0:
            raise InputError(f"n_events must be non-negative, got {self.n_events}")
        if not 0 < self.ring_radius < math.inf:
            raise InputError(f"ring_radius must be positive and finite, got {self.ring_radius}")
        for name in ("collapse_rate", "jitter"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InputError(f"{name} must be non-negative and finite, got {value}")


def generate_sequence(cfg: ScenarioConfig) -> SnapshotSequence:
    """Snapshots for events 0..n_events with constant block ids.

    Block k sits at angle 2*pi*k/n on the ring plus a bounded static offset
    drawn once from the seed. At event e every upper-arc block has descended
    by e * collapse_rate * sin(angle): the crown sinks fastest, the springline
    not at all, so the per-event displacement of each block is constant and
    the cavity shrinks monotonically.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_blocks
    angles = 2.0 * np.pi * np.arange(n) / n
    base = cfg.ring_radius * np.column_stack([np.cos(angles), np.sin(angles)])
    base = base + cfg.jitter * rng.uniform(-1.0, 1.0, size=(n, 2))
    descent_per_event = cfg.collapse_rate * np.maximum(np.sin(angles), 0.0)

    width = max(2, len(str(n - 1)))
    ids = tuple(f"B{k:0{width}d}" for k in range(n))
    clouds = []
    for event in range(cfg.n_events + 1):
        xy = base.copy()
        xy[:, 1] -= event * descent_per_event
        clouds.append(PointCloud(ids, xy))
    return SnapshotSequence(tuple(range(cfg.n_events + 1)), tuple(clouds))
