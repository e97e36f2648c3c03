"""Exact invariances of the barcode, at sizes no oracle reaches.

A persistence diagram does not depend on how the ties of its filtration are
broken, and the engine's distances are exactly symmetric: (a - b)^2 equals
(b - a)^2 bit for bit, and + commutes. So relabelling the blocks, the
90-degree rotation (x, y) -> (-y, x) and the reflection x -> -x must leave
every barcode equal bit for bit (Barcode.__eq__). Each map changes the
vertex labels, the tie order, the sweep's order or axis, the triangle
candidates, the spanning forest and the apparent pairs, so it exercises the
whole engine; a bug whose output depends on any of them shows here. A
translation is not such a map: it rounds the coordinates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import PointCloud, barcode_from_cloud


def barcode(xy, cap):
    return barcode_from_cloud(PointCloud(tuple(f"b{k}" for k in range(len(xy))), xy), cap)


def assert_invariant(xy, cap, seed=0):
    """The barcode of xy equals those of its relabelling, rotation and
    reflection."""
    want = barcode(xy, cap)
    relabelled = xy[np.random.default_rng(seed).permutation(len(xy))]
    rotated = np.column_stack([-xy[:, 1], xy[:, 0]])
    reflected = np.column_stack([-xy[:, 0], xy[:, 1]])
    for name, moved in (("relabelled", relabelled), ("rotated", rotated),
                        ("reflected", reflected)):
        assert barcode(moved, cap) == want, name


@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_ring_snapshots_are_invariant(seed):
    for event, cloud in enumerate(generate_sequence(ScenarioConfig(seed=seed)).clouds):
        assert_invariant(cloud.xy, 30.0, seed=event)


@pytest.mark.parametrize("seed", range(5))
def test_tied_annulus_is_invariant(seed):
    # 200 blocks, one per band x sector cell of a 10-20 m annulus, snapped
    # to a quarter-metre grid so that many distances tie, at cap 6
    rng = np.random.default_rng(seed)
    band, sector = np.divmod(np.arange(200), 40)
    radius = 10.0 + (band + rng.uniform(size=200)) * 2.0
    angle = 2.0 * math.pi * (sector + rng.uniform(size=200)) / 40
    xy = 0.25 * np.round(np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]) / 0.25)
    assert_invariant(xy, 6.0, seed=seed)


@st.composite
def clouds(draw):
    """Up to 2,000 blocks, about one per square metre: uniform, or snapped
    to a quarter-metre grid, where distances tie and blocks can coincide;
    the cap links a few to a few dozen neighbours."""
    n = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy = rng.uniform(0.0, math.sqrt(n), size=(n, 2))
    if draw(st.booleans()):
        xy = 0.25 * np.round(xy / 0.25)
    return xy, draw(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.5])), draw(st.integers(0, 99))


@settings(max_examples=60, deadline=None)
@given(clouds())
def test_random_and_tied_clouds_are_invariant(spec):
    assert_invariant(*spec)


def test_ten_thousand_block_tied_grid_is_invariant():
    # 10,000 of the 40,000 cells of a 50 m quarter-metre grid at cap 0.75:
    # ~35k edges, ~42k triangles and ~2,300 hole bars
    cells = np.random.default_rng(10_000).choice(200 * 200, size=10_000, replace=False)
    assert_invariant(0.25 * np.column_stack(np.divmod(cells, 200)).astype(float), 0.75)
