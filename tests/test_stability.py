"""Stability of the barcode at sizes the brute-force oracle cannot reach.

If every block moves by at most delta, every distance moves by at most
2 delta, and so does the value of every simplex of the Vietoris-Rips
filtration. With deaths clamped to the cap, a capped barcode is that of the
full filtration under min(value, cap), which is 1-Lipschitz, so the dim-0
and dim-1 barcodes move by at most 2 delta in bottleneck distance
(Cohen-Steiner, Edelsbrunner & Harer 2007; Chazal, de Silva & Oudot 2014).
A matching within epsilon changes each matched bar's length by at most
2 epsilon and leaves unmatched bars shorter than 2 epsilon, so the k-th
longest bar of a dimension, 0 when there are fewer than k, moves by at most
2 epsilon too: f3, f4 and f8 move by at most 4 delta. This holds the engine
to a property of its output, not to another implementation of the same
pairing rule.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from tunneltda.features import extract_features
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import barcode_from_cloud

from bottleneck import bottleneck
from conftest import bars, make_cloud


def ring_cloud(seed, event):
    """One snapshot of a 42-block synthetic scenario, at the default cap."""
    return generate_sequence(ScenarioConfig(seed=seed)).clouds[event].xy, 30.0


def rubble_cloud(seed, n):
    """n blocks in a 10-20 m annulus on a quarter-metre grid, capped at 6 m."""
    rng = np.random.default_rng(seed)
    radius, angle = rng.uniform(10.0, 20.0, n), rng.uniform(0.0, 2 * math.pi, n)
    xy = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return 0.25 * np.round(xy / 0.25), 6.0


def grid_cloud(seed, n, cap_fraction):
    """n distinct cells of a 12 x 12 quarter-metre grid, where distances tie;
    a cap of 4 m covers the grid."""
    cells = np.random.default_rng(seed).choice(12 * 12, size=n, replace=False)
    return 0.25 * np.column_stack(np.divmod(cells, 12)), 4.0 * cap_fraction


seeds = st.integers(0, 2**32 - 1)
clouds = st.one_of(
    st.builds(ring_cloud, seeds, st.integers(0, 20)),
    st.builds(rubble_cloud, seeds, st.integers(40, 80)),
    st.builds(grid_cloud, seeds, st.integers(40, 60), st.floats(0.2, 1.0)),
)


def move_blocks(xy, seed, delta):
    """Every block moved by at most delta in a random direction; the moved
    cloud and the largest movement made."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2 * math.pi, len(xy))
    step = delta * rng.uniform(0.0, 1.0, len(xy))
    moved = xy + step[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return moved, float(np.hypot(*(moved - xy).T).max())


@settings(max_examples=40, deadline=None)
@given(clouds, seeds, st.floats(0.0, 0.2))
def test_barcode_moves_at_most_twice_the_block_movement(cloud, seed, delta):
    xy, cap = cloud
    moved, delta = move_blocks(xy, seed, delta)
    before = barcode_from_cloud(make_cloud(xy), cap)
    after = barcode_from_cloud(make_cloud(moved), cap)
    for dim in (0, 1):
        assert bottleneck(before, after, dim, cap) <= 2 * delta + 1e-9


@settings(max_examples=40, deadline=None)
@given(clouds, seeds, st.floats(0.0, 0.2))
def test_bar_length_features_move_at_most_four_times_the_block_movement(cloud, seed, delta):
    xy, cap = cloud
    moved, delta = move_blocks(xy, seed, delta)
    before = extract_features(barcode_from_cloud(make_cloud(xy), cap))
    after = extract_features(barcode_from_cloud(make_cloud(moved), cap))
    for k in (3, 4, 8):
        assert abs(after[k] - before[k]) <= 4 * delta + 1e-9, k


def brute_force_bottleneck(a, b):
    """Every perfect matching of a and b's diagonal copies against b and a's."""
    def cost(p, q):
        if p is None and q is None:
            return 0.0
        if p is None or q is None:
            s, d = p or q
            return (d - s) / 2
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))
    left, right = a + [None] * len(b), b + [None] * len(a)
    return min(max((cost(p, q) for p, q in zip(left, perm)), default=0.0)
               for perm in itertools.permutations(right))


bar = st.tuples(st.integers(0, 6), st.integers(0, 7)).map(
    lambda bd: (bd[0] / 2, math.inf if bd[1] == 7 else max(bd) / 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(bar, max_size=3), st.lists(bar, max_size=3))
def test_bottleneck_matches_brute_force(a, b):
    cap = 3.0
    clamp = [(s, min(d, cap)) for s, d in a], [(s, min(d, cap)) for s, d in b]
    got = bottleneck(bars(*((1, s, d) for s, d in a), cap=cap),
                     bars(*((1, s, d) for s, d in b), cap=cap), 1, cap)
    assert got == brute_force_bottleneck(*clamp)
