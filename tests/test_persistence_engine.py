"""The array persistence engine against the reference implementations.

The brute-force oracle cannot reach 42 blocks, so the engine is checked
against tests/reference_reduction.py on the default synthetic scenario, on a
tied quarter-metre grid, and on small tied clouds drawn by hypothesis, where
the oracle joins in. The distance matrix and the four filtration arrays are
checked array for array against tests/reference_filtration.py on the same
clouds and on degenerate ones.
"""

import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltda import pipeline, topology
from tunneltda.dataio import SnapshotSequence
from tunneltda.errors import InputError
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import (MAX_EDGE_CANDIDATES, MAX_TRIANGLE_CANDIDATES, Filtration,
                                PersistencePair, barcode_from_cloud, build_vr_filtration,
                                compute_distance_matrix, compute_persistence)

from conftest import make_cloud, plus_cloud
from oracle import rank_function_barcode
from reference_filtration import facets_of, reference_distance_matrix, reference_filtration
from reference_reduction import reference_persistence

FILTRATION_ARRAYS = ("edges", "edge_values", "triangles", "triangle_values")


def assert_filtration_matches_reference(cloud, cap):
    """Distances and all four filtration arrays, built from the distance
    matrix and from the cloud, == the reference's, exactly."""
    dm, ref_dm = compute_distance_matrix(cloud), reference_distance_matrix(cloud)
    assert np.array_equal(dm.d, ref_dm.d)
    f, ref = build_vr_filtration(dm, cap), reference_filtration(ref_dm, cap)
    for built in (f, build_vr_filtration(cloud, cap)):
        for name in FILTRATION_ARRAYS:
            got, want = getattr(built, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
    return f


def tied_grid_cloud():
    """60 blocks on a quarter-metre grid, where distances tie heavily."""
    rng = np.random.default_rng(60)
    cells = rng.choice(12 * 12, size=60, replace=False)
    return make_cloud(0.25 * np.column_stack(np.divmod(cells, 12)))


def assert_engine_matches_reference(f):
    """Engine == reference with its zero-length bars dropped, exactly."""
    full = reference_persistence(f, keep_zero_bars=True)
    assert compute_persistence(f).pairs == tuple(p for p in full.pairs if p.death != p.birth)


def test_engine_matches_reference_on_default_scenario():
    seq = generate_sequence(ScenarioConfig())
    assert len(seq.clouds) == 21 and len(seq.clouds[0]) == 42
    # At cap 8 the cavity stays open: its column takes 9-18 additions and
    # reduces to zero, so the working column ends at its sentinel.
    for cap in (30.0, 8.0):
        for cloud in seq.clouds:
            f = build_vr_filtration(compute_distance_matrix(cloud), cap)
            assert_engine_matches_reference(f)
            if cap == 8.0:
                assert any(p.death == np.inf for p in compute_persistence(f).in_dim(1))


def test_engine_matches_reference_on_tied_grid():
    dm = compute_distance_matrix(tied_grid_cloud())
    _, counts = np.unique(dm.d[np.triu_indices(60, 1)], return_counts=True)
    assert counts.max() >= 20  # distances really tie
    f = build_vr_filtration(dm, 1.0)
    assert len(f.triangle_values) > 1000
    assert len(compute_persistence(f).in_dim(1)) > 10
    assert_engine_matches_reference(f)


grid_clouds = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.sampled_from([1.0, 0.25]),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
             min_size=n, max_size=n),  # repeats give zero-length edges
    st.floats(0.3, 1.2),
))


def tied_cloud_and_cap(spec):
    step, cells, cap_fraction = spec
    cloud = make_cloud([(step * x, step * y) for x, y in cells])
    return cloud, max(cap_fraction * compute_distance_matrix(cloud).d.max(), step)


def tied_filtration(spec):
    cloud, cap = tied_cloud_and_cap(spec)
    return build_vr_filtration(compute_distance_matrix(cloud), cap)


@settings(max_examples=150, deadline=None)
@given(grid_clouds)
def test_engine_matches_reference_on_tied_clouds(spec):
    assert_engine_matches_reference(tied_filtration(spec))


@settings(max_examples=60, deadline=None)
@given(grid_clouds.filter(lambda spec: len(spec[1]) <= 8))
def test_engine_matches_oracle_on_tied_clouds(spec):
    f = tied_filtration(spec)
    got = [tuple(p) for p in compute_persistence(f).pairs]
    assert got == rank_function_barcode(f)


def test_engine_adds_an_owners_stored_reduction():
    # One column here meets an owner that received additions itself; adding
    # that owner's coboundary alone, instead of every coboundary it summed,
    # gives another barcode.
    cloud = make_cloud([(0, 0.5), (0, 1.5), (1, 0), (1, 2), (1.5, 1), (1.5, 1.5), (2, 0)])
    f = build_vr_filtration(compute_distance_matrix(cloud), 3.0)
    assert_engine_matches_reference(f)
    b = compute_persistence(f)
    assert [tuple(p) for p in b.pairs] == rank_function_barcode(f)
    assert b.in_dim(1) == (PersistencePair(1, math.sqrt(1.25), math.sqrt(2.5)),)


def prim_mst_lengths(xy):
    """Edge lengths of a Euclidean minimum spanning tree by Prim's algorithm,
    ascending; each length is rounded as the distance matrix rounds it."""
    def dist(i, j):
        dx, dy = xy[i][0] - xy[j][0], xy[i][1] - xy[j][1]
        return math.sqrt(dx * dx + dy * dy)

    best = {v: dist(0, v) for v in range(1, len(xy))}
    lengths = []
    while best:
        v = min(best, key=best.get)
        lengths.append(best.pop(v))
        for u in best:
            best[u] = min(best[u], dist(v, u))
    return sorted(lengths)


@pytest.mark.parametrize("clouds, cap", [
    (generate_sequence(ScenarioConfig(seed=0)).clouds, 30.0),
    (generate_sequence(ScenarioConfig(seed=7)).clouds, 30.0),
    (generate_sequence(ScenarioConfig(seed=1009)).clouds, 30.0),
    ((tied_grid_cloud(),), 1.0),
    ((tied_grid_cloud(),), 0.25),  # grid neighbours only: some tree edges lie above the cap
], ids=["ring-seed0", "ring-seed7", "ring-seed1009", "tied-grid", "tied-grid-cap-0.25"])
def test_dim0_deaths_are_the_mst_edge_lengths(clouds, cap):
    for cloud in clouds:
        mst = prim_mst_lengths(cloud.xy.tolist())
        f = build_vr_filtration(compute_distance_matrix(cloud), cap)
        h0 = compute_persistence(f).in_dim(0)
        assert all(p.birth == 0.0 for p in h0)
        assert sorted(p.death for p in h0 if p.death != math.inf) == [
            w for w in mst if 0.0 < w <= cap]
        assert sum(p.death == math.inf for p in h0) == 1 + sum(w > cap for w in mst)


# ---------------------------------------------------------------------------
# the neighbour-list filtration build against the chunked dense scan

def test_filtration_matches_reference_on_default_scenario():
    for cloud in generate_sequence(ScenarioConfig()).clouds:
        assert_filtration_matches_reference(cloud, 30.0)


def test_filtration_matches_reference_on_tied_grid():
    f = assert_filtration_matches_reference(tied_grid_cloud(), 1.0)
    assert len(f.triangle_values) > 1000
    assert len(np.unique(f.edge_values)) < len(f.edge_values) // 20  # many ties


@settings(max_examples=150, deadline=None)
@given(grid_clouds)
def test_filtration_matches_reference_on_tied_clouds(spec):
    assert_filtration_matches_reference(*tied_cloud_and_cap(spec))


@pytest.mark.parametrize("points, cap, n_edges, n_tris", [
    ([(2.5, -1)], 1.0, 0, 0),                      # one block
    ([(0, 0), (5, 0), (0, 5)], 1.0, 0, 0),         # no edge within the cap
    ([(0, 0), (1, 0), (2, 0), (3, 0)], 1.0, 3, 0),  # edges but no triangle
    ([(0, 0), (0, 0), (1, 0)], 1.0, 3, 1),         # a zero-length edge
    ([(0, 0), (1, 0), (0.5, 0.5), (0, 3), (np.nextafter(1.0, 2.0), 3), (0.5, 3.5)],
     1.5, 6, 2),                                   # longest edges one ulp apart
], ids=["one-block", "no-edge", "no-triangle", "coincident", "ulp-apart"])
def test_filtration_matches_reference_on_degenerate_clouds(points, cap, n_edges, n_tris):
    f = assert_filtration_matches_reference(make_cloud(points), cap)
    assert (len(f.edge_values), len(f.triangle_values)) == (n_edges, n_tris)


def test_filtration_matches_reference_past_8_bit_ranks():
    # 435 edges on a tied grid, so the rank type is uint16 with few distinct
    # values; then a random cloud whose distinct ranks themselves pass 255
    cloud = make_cloud(0.5 * np.column_stack(np.divmod(np.arange(30), 6)))
    f = assert_filtration_matches_reference(cloud, 10.0)
    assert (len(f.edge_values), len(f.triangle_values)) == (435, 4060)
    assert 1 < len(np.unique(f.edge_values)) < 255
    rng = np.random.default_rng(256)
    f = assert_filtration_matches_reference(make_cloud(rng.uniform(0, 4, (40, 2))), 3.0)
    assert len(np.unique(f.edge_values)) > 256


def test_triangle_limit_fails_before_allocating():
    # C(500, 3) = 20.7M triangles under a covering cap; the build would need
    # ~1.8 GB, the refusal needs only a few edge-sized arrays. It drops the
    # last edge set's entry from reuse and leaves none of its own.
    square = compute_distance_matrix(make_cloud([(0, 0), (1, 0), (1, 1), (0, 1)]))
    reuse = seen_twice(square, 2.0)
    rng = np.random.default_rng(5)
    dm = compute_distance_matrix(make_cloud(rng.uniform(0.0, 10.0, size=(500, 2))))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"give 20708500 triangle candidates, "
                                             f"above the limit of {MAX_TRIANGLE_CANDIDATES}"):
            build_vr_filtration(dm, 20.0, reuse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert reuse == {}
    assert build_vr_filtration(square, 2.0, reuse).cofaces is None


# ---------------------------------------------------------------------------
# the cloud's sweep edge listing against the dense one

def assert_cloud_lists_dense_edges(cloud, cap):
    """PointCloud.edges_within == DistanceMatrix.edges_within: the same
    (i, j) in the same order and types, and the same value bits."""
    got, want = cloud.edges_within(cap), compute_distance_matrix(cloud).edges_within(cap)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return got


@st.composite
def clouds_and_caps(draw):
    """Random clouds, tied quarter-metre grids and clouds of coincident
    blocks, one block up, shifted by up to 1e6; the cap is exactly one of
    the cloud's distances (a tied one on a grid), a fraction of the
    largest, or covers the cloud."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "grid", "coincident"]))
    if kind == "random":
        local = draw(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                              min_size=n, max_size=n))
    else:
        side = 8 if kind == "grid" else 2
        local = [(0.25 * x, 0.25 * y) for x, y in draw(st.lists(
            st.tuples(st.integers(0, side), st.integers(0, side)), min_size=n, max_size=n))]
    ox, oy = draw(st.sampled_from([0.0, 1e6, -1e6])), draw(st.floats(-1e6, 1e6))
    cloud = make_cloud([(ox + x, oy + y) for x, y in local])
    d = compute_distance_matrix(cloud).d
    choice = draw(st.sampled_from(["pair", "fraction", "covering"]))
    if choice == "pair":
        cap = float(d[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))])
    elif choice == "fraction":
        cap = draw(st.floats(0.05, 1.0)) * float(d.max())
    else:
        cap = 2.0 * float(d.max()) + 1.0
    return cloud, cap if cap > 0 else 0.25


@settings(max_examples=300, deadline=None)
@given(clouds_and_caps())
def test_cloud_lists_the_dense_edges(spec):
    assert_cloud_lists_dense_edges(*spec)


def test_cloud_lists_the_dense_edges_on_ring_and_tied_grid():
    clouds = [(c, 30.0) for c in generate_sequence(ScenarioConfig(seed=7)).clouds]
    clouds += [(c, 8.0) for c in generate_sequence(ScenarioConfig(seed=1009)).clouds]
    for cap in (0.25, 0.5, 0.25 * math.sqrt(2), 1.0):  # each one of the grid's tied distances
        clouds.append((tied_grid_cloud(), cap))
    for cloud, cap in clouds:
        assert_cloud_lists_dense_edges(cloud, cap)


def test_cloud_measures_only_pairs_near_in_x():
    # (1e200)^2 overflows. Blocks 1e200 apart in x at cap 1 are never
    # measured: three open components, where the dense matrix is refused.
    # At cap 1e300 they are candidates, and the overflow is refused as there.
    cloud = make_cloud([(0, 0), (1e200, 0), (-1e200, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = barcode_from_cloud(cloud, 1.0)
        assert b.pairs == (PersistencePair(0, 0.0, math.inf),) * 3
        for build in (lambda: barcode_from_cloud(cloud, 1e300),
                      lambda: compute_distance_matrix(cloud)):
            with pytest.raises(InputError, match="^distances must be finite$"):
                build()


def test_edge_candidate_limit_fails_before_allocating():
    # 16,991,045 candidates in x, ~1 GiB to measure
    cloud = plus_cloud()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"^11600 blocks at max_filtration 0.01 give "
                                             f"16991045 block pairs within the cap in x, "
                                             f"above the limit of {MAX_EDGE_CANDIDATES}; "
                                             f"lower the cap$"):
            barcode_from_cloud(cloud, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_line_is_swept_along_its_spread():
    # 5,800 blocks on a vertical line are swept in y and its 90-degree
    # rotation in x: the same edges, index for index and bit for bit, and
    # the same barcode
    line = make_cloud([(0.0, 0.001 * k) for k in range(5800)])
    turned = make_cloud(np.column_stack([-line.xy[:, 1], line.xy[:, 0]]))
    got, want = line.edges_within(0.01), turned.edges_within(0.01)
    assert len(got[0]) == 54782
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert barcode_from_cloud(line, 0.01) == barcode_from_cloud(turned, 0.01)


def test_sparse_cloud_memory_follows_the_cap():
    # 4,000 blocks, one per square metre, at cap 1.5: ~14k edges. The dense
    # matrices took 259 MiB; what is left is the n x n edge-index table of
    # the triangle enumeration, 30.5 MiB in 16 bits.
    rng = np.random.default_rng(4000)
    cloud = make_cloud(rng.uniform(0.0, math.sqrt(4000), size=(4000, 2)))
    tracemalloc.start()
    try:
        barcode_from_cloud(cloud, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


# ---------------------------------------------------------------------------
# the last edge set's entry in reuse: a repeated edge set skips the enumeration

def cold_build(dm, cap):
    """The first build of a sequence: its reuse holds no entry."""
    return build_vr_filtration(dm, cap, {})


def hand_built(f):
    """The same filtration without the build's coface grouping."""
    return Filtration(f.n_vertices, f.edges, f.edge_values, f.facets, f.triangle_values,
                      f.max_filtration)


def assert_same_filtration(got, want):
    """Equal arrays and equal barcodes; the repeat's grouping lists each
    edge's cofaces, and reducing without it gives the same barcode."""
    for name in ("edges", "edge_values", "facets", "triangle_values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    barcode = compute_persistence(got)
    assert barcode.pairs == compute_persistence(want).pairs
    assert barcode.pairs == compute_persistence(hand_built(got)).pairs
    if got.cofaces is not None:
        rows, start, group = got.cofaces
        for e in range(len(got.edge_values)):
            coboundary = rows[start[group[e]]:start[group[e] + 1]]
            assert np.array_equal(np.sort(coboundary),
                                  np.flatnonzero((got.facets == e).any(axis=1))), e


def test_repeated_ring_edge_set_builds_as_a_cold_build():
    # at cap 30 every snapshot of the ring has the complete edge set: the
    # first build keeps only its key, the second enumerates again and keeps
    # the skeleton and its coface grouping, the rest reuse both. Builds
    # without reuse keep nothing, so each is cold.
    clouds = generate_sequence(ScenarioConfig()).clouds
    cold = [build_vr_filtration(compute_distance_matrix(c), 30.0) for c in clouds]
    assert all(f.cofaces is None for f in cold)
    reuse = {}
    warm = [build_vr_filtration(compute_distance_matrix(c), 30.0, reuse) for c in clouds]
    assert warm[0].cofaces is None and all(f.cofaces is not None for f in warm[1:])
    for k in (0, 1, 2, 20):
        assert_same_filtration(warm[k], cold[k])
    for w, c in zip(warm, cold):
        assert compute_persistence(w).pairs == compute_persistence(c).pairs


@settings(max_examples=100, deadline=None)
@given(grid_clouds)
def test_repeated_build_matches_cold_build_on_tied_clouds(spec):
    cloud, cap = tied_cloud_and_cap(spec)
    dm = compute_distance_matrix(cloud)
    for cap in (cap, max(dm.d.max(), spec[0])):  # the drawn cap, then a covering one
        reuse = {}
        cold = build_vr_filtration(dm, cap, reuse)
        assert cold.cofaces is None
        first_repeat, repeat = (build_vr_filtration(dm, cap, reuse) for _ in range(2))
        for f in (first_repeat, repeat):
            assert f.cofaces is not None
            assert_same_filtration(f, cold)
        assert_engine_matches_reference(repeat)


def seen_twice(dm, cap):
    """A reuse whose entry holds the triangles of dm's edge set, built twice."""
    reuse = {}
    build_vr_filtration(dm, cap, reuse)
    assert build_vr_filtration(dm, cap, reuse).cofaces is not None
    return reuse


@pytest.mark.parametrize("first, then", [
    # same n and edge count, other pairs: a triangle and a pendant edge, then
    # a 4-cycle whose hole stays open at the cap
    ([(0, 0), (1, 0), (0.5, 0.8), (1.9, 0)], [(0, 0), (1, 0), (1, 1), (0, 1)]),
    ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (1, 0), (0.5, 0.8), (1.9, 0)]),
    # the same flat ids 1, 2 and 7 at n = 4, a path, and at n = 5, a triangle
    ([(0, 0), (1, 0), (-1, 0), (2, 0)], [(0, 0), (1, 0), (0.5, 0.8), (10, 10), (20, 20)]),
    ([(0, 0), (1, 0), (0.5, 0.8), (10, 10), (20, 20)], [(0, 0), (1, 0), (-1, 0), (2, 0)]),
], ids=["triangle-then-cycle", "cycle-then-triangle", "n4-then-n5", "n5-then-n4"])
def test_stale_entry_is_never_used(first, then, monkeypatch):
    # nor kept: its skeleton is freed before the new edge set is enumerated
    reuse = seen_twice(compute_distance_matrix(make_cloud(first)), 1.0)
    stale = weakref.ref(reuse["edge_set"][2][0])
    freed, enumerate_triangles = [], topology._enumerate_triangles
    monkeypatch.setattr(topology, "_enumerate_triangles",
                        lambda *args: freed.append(stale() is None) or enumerate_triangles(*args))
    dm = compute_distance_matrix(make_cloud(then))
    f = build_vr_filtration(dm, 1.0, reuse)
    assert f.cofaces is None and freed == [True]
    assert_same_filtration(f, cold_build(dm, 1.0))
    assert_engine_matches_reference(f)


def test_interleaved_sequences_match_cold_builds():
    # seed 7 at cap 30 (the complete edge set) and seed 1009 at cap 8 (a
    # partial one), snapshot by snapshot. Builds without reuse keep nothing
    # between calls; builds sharing one reuse replace its entry each time.
    ring = generate_sequence(ScenarioConfig()).clouds
    other = generate_sequence(ScenarioConfig(seed=1009)).clouds
    runs = [(compute_distance_matrix(c), cap)
            for pair in zip(ring, other) for c, cap in zip(pair, (30.0, 8.0))]
    reuse = {}
    for built in ([build_vr_filtration(dm, cap) for dm, cap in runs],
                  [build_vr_filtration(dm, cap, reuse) for dm, cap in runs]):
        assert all(f.cofaces is None for f in built)
        for f, (dm, cap) in zip(built[:6], runs):
            assert_same_filtration(f, cold_build(dm, cap))


def test_repeat_memory_per_triangle():
    # 150 blocks under a covering cap: 551,300 triangles. With the entry's
    # skeleton and grouping included, a repeat's build and reduction each
    # peak below 64 bytes per triangle, the budget of 1 GiB at the limit.
    rng = np.random.default_rng(150)
    dm = compute_distance_matrix(make_cloud(rng.uniform(0.0, 10.0, size=(150, 2))))
    reuse = {}
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(3):
            tracemalloc.reset_peak()
            f = build_vr_filtration(dm, 20.0, reuse)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            compute_persistence(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
            del f
    finally:
        tracemalloc.stop()
    assert max(peaks[2:]) < 64 * 551_300


def test_compute_barcodes_keeps_no_entry_after_it_returns():
    # the same 150 blocks three times under a covering cap: the repeats'
    # entry holds ~10 MB of triangles while the sequence runs, none after
    rng = np.random.default_rng(150)
    cloud = make_cloud(rng.uniform(0.0, 10.0, size=(150, 2)))
    seq = SnapshotSequence((0, 1, 2), (cloud,) * 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        barcodes = pipeline.compute_barcodes(seq, 20.0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
    assert barcodes[0].pairs == barcodes[1].pairs == barcodes[2].pairs


# ---------------------------------------------------------------------------
# the filtration arrays and their simplex view

def test_filtration_arrays_sorted_and_view_lazy():
    f = build_vr_filtration(compute_distance_matrix(make_cloud(
        [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (2, 0)])), 1.2)
    for verts, values in ((f.edges, f.edge_values), (f.triangles, f.triangle_values)):
        keys = [(v, tuple(row)) for v, row in zip(values.tolist(), verts.tolist())]
        assert keys == sorted(keys)
    compute_persistence(f)
    assert "simplices" not in vars(f)  # the engine never builds per-simplex objects
    assert len(f) == len(f.simplices) == 6 + len(f.edge_values) + len(f.triangle_values)


def test_engine_reads_facets_not_vertex_triples():
    f = build_vr_filtration(compute_distance_matrix(tied_grid_cloud()), 1.0)
    compute_persistence(f)
    assert "triangles" not in vars(f) and "simplices" not in vars(f)


def assert_facets_match_lookup(f):
    """The build's facets == those looked up by vertex pair from the vertex triples."""
    looked_up = Filtration(f.n_vertices, f.edges, f.edge_values,
                           facets_of(f.n_vertices, f.edges, f.triangles), f.triangle_values,
                           f.max_filtration)
    assert f.facets.dtype == looked_up.facets.dtype == np.min_scalar_type(len(f.edge_values))
    assert f.facets.shape == (len(f.triangle_values), 3)
    assert np.array_equal(f.facets, looked_up.facets)


def test_built_facets_match_lookup():
    # 861 edges per ring snapshot and 435 on the 30-block grid: uint16 ids
    clouds = [(cloud, 30.0) for cloud in generate_sequence(ScenarioConfig()).clouds[::5]]
    clouds += [(make_cloud(0.5 * np.column_stack(np.divmod(np.arange(30), 6))), 10.0),
               (tied_grid_cloud(), 1.0)]
    for cloud, cap in clouds:
        assert_facets_match_lookup(build_vr_filtration(compute_distance_matrix(cloud), cap))


@settings(max_examples=100, deadline=None)
@given(grid_clouds)
def test_built_facets_match_lookup_on_tied_clouds(spec):
    assert_facets_match_lookup(tied_filtration(spec))

