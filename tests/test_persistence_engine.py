"""The array persistence engine against the reference implementations.

The brute-force oracle cannot reach 42 blocks, so the engine is checked
against tests/reference_reduction.py on the default synthetic scenario, on a
tied quarter-metre grid, and on small tied clouds drawn by hypothesis, where
the oracle joins in. The distance matrix and the four filtration arrays are
checked array for array against tests/reference_filtration.py on the same
clouds and on degenerate ones.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltda.errors import InputError
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import (MAX_TRIANGLE_CANDIDATES, Filtration, build_vr_filtration,
                                compute_distance_matrix, compute_persistence)

from conftest import make_cloud
from oracle import rank_function_barcode
from reference_filtration import facets_of, reference_distance_matrix, reference_filtration
from reference_reduction import reference_persistence

FILTRATION_ARRAYS = ("edges", "edge_values", "triangles", "triangle_values")


def assert_filtration_matches_reference(cloud, cap):
    """Distances and all four filtration arrays == the reference's, exactly."""
    dm, ref_dm = compute_distance_matrix(cloud), reference_distance_matrix(cloud)
    assert np.array_equal(dm.d, ref_dm.d)
    f, ref = build_vr_filtration(dm, cap), reference_filtration(ref_dm, cap)
    for name in FILTRATION_ARRAYS:
        got, want = getattr(f, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
    return f


def tied_grid_cloud():
    """60 blocks on a quarter-metre grid, where distances tie heavily."""
    rng = np.random.default_rng(60)
    cells = rng.choice(12 * 12, size=60, replace=False)
    return make_cloud(0.25 * np.column_stack(np.divmod(cells, 12)))


def assert_engine_matches_reference(f):
    """Engine == reference, exactly, with zero-length bars kept and dropped."""
    full = reference_persistence(f, keep_zero_bars=True)
    assert compute_persistence(f, keep_zero_bars=True).pairs == full.pairs
    # the reference drops exactly the pairs with death == birth
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
    # ~1.8 GB, the refusal needs only a few edge-sized arrays
    rng = np.random.default_rng(5)
    dm = compute_distance_matrix(make_cloud(rng.uniform(0.0, 10.0, size=(500, 2))))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"give 20708500 triangle candidates, "
                                             f"above the limit of {MAX_TRIANGLE_CANDIDATES}"):
            build_vr_filtration(dm, 20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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

