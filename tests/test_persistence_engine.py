"""The array persistence engine against the set-based reference reduction.

The brute-force oracle cannot reach 42 blocks, so the engine is checked
against tests/reference_reduction.py on the default synthetic scenario, on a
tied quarter-metre grid, and on small tied clouds drawn by hypothesis, where
the oracle joins in.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltda.errors import InputError
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import (FiltSimplex, Filtration, build_vr_filtration,
                                compute_distance_matrix, compute_persistence)

from conftest import make_cloud
from oracle import rank_function_barcode
from reference_reduction import reference_persistence


def assert_engine_matches_reference(f):
    """Engine == reference, exactly, with zero-length bars kept and dropped."""
    full = reference_persistence(f, keep_zero_bars=True)
    assert compute_persistence(f, keep_zero_bars=True).pairs == full.pairs
    # the reference drops exactly the pairs with death == birth
    assert compute_persistence(f).pairs == tuple(p for p in full.pairs if p.death != p.birth)


def test_engine_matches_reference_on_default_scenario():
    seq = generate_sequence(ScenarioConfig())
    assert len(seq.clouds) == 21 and len(seq.clouds[0]) == 42
    for cloud in seq.clouds:
        assert_engine_matches_reference(build_vr_filtration(compute_distance_matrix(cloud), 30.0))


def test_engine_matches_reference_on_tied_grid():
    rng = np.random.default_rng(60)
    cells = rng.choice(12 * 12, size=60, replace=False)
    cloud = make_cloud(0.25 * np.column_stack(np.divmod(cells, 12)))
    dm = compute_distance_matrix(cloud)
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


def tied_filtration(spec):
    step, cells, cap_fraction = spec
    dm = compute_distance_matrix(make_cloud([(step * x, step * y) for x, y in cells]))
    cap = max(cap_fraction * dm.d.max(), step)
    return build_vr_filtration(dm, cap)


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


def test_filtration_from_simplices_matches_built():
    dm = compute_distance_matrix(make_cloud([(0, 0), (1, 0), (1, 1), (0, 1), (3, 3)]))
    built = build_vr_filtration(dm, 2.0)
    rebuilt = Filtration(built.simplices, 2.0)
    assert np.array_equal(rebuilt.edges, built.edges)
    assert np.array_equal(rebuilt.triangle_values, built.triangle_values)
    assert compute_persistence(rebuilt) == compute_persistence(built)


def test_filtration_rejects_missing_face():
    with pytest.raises(InputError, match="face"):
        Filtration((FiltSimplex((0,), 0.0), FiltSimplex((0, 1), 1.0)), 5.0)


def test_filtration_rejects_unlabelled_or_late_vertices():
    with pytest.raises(InputError, match="vertices"):
        Filtration((FiltSimplex((1,), 0.0),), 5.0)
    with pytest.raises(InputError, match="vertices"):
        Filtration((FiltSimplex((0,), 0.5),), 5.0)

