import math
import warnings

import numpy as np
import pytest

from tunneltda.errors import EntryError, InputError
from tunneltda.topology import (
    Barcode, FiltSimplex, PersistencePair,
    PointCloud, barcode_from_cloud, betti_numbers, boundary, boundary_of_chain,
    build_vr_filtration, compute_distance_matrix, compute_persistence,
)

from conftest import make_cloud, random_cloud
from oracle import rank_function_barcode

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# point clouds and distances

def test_pointcloud_rejects_duplicate_ids():
    with pytest.raises(InputError, match="duplicate"):
        PointCloud.from_rows([("a", 0, 0), ("a", 1, 1)])


def test_pointcloud_rejects_nonfinite():
    with pytest.raises(InputError, match="finite"):
        PointCloud.from_rows([("a", 0, 0), ("b", math.nan, 1)])


def test_pointcloud_rejects_empty():
    with pytest.raises(InputError):
        PointCloud.from_rows([])


@pytest.mark.parametrize("rows, message, index", [
    ([("a", 0, 0), ("b", 1, 1), ("b", 2, 2), ("a", 3, 3)], "duplicate block_id 'b'", 2),
    ([("a", 0, 0), ("b", 1, math.inf), ("c", math.nan, 2)], "coordinates must be finite", 1),
    ([("a", 0, 0), ("b", math.nan, 1), ("a", 2, 2)], "duplicate block_id 'a'", 2),
], ids=["repeated-id", "not-finite", "repeated-id-before-not-finite"])
def test_pointcloud_names_its_first_bad_block(rows, message, index):
    with pytest.raises(EntryError) as exc:
        PointCloud.from_rows(rows)
    assert (str(exc.value), exc.value.index) == (message, index)


def test_distance_345_triangle():
    dm = compute_distance_matrix(make_cloud([(0, 0), (3, 4)]))
    assert dm.d[0, 1] == 5.0
    assert dm.d[1, 0] == 5.0


def test_distance_single_point():
    dm = compute_distance_matrix(make_cloud([(2.5, -1)]))
    assert dm.d.shape == (1, 1)
    assert dm.d[0, 0] == 0.0


def test_distance_matches_independent_implementation():
    rng = np.random.default_rng(11)
    cloud = random_cloud(rng, 42)
    dm = compute_distance_matrix(cloud)
    assert np.array_equal(dm.d, dm.d.T)
    assert np.all(np.diag(dm.d) == 0.0)
    assert np.all(dm.d >= 0.0)
    for i in range(42):
        for j in range(42):
            expected = math.dist(cloud.xy[i], cloud.xy[j])
            assert dm.d[i, j] == pytest.approx(expected, abs=1e-12)


def test_distance_overflow_is_input_error_without_warning():
    # (1e200)^2 overflows to inf: the finite check reports it, numpy stays quiet
    cloud = make_cloud([(0, 0), (1e200, 0), (0, -1e200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="distances must be finite"):
            compute_distance_matrix(cloud)


# ---------------------------------------------------------------------------
# filtration construction

def equilateral():
    return make_cloud([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])


def test_vr_equilateral_triangle():
    f = build_vr_filtration(compute_distance_matrix(equilateral()), 2.0)
    by_dim = {d: [s for s in f.simplices if s.dim == d] for d in (0, 1, 2)}
    assert len(by_dim[0]) == 3 and all(s.value == 0.0 for s in by_dim[0])
    assert len(by_dim[1]) == 3 and all(s.value == pytest.approx(1.0) for s in by_dim[1])
    assert len(by_dim[2]) == 1
    tri = by_dim[2][0]
    assert tri.value == max(s.value for s in by_dim[1])


def test_vr_cap_excludes_long_edge():
    f = build_vr_filtration(compute_distance_matrix(make_cloud([(0, 0), (5, 0)])), 2.0)
    assert [s.dim for s in f.simplices] == [0, 0]


def test_vr_unit_square():
    f = build_vr_filtration(compute_distance_matrix(
        make_cloud([(0, 0), (1, 0), (1, 1), (0, 1)])), 2.0)
    verts = [s for s in f.simplices if s.dim == 0]
    edges = [s for s in f.simplices if s.dim == 1]
    tris = [s for s in f.simplices if s.dim == 2]
    assert len(verts) == 4
    assert sorted(s.value for s in edges) == pytest.approx([1, 1, 1, 1, SQRT2, SQRT2])
    assert len(tris) == 4 and all(s.value == pytest.approx(SQRT2) for s in tris)


def test_vr_requires_positive_cap():
    dm = compute_distance_matrix(make_cloud([(0, 0), (1, 0)]))
    with pytest.raises(InputError):
        build_vr_filtration(dm, 0.0)


@pytest.mark.parametrize("cap", [math.inf, math.nan, -1.0])
def test_vr_requires_finite_positive_cap(cap):
    dm = compute_distance_matrix(make_cloud([(0, 0), (1, 0)]))
    with pytest.raises(InputError, match="max_filtration must be positive and finite"):
        build_vr_filtration(dm, cap)


def test_faces_precede_cofaces():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cloud = random_cloud(rng, rng.integers(2, 9))
        f = build_vr_filtration(compute_distance_matrix(cloud), 40.0)
        seen = set()
        for s in f.simplices:
            for i in range(len(s.vertices)):
                face = s.vertices[:i] + s.vertices[i + 1:]
                if face:
                    assert face in seen or s.dim == 0
            seen.add(s.vertices)


# ---------------------------------------------------------------------------
# boundary operator

def test_boundary_edge():
    assert boundary(FiltSimplex((0, 1), 1.0)) == frozenset({(0,), (1,)})


def test_boundary_triangle():
    got = boundary(FiltSimplex((0, 1, 2), 1.0))
    assert got == frozenset({(0, 1), (0, 2), (1, 2)})


def test_boundary_vertex_is_empty():
    assert not boundary(FiltSimplex((3,), 0.0))


def test_boundary_squares_to_zero():
    tri = FiltSimplex((0, 1, 2), 1.0)
    assert not boundary_of_chain(boundary(tri))
    edge = FiltSimplex((4, 7), 2.0)
    assert not boundary_of_chain(boundary(edge))


# ---------------------------------------------------------------------------
# persistence

def test_square_barcode(square_barcode):
    h0 = square_barcode.in_dim(0)
    h1 = square_barcode.in_dim(1)
    assert sorted(p.death for p in h0) == pytest.approx([1, 1, 1, math.inf])
    assert all(p.birth == 0.0 for p in h0)
    assert len(h1) == 1
    assert h1[0].birth == pytest.approx(1.0, abs=1e-9)
    assert h1[0].death == pytest.approx(SQRT2, abs=1e-9)


def test_equilateral_triangle_has_no_holes():
    b = barcode_from_cloud(equilateral(), 2.0)
    assert len(b.in_dim(1)) == 0
    deaths = sorted(p.death for p in b.in_dim(0))
    assert deaths[:2] == pytest.approx([1.0, 1.0])
    assert deaths[2] == math.inf


def test_single_point_barcode():
    b = barcode_from_cloud(make_cloud([(3, 3)]), 1.0)
    assert b.pairs == (PersistencePair(0, 0.0, math.inf),)


def test_filled_triangle_gives_no_hole_bar():
    # the 3-cycle closes and is filled at the same scale: a zero-length bar,
    # which the engine does not report
    f = build_vr_filtration(compute_distance_matrix(equilateral()), 2.0)
    assert f.triangle_values.tolist() == [f.edge_values[-1]]
    assert compute_persistence(f).in_dim(1) == ()


def test_one_essential_component_when_cap_covers_diameter():
    rng = np.random.default_rng(23)
    for _ in range(20):
        cloud = random_cloud(rng, rng.integers(1, 9), scale=5.0)
        b = barcode_from_cloud(cloud, 15.0)  # diameter <= 10*sqrt(2) < 15
        essential = [p for p in b.in_dim(0) if math.isinf(p.death)]
        assert len(essential) == 1


def test_beta0_at_zero_counts_points():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        b = barcode_from_cloud(random_cloud(rng, n), 50.0)
        assert betti_numbers(b, 0.0) == (n, 0)


def test_adding_point_never_decreases_beta0():
    rng = np.random.default_rng(37)
    pts = rng.uniform(-5, 5, size=(7, 2))
    for k in range(2, 8):
        smaller = betti_numbers(barcode_from_cloud(make_cloud(pts[: k - 1]), 30.0), 0.0)[0]
        larger = betti_numbers(barcode_from_cloud(make_cloud(pts[:k]), 30.0), 0.0)[0]
        assert larger >= smaller


def test_matches_rank_oracle_on_random_clouds():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        cloud = random_cloud(rng, n, scale=3.0)
        dm = compute_distance_matrix(cloud)
        cap = float(rng.uniform(0.5, 1.2) * dm.d.max())
        f = build_vr_filtration(dm, cap)
        got = [(p.dim, p.birth, p.death) for p in compute_persistence(f).pairs]
        expected = rank_function_barcode(f)
        assert len(got) == len(expected)
        for g, e in zip(sorted(got), sorted(expected)):
            assert g[0] == e[0]
            assert g[1] == pytest.approx(e[1], abs=1e-9)
            assert (math.isinf(g[2]) and math.isinf(e[2])) or g[2] == pytest.approx(e[2], abs=1e-9)


# ---------------------------------------------------------------------------
# Betti queries

def test_betti_queries_on_square(square_barcode):
    assert betti_numbers(square_barcode, 0.5) == (4, 0)
    assert betti_numbers(square_barcode, 1.2) == (1, 1)
    assert betti_numbers(square_barcode, 1.9) == (1, 0)


def test_betti_query_range_checked(square_barcode):
    with pytest.raises(InputError):
        betti_numbers(square_barcode, 2.5)
    with pytest.raises(InputError):
        betti_numbers(square_barcode, -0.1)


def test_barcode_rejects_death_before_birth():
    with pytest.raises(InputError):
        Barcode((PersistencePair(0, 2.0, 1.0),), 5.0)


@pytest.mark.parametrize("pair", [
    PersistencePair(0, math.nan, 1.0),
    PersistencePair(1, 1.0, math.nan),
    PersistencePair(1, math.nan, math.nan),
    PersistencePair(2, 0.0, 1.0),
    PersistencePair(-1, 0.0, 1.0),
])
def test_barcode_rejects_nan_and_bad_dim(pair):
    with pytest.raises(InputError):
        Barcode((pair,), 5.0)


@pytest.mark.parametrize("pair", [
    PersistencePair(1, 6.0, math.inf),  # a birth above the cap
    PersistencePair(0, 0.0, 5.5),       # a finite death above it
    PersistencePair(1, 5.5, 6.0),
])
def test_barcode_rejects_a_bar_above_its_cap(pair):
    # the engine enters no simplex above the cap, and features would clamp
    # such a bar to the cap without a word
    with pytest.raises(InputError) as exc:
        Barcode((PersistencePair(0, 0.0, math.inf), pair), 5.0)
    assert str(exc.value) == (f"birth {pair.birth} or death {pair.death} lies above "
                              "max_filtration 5.0")


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf])
def test_barcode_cap_must_be_positive_and_finite(cap):
    with pytest.raises(InputError) as exc:
        Barcode((PersistencePair(0, 0.0, math.inf),), cap)
    assert str(exc.value) == f"max_filtration must be positive and finite, got {cap}"


def test_barcode_from_arrays_equals_barcode_from_pairs():
    pairs = [(1, 2.0, 4.0), (0, 0.0, math.inf), (0, 0.0, 1.5)]
    from_pairs = Barcode(pairs, 5.0)
    from_arrays = Barcode.from_arrays(np.array([1, 0, 0], dtype=np.int8),
                                      np.array([2.0, 0.0, 0.0]), np.array([4.0, math.inf, 1.5]),
                                      5.0)
    assert from_pairs == from_arrays
    assert from_pairs.pairs == from_arrays.pairs == tuple(pairs)
    assert from_pairs != Barcode(pairs[::-1], 5.0)  # bars are held in the order given
    assert from_pairs != Barcode(pairs, 6.0)
    assert len(from_arrays) == 3
    assert from_arrays.in_dim(0) == (PersistencePair(0, 0.0, math.inf),
                                     PersistencePair(0, 0.0, 1.5))
    for a in (from_arrays.dims, from_arrays.births, from_arrays.deaths):
        assert not a.flags.writeable


def test_barcode_pairs_hold_python_numbers(square_barcode):
    # repr of a numpy float is np.float64(...) under numpy 2, which the
    # bars' text would carry
    from_arrays = Barcode.from_arrays(np.array([0, 1]), np.array([0.0, 1.0]),
                                      np.array([math.inf, 2.0]), 3.0)
    for b in (square_barcode, from_arrays, Barcode([(0.0, 0, 1)], 2.0)):
        for p in b.pairs:
            assert (type(p.dim), type(p.birth), type(p.death)) == (int, float, float)
    assert repr(square_barcode.pairs[-1]) == \
        "PersistencePair(dim=1, birth=1.0, death=1.4142135623730951)"


def test_barcode_names_its_first_bad_bar():
    # the second bar breaks two rules and the third another: the message
    # is that of the second bar's first rule, and the error carries its place
    with pytest.raises(EntryError) as exc:
        Barcode.from_arrays(np.array([0, 2, 1]), np.array([0.0, 3.0, 1.0]),
                            np.array([1.0, 2.0, 0.5]), 5.0)
    assert (str(exc.value), exc.value.index) == ("dimension 2, expected 0 or 1", 1)
