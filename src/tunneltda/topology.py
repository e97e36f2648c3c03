"""Vietoris-Rips filtrations and persistent homology over Z2 for planar block clouds.

The scale parameter (called the connected radius in the barcode outputs) is
measured in the same length units as the input coordinates; no normalization
is applied. Only dimensions 0 and 1 are reported: block clouds are planar, so
components and line-bounded holes carry all the structure of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EntryError, InputError

DEFAULT_MAX_FILTRATION = 30.0
# Triangle candidates a filtration build may enumerate; ~1 GiB at the peak of
# the reduction that follows (see build_vr_filtration).
MAX_TRIANGLE_CANDIDATES = 1 << 24
# Block pairs a cloud's edge listing may measure; see PointCloud.edges_within.
MAX_EDGE_CANDIDATES = 1 << 24
# Edges an H1 column must have summed for its sum to be kept for the next
# snapshot's warm start; see compute_persistence.
WARM_START_MIN_EDGES = 32


@dataclass(frozen=True)
class PointCloud:
    """Labeled 2-D block centroids, one snapshot of the surrounding rock.

    ids are unique block labels; xy is an (n, 2) float array of finite meters.
    An EntryError names the first repeated id, else the first non-finite block.
    """

    ids: tuple[str, ...]
    xy: np.ndarray

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float)
        xy.setflags(write=False)
        object.__setattr__(self, "xy", xy)
        if len(self.ids) == 0:
            raise InputError("point cloud must contain at least one point")
        if xy.shape != (len(self.ids), 2):
            raise InputError(f"coordinate array has shape {xy.shape}, expected ({len(self.ids)}, 2)")
        if len(set(self.ids)) != len(self.ids):
            first = {}
            k = next(k for k, bid in enumerate(self.ids) if first.setdefault(bid, k) != k)
            raise EntryError(f"duplicate block_id {self.ids[k]!r}", k)
        finite = np.isfinite(xy).all(axis=1)
        if not finite.all():
            raise EntryError("coordinates must be finite", int(finite.argmin()))

    def __len__(self) -> int:
        return len(self.ids)

    def edges_within(self, cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The block pairs i < j at distance <= cap, in (i, j) order, and
        their distances, as (i, j, values).

        The candidates come from a sweep along the axis, x or y, whose
        coordinates spread wider (np.ptp; x on a tie): each block's are the
        blocks after it in that order whose coordinate is at most its own
        plus cap * (1 + 1e-12), a margin that only adds candidates against
        rounding. A candidate's distance is sqrt((x_a - x_b)^2 + (y_a -
        y_b)^2) on the sweep-ordered coordinates, in the operation order of
        compute_distance_matrix; (a - b)^2 == (b - a)^2, so values equal its
        entries bit for bit whichever axis is swept and whichever block comes
        first. Pairs outside every window are never measured, and only the
        pairs within the cap are mapped to (i, j) and sorted. The candidates are
        counted first, and more than MAX_EDGE_CANDIDATES (2^24, at up to 64
        bytes each: 1 GiB) raise InputError, naming the swept axis, before
        any is built. A candidate whose distance overflows raises InputError
        too.
        """
        n = len(self.ids)
        x, y = self.xy[:, 0], self.xy[:, 1]
        with np.errstate(over="ignore"):
            axis = int(np.ptp(y) > np.ptp(x))
            by_s = np.argsort(self.xy[:, axis], kind="stable")
            s = self.xy[by_s, axis]
            # the blocks at sweep positions p + 1 .. end[p] - 1 are p's candidates
            end = np.searchsorted(s, s + cap * (1 + 1e-12), side="right")
        after = np.arange(1, n + 1)
        counts = end - after
        candidates = int(counts.sum())
        if candidates > MAX_EDGE_CANDIDATES:
            raise InputError(
                f"{n} blocks at max_filtration {cap:g} give {candidates} block pairs within "
                f"the cap in {'xy'[axis]}, above the limit of {MAX_EDGE_CANDIDATES}; "
                "lower the cap")
        p = np.repeat(np.arange(n), counts)
        q = np.repeat(after - (np.cumsum(counts) - counts), counts)
        q += np.arange(candidates)
        xs, ys = x[by_s], y[by_s]
        with np.errstate(over="ignore"):
            d = xs[p] - xs[q]
            d *= d
            dy = ys[p] - ys[q]
            dy *= dy
            d += dy
            del dy
            np.sqrt(d, out=d)
        if not np.all(np.isfinite(d)):
            raise InputError("distances must be finite")
        keep = np.flatnonzero(d <= cap)
        a, b, d = by_s[p[keep]], by_s[q[keep]], d[keep]
        del p, q
        i, j = np.minimum(a, b), np.maximum(a, b)
        order = _stable_order(i * n + j, n * n)
        return i[order], j[order], d[order]

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, float, float]]) -> "PointCloud":
        rows = list(rows)
        ids = tuple(str(r[0]) for r in rows)
        xy = np.array([[r[1], r[2]] for r in rows], dtype=float).reshape(len(rows), 2)
        return cls(ids, xy)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise Euclidean distances with zero diagonal.

    compute_distance_matrix builds it square, symmetric, non-negative and
    with a zero diagonal; only the finite check can fail, on coordinates
    whose squares overflow.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        if not np.all(np.isfinite(d)):
            raise InputError("distances must be finite")

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def __len__(self) -> int:
        return self.n

    def edges_within(self, cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs i < j at distance <= cap, in (i, j) order, and their
        distances, as (i, j, values)."""
        i, j = np.divmod(np.flatnonzero(self.d <= cap), self.n)
        upper = i < j
        i, j = i[upper], j[upper]
        return i, j, self.d[i, j]


@dataclass(frozen=True)
class FiltSimplex:
    """A vertex, edge or triangle with the scale at which it enters the complex.

    Under the Vietoris-Rips rule the value equals the largest pairwise
    distance among the vertices, so every face enters no later than the
    simplex itself.
    """

    vertices: tuple[int, ...]
    value: float

    def __post_init__(self):
        if not 1 <= len(self.vertices) <= 3:
            raise InputError(f"simplex must have 1-3 vertices, got {len(self.vertices)}")
        if tuple(sorted(self.vertices)) != self.vertices:
            raise InputError(f"simplex vertices must be sorted: {self.vertices}")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError(f"simplex vertices must be distinct: {self.vertices}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def sort_key(self) -> tuple[float, int, tuple[int, ...]]:
        # Deterministic filtration order: scale, then dimension, then vertex labels.
        return (self.value, self.dim, self.vertices)


@dataclass(frozen=True, eq=False)
class Filtration:
    """A capped complex up to triangles, held as sorted arrays.

    Vertices 0..n_vertices-1 enter at scale 0. ``edges`` (m, 2) holds sorted
    vertex labels with their values in ``edge_values``. ``facets`` (t, 3)
    holds each triangle's edges (ab, ac, bc) as indices into ``edges``, in
    the smallest unsigned type that holds m, with the triangle values in
    ``triangle_values``. Each array is in filtration order, by value and
    then by vertex labels, and is made read-only. In the package only
    ``build_vr_filtration`` makes one.

    ``triangles`` (t, 3) are the vertex labels (a, b, c), derived from
    ``edges`` and ``facets`` on first access; ``simplices`` is the same
    filtration as FiltSimplex objects in (value, dim, vertices) order, built
    on first access. Both stay for the brute-force oracle, the reference
    reduction and the benchmark tracer; the engine reads neither.

    ``cofaces``, when given, is the triangles on each edge as (rows, start,
    group): those of edge e are rows[start[g]:start[g + 1]] for g = group[e],
    in no particular order. build_vr_filtration gives it for an edge set its
    reuse has seen before; otherwise compute_persistence groups the facets.
    """

    n_vertices: int
    edges: np.ndarray
    edge_values: np.ndarray
    facets: np.ndarray
    triangle_values: np.ndarray
    max_filtration: float
    cofaces: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for a in (self.edges, self.edge_values, self.facets, self.triangle_values,
                  *(self.cofaces or ())):
            a.setflags(write=False)

    @cached_property
    def triangles(self) -> np.ndarray:
        ab, bc = self.facets[:, 0], self.facets[:, 2]
        tris = np.column_stack([self.edges[ab, 0], self.edges[ab, 1], self.edges[bc, 1]])
        tris.setflags(write=False)
        return tris

    @cached_property
    def simplices(self) -> tuple[FiltSimplex, ...]:
        out = [FiltSimplex((i,), 0.0) for i in range(self.n_vertices)]
        for verts, values in ((self.edges, self.edge_values),
                              (self.triangles, self.triangle_values)):
            out += [FiltSimplex(tuple(v), x) for v, x in zip(verts.tolist(), values.tolist())]
        out.sort(key=FiltSimplex.sort_key)
        return tuple(out)

    def __len__(self) -> int:
        return self.n_vertices + len(self.edge_values) + len(self.triangle_values)


class PersistencePair(NamedTuple):
    dim: int
    birth: float
    death: float  # math.inf when the class survives the whole filtration


class Barcode:
    """Persistence intervals for dimensions 0 and 1, as the engine makes them:
    0 <= birth <= death, and no birth or finite death above the positive,
    finite cap. An infinite death was still open at the cap (censored);
    feature extraction clamps such deaths to the cap.

    The bars are held as three read-only arrays of one entry per bar, in the
    order given: dims (int8), births and deaths (float64), which
    extract_features, betti_numbers and write_barcode read.
    Barcode(pairs, max_filtration) takes (dim, birth, death) triples;
    from_arrays takes the arrays and makes them read-only. Either way every
    bar is checked at once, and the first that breaks a rule is refused by
    name with an EntryError that carries its position. ``pairs`` is the same
    bars as PersistencePair tuples of Python int and float, built on first
    use. Two barcodes are equal when their caps and bars, in order, are.
    """

    def __init__(self, pairs: Iterable[tuple[int, float, float]], max_filtration: float):
        dims, births, deaths = list(zip(*pairs)) or ((), (), ())
        self._set(np.array(dims), np.array(births, dtype=float), np.array(deaths, dtype=float),
                  max_filtration)

    @classmethod
    def from_arrays(cls, dims: np.ndarray, births: np.ndarray, deaths: np.ndarray,
                    max_filtration: float) -> "Barcode":
        b = cls.__new__(cls)
        b._set(np.asarray(dims), np.asarray(births, dtype=float),
               np.asarray(deaths, dtype=float), max_filtration)
        return b

    def _set(self, dims, births, deaths, cap):
        check_max_filtration(cap)
        bad_dim = (dims != 0) & (dims != 1)
        bad_order = ~((0 <= births) & (births <= deaths))  # also true when either is NaN
        above = (births > cap) | ((cap < deaths) & (deaths < math.inf))
        bad = bad_dim | bad_order | above
        if bad.any():
            k = int(bad.argmax())
            dim, birth, death = dims[k], births[k], deaths[k]
            if bad_dim[k]:
                raise EntryError(f"dimension {dim}, expected 0 or 1", k)
            if bad_order[k]:
                raise EntryError(f"death {death} and birth {birth} make an invalid "
                                 "persistence pair; need 0 <= birth <= death", k)
            raise EntryError(f"birth {birth} or death {death} lies above max_filtration {cap}", k)
        self.dims = dims.astype(np.int8, copy=False)
        self.births, self.deaths = births, deaths
        for a in (self.dims, births, deaths):
            a.setflags(write=False)
        self.max_filtration = cap

    @cached_property
    def pairs(self) -> tuple[PersistencePair, ...]:
        return tuple(map(PersistencePair._make, zip(
            self.dims.tolist(), self.births.tolist(), self.deaths.tolist())))

    def __len__(self) -> int:
        return len(self.dims)

    def __eq__(self, other):
        if not isinstance(other, Barcode):
            return NotImplemented
        return (self.max_filtration == other.max_filtration
                and np.array_equal(self.dims, other.dims)
                and np.array_equal(self.births, other.births)
                and np.array_equal(self.deaths, other.deaths))

    def __repr__(self) -> str:
        return f"Barcode({self.pairs!r}, {self.max_filtration!r})"

    def in_dim(self, dim: int) -> tuple[PersistencePair, ...]:
        return tuple(p for p in self.pairs if p.dim == dim)


def compute_distance_matrix(pc: PointCloud) -> DistanceMatrix:
    """Pairwise Euclidean distances between block centroids.

    (a - b)^2 == (b - a)^2 exactly, so the matrix is exactly symmetric with
    a zero diagonal, with no symmetrising pass. It is computed in place in
    two n x n buffers. Coordinates so large that a square overflows give
    inf, which DistanceMatrix rejects, so numpy's overflow warning is
    silenced.
    """
    x, y = pc.xy[:, 0], pc.xy[:, 1]
    with np.errstate(over="ignore"):
        d = x[:, None] - x
        d *= d
        dy = y[:, None] - y
        dy *= dy
        d += dy
        np.sqrt(d, out=d)
    return DistanceMatrix(d)


def check_max_filtration(max_filtration: float) -> None:
    """Refuse a cap that is not positive and finite."""
    if not 0 < max_filtration < math.inf:  # also false for nan
        raise InputError(f"max_filtration must be positive and finite, got {max_filtration}")


def build_vr_filtration(
    space: DistanceMatrix | PointCloud,
    max_filtration: float = DEFAULT_MAX_FILTRATION,
    reuse: dict | None = None,
) -> Filtration:
    """Vietoris-Rips filtration up to triangles, capped at max_filtration.

    Vertices enter at scale 0; an edge enters at the distance between its
    endpoints; a triangle enters at its longest edge. Simplices whose value
    exceeds the cap are omitted. The result holds only arrays, no
    per-simplex objects.

    The edges come from space's own listing, edges_within(max_filtration):
    a DistanceMatrix reads them off its n x n entries, a PointCloud measures
    only the pairs its sweep finds near enough, so it never fills an
    n x n distance matrix. Both give the same edges and values, bit for bit.

    Triangle (i, j, k), i < j < k, is found at its lowest vertex: each pair
    of edges (i, j) and (i, k), j < k, from i to the blocks above it is a
    candidate, kept when (j, k) is an edge too (the node iterator over the
    label-ordered graph; Schank & Wagner, WEA 2005). The enumeration yields
    each triangle's facets (ab, ac, bc) as positions in the (i, j) order of
    the edges: ab and ac from the positions of (i, j) and (i, k), bc from an
    n x n table of edge positions, the one term of the build that grows as
    n^2 whatever the cap. These triples, in lexicographic (i, j, k) order,
    are the edge set's skeleton: which triangles there are depends only on
    the edges, not on their lengths. Ordering the skeleton by the distances
    gives the Filtration's facets. The only float sort is an unstable one
    that gives each edge the dense level of its value; the edges are in the
    stable order of their levels, and the triangles in that of their longest
    edge's level, both small integer keys that _stable_order sorts packed
    with their positions.

    The builds of a sequence may share one dict, reuse, that holds one entry
    for the last edge set, keyed by n and the flat ids i * n + j of its
    edges; without it a build keeps nothing. A new edge set drops the entry
    before it enumerates and keeps only its key. When the next build repeats
    it (every snapshot of a ring that the cap covers), the entry takes the
    skeleton and its coface grouping, built once; later repeats skip the
    enumeration. Each repeat hands compute_persistence the grouping in its
    own triangle order (Filtration.cofaces), so the reduction sorts no facets.
    The entry is out of reuse while a build runs, so one that fails leaves none.
    The reductions of the repeats keep their long H1 sums in the same dict,
    as "h1_sums" (see compute_persistence); they are positions in the edge
    set, so a new edge set drops them with the entry.

    The cap must be positive and finite. The candidates, the sum over the
    blocks of C(d, 2) for a block with d edges to blocks above it, are
    counted before any is built, and more than MAX_TRIANGLE_CANDIDATES
    (2^24) raise InputError; a cap covering the cloud makes every candidate
    a triangle, C(n, 3) in all, so it takes at most n = 466. Memory is
    O(n^2 + edges + candidates), never O(n^3): the n x n table, a few tens
    of bytes per triangle in the build and in the reduction that follows
    (about 1 GiB at the limit), and the entry in reuse, the skeleton and
    grouping in the smallest types.
    """
    check_max_filtration(max_filtration)
    n = len(space)
    i, j, edge_values = space.edges_within(max_filtration)
    flat = i * n + j
    m = len(flat)
    id_type = np.min_scalar_type(m)
    # (n, flat ids, None or (skeleton, grouping)); out of reuse while a build runs
    entry = None if reuse is None else reuse.pop("edge_set", None)
    if entry is None or entry[0] != n or not np.array_equal(entry[1], flat):
        del entry  # a stale one is freed before the enumeration
        skeleton = _enumerate_triangles(n, max_filtration, i, j, flat, id_type)
        grouping = None
        entry = None
        if reuse is not None:
            reuse.pop("h1_sums", None)  # positions in the stale edge set
            entry = (n, flat.astype(np.min_scalar_type(n * n)), None)
    elif entry[2] is None:
        skeleton = _enumerate_triangles(n, max_filtration, i, j, flat, id_type)
        rows, start = _group_cofaces(skeleton, m)
        grouping = (rows.astype(np.min_scalar_type(len(skeleton))),
                    start.astype(np.min_scalar_type(len(rows))))
        del rows, start
        for a in (skeleton, *grouping):
            a.setflags(write=False)
        entry = (n, entry[1], (skeleton, grouping))
    else:
        skeleton, grouping = entry[2]
    if reuse is not None:
        reuse["edge_set"] = entry
    # level[p]: 1 + the number of distinct values below that of the edge at
    # (i, j) position p. A stable order of the levels is the (value,
    # vertices) order, and the levels in that order are rank[e]; rank rises
    # with e, so a triangle's rank is that of its latest facet. pos[p] is
    # the filtration index of the edge at position p.
    by_value = np.argsort(edge_values)
    new = np.ones(m, dtype=bool)
    np.not_equal(edge_values[by_value[1:]], edge_values[by_value[:-1]], out=new[1:])
    rank = np.cumsum(new, dtype=id_type)
    level = np.empty(m, dtype=id_type)
    level[by_value] = rank
    n_levels = int(rank[-1]) if m else 0
    order = _stable_order(level, n_levels + 1)
    values = edge_values[order]
    pos = np.empty(m, dtype=id_type)
    pos[order] = np.arange(m, dtype=id_type)
    # Each temporary is dropped once used, to keep the peak at scale.
    tris = _gather(pos, skeleton)
    latest = np.maximum(np.maximum(tris[:, 0], tris[:, 1]), tris[:, 2])
    tri_order = _stable_order(_gather(rank, latest), n_levels + 1)
    n_tris = len(tri_order)
    facets = np.take(tris, tri_order, axis=0)
    del tris
    tri_values = _gather(values, latest[tri_order])
    del latest
    cofaces = None
    if grouping is not None:
        # candidate c is triangle relabel[c]; edge e's group is its position
        rows, start = grouping
        relabel = np.empty(n_tris, dtype=rows.dtype)
        relabel[tri_order] = np.arange(n_tris, dtype=rows.dtype)
        del tri_order
        cofaces = (_gather(relabel, rows), start, order)
    edges = np.take(np.column_stack([i, j]), order, axis=0)
    return Filtration(n, edges, values, facets, tri_values, float(max_filtration), cofaces)


_GATHER_CHUNK = 1 << 13  # indices _gather casts to intp at a time: 64 KiB, under
# glibc's 128 KiB mmap threshold, so the copy is not mapped and unmapped anew


def _gather(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[index] for an index array in a small unsigned type. Indexing casts
    such an index slowly, and np.take first copies it whole to intp; taking
    it a chunk at a time is as fast as np.take and holds one chunk's copy.
    The indices are in range, so mode="clip" changes nothing but lets
    np.take write straight into out."""
    out = np.empty(index.shape, dtype=a.dtype)
    flat_index, flat_out = index.reshape(-1), out.reshape(-1)
    for lo in range(0, len(flat_index), _GATHER_CHUNK):
        hi = lo + _GATHER_CHUNK
        np.take(a, flat_index[lo:hi], out=flat_out[lo:hi], mode="clip")
    return out


def _enumerate_triangles(n: int, max_filtration: float, i: np.ndarray, j: np.ndarray,
                         flat: np.ndarray, id_type: np.dtype) -> np.ndarray:
    """The triangles of edge set (i, j) as (t, 3) edge positions (ab, ac, bc),
    in candidate order; InputError above MAX_TRIANGLE_CANDIDATES."""
    m = len(i)
    # The upper neighbours of v are j[start[v]:start[v + 1]], each at the
    # (i, j) position of edge (v, k); the edge at position p pairs with the
    # later ones of its run.
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(i, minlength=n), out=start[1:])
    after = np.arange(1, m + 1)
    counts = start[i + 1] - after
    candidates = int(counts.sum())
    if candidates > MAX_TRIANGLE_CANDIDATES:
        raise InputError(
            f"{n} blocks at max_filtration {max_filtration:g} give {candidates} triangle "
            f"candidates, above the limit of {MAX_TRIANGLE_CANDIDATES}; lower the cap")
    # index[a, b]: the position of edge (a, b) plus one, 0 where (a, b) is
    # not an edge.
    index = np.zeros((n, n), dtype=id_type)
    index.ravel()[flat] = np.arange(1, m + 1, dtype=id_type)
    # Candidates come in lexicographic (i, j, k) order, those of edge (i, j)
    # together; candidate c takes edge (i, k) from position ac[c], which
    # fits int32 below MAX_TRIANGLE_CANDIDATES. It is a triangle when (j, k)
    # is an edge too.
    ac = np.repeat((after - (np.cumsum(counts) - counts)).astype(np.int32), counts)
    ac += np.arange(candidates, dtype=np.int32)
    cell = np.repeat(n * j, counts)
    cell += _gather(j, ac)
    bc = index.ravel()[cell]
    del cell, index
    hit = np.flatnonzero(bc != 0)
    skeleton = np.empty((len(hit), 3), dtype=id_type)
    skeleton[:, 0] = np.repeat(np.arange(m, dtype=id_type), counts)[hit]
    skeleton[:, 1] = ac[hit]
    skeleton[:, 2] = bc[hit]
    skeleton[:, 2] -= 1
    return skeleton


def boundary(s: FiltSimplex) -> frozenset[tuple[int, ...]]:
    """Boundary of a simplex over Z2, as a chain: the set of simplices
    carrying coefficient 1, so chains add by symmetric difference.

    Vertices have empty boundary. Signs vanish modulo 2, so the boundary is
    just the set of faces obtained by dropping one vertex.
    """
    if s.dim == 0:
        return frozenset()
    return frozenset(s.vertices[:i] + s.vertices[i + 1:] for i in range(len(s.vertices)))


def boundary_of_chain(c: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Z2-linear extension of the boundary operator to chains."""
    total = frozenset()
    for verts in c:
        total ^= boundary(FiltSimplex(verts, 0.0))
    return total


def compute_persistence(f: Filtration, reuse: dict | None = None) -> Barcode:
    """Barcode by union-find for H0 and cohomology reduction for H1, over Z2.

    H0: Kruskal union-find over the sorted edges, with path halving. An edge
    that joins two components kills one of them; these edges form the
    minimum spanning forest and pair with vertices, so their H1 columns are
    cleared (Chen & Kerber, Persistent homology computation with a twist,
    2011).

    H1: the coboundaries of the remaining edges are reduced in reverse
    filtration order, each column's pivot being its earliest triangle (de
    Silva, Morozov & Vejdemo-Johansson, Dualities in persistent (co)homology,
    2011; Bauer, Ripser, JACT 2021). f.facets are read as they are, with no
    lookup by vertex pair. Each edge's cofaces come from f.cofaces when the
    build gives them (a repeated edge set), in no order, so the earliest of
    each group is its minimum, from np.minimum.reduceat; otherwise
    _group_cofaces lists them ascending. An edge that is the latest
    facet of its earliest coface is an apparent pair, found with one
    triangle read per edge: its column is already reduced and is read from
    the coboundary, never stored. A column whose earliest coface has no
    owner is paired at once. The others are reduced on one reused bool working
    column of n_tris + 1 entries, whose last entry, a sentinel, is always
    True. The pivot only grows, so the next one is the first True entry at
    or after it: argmax on bools stops there, and on a column reduced to
    zero it stops at the sentinel, n_tris, which no column owns
    (pivot_owner holds -1 there and at every triangle not yet paired). A
    column that received additions and found a pivot keeps the list of
    coboundary slices it summed, and their edges, rather than its rows:
    Ripser's reduction matrix V instead of R. Adding an owner flips each slice of its list,
    ``col[rows] = ~col[rows]``; a slice holds distinct rows, so the flips
    sum the owner's reduced column over Z2. Every True row lies at or after
    the pivot, so one slice assignment clears the working column. A column
    reduced to zero, or an edge with no coface, is a class still open at
    the cap and gets infinite death.

    Warm start, on the repeat path only: given f.cofaces and the reuse its
    build shared, the reduction replaces reuse["h1_sums"] with the sums of
    the columns that summed at least WARM_START_MIN_EDGES coboundaries, its
    own included: for each, by its (i, j) position, the positions of the
    other edges it summed an odd number of times. In the next repeat edge e's column starts from
    the Z2 sum of its own coboundary and those of its stored edges that
    still come after e: one gather of their cofaces from the grouping, then
    _odd, whose first row is the start's pivot. The owner loop then runs as
    above. Adding a later edge's coboundary is a column operation the
    reduction itself may make, and a reduced column equal to e's coboundary
    plus later ones has one possible pivot (the pairing uniqueness lemma;
    Edelsbrunner & Harer, Computational Topology, 2010, VII.1), so every
    pivot and bar is the cold reduction's, bit for bit, whatever positions
    the sums hold. They only decide how many additions remain: consecutive
    blasts move the blocks a little, so the last snapshot's sum is nearly
    the next one's, as vineyards reuse a reduction along a family of
    filtrations (Cohen-Steiner, Edelsbrunner & Morozov, SoCG 2006). A warm
    start costs as much as a few tens of short additions, hence the gate.

    The pairing equals that of the standard boundary reduction in (value,
    dim, vertices) order. Only bars with death > birth are reported: a
    zero-length bar, in dim 0 from coincident blocks and in dim 1 from every
    apparent pair and every triangle that fills its cycle as it closes, is
    not a hole or a component at any scale. The bars are filled as arrays,
    no per-bar object, and ordered by (dim, birth, death) with np.lexsort.
    """
    n, edges = f.n_vertices, f.edges
    edge_values, tri_values = f.edge_values, f.triangle_values
    m = len(edge_values)

    parent = list(range(n))
    forest = []
    components = n
    for e, (a, b) in enumerate(zip(edges[:, 0].tolist(), edges[:, 1].tolist())):
        # a and b walk up to their roots, halving the paths they pass
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            forest.append(e)
            components -= 1
            if components == 1:
                break
    h0_deaths = edge_values[forest]
    h0_deaths = np.concatenate([h0_deaths[h0_deaths > 0.0], np.full(components, math.inf)])

    # Each edge's coboundary as intp rows, which numpy indexes far faster
    # than smaller types, and its earliest coface, n_tris for none.
    facets = f.facets
    n_tris = len(tri_values)
    keep = reuse is not None and f.cofaces is not None  # the repeat path's sums
    stored = reuse.pop("h1_sums", {}) if keep else {}
    if f.cofaces is None:
        cofaces, start = _group_cofaces(facets, m)

        def coboundary(e):
            return cofaces[start[e]:start[e + 1]]
    else:
        cofaces, start, group = f.cofaces

        def coboundary(e):
            g = group[e]
            return cofaces[start[g]:start[g + 1]].astype(np.intp)
    has_coface = start[1:] > start[:-1]
    earliest = np.full(m, n_tris, dtype=np.intp)
    if f.cofaces is None:
        earliest[has_coface] = cofaces[start[:-1][has_coface]]  # groups ascend
    elif n_tris:
        # groups do not ascend, so a group's earliest coface is its minimum
        earliest[has_coface] = np.minimum.reduceat(cofaces, start[:-1][has_coface])
        earliest = earliest[group]
    # Edge e and its earliest coface are an apparent pair when e is that
    # triangle's latest facet; the check reads one triangle per edge.
    with_coface = np.flatnonzero(earliest < n_tris)
    first = np.take(facets, earliest[with_coface], axis=0)
    apparent_edges = with_coface[
        np.maximum(np.maximum(first[:, 0], first[:, 1]), first[:, 2]) == with_coface]
    apparent_tris = earliest[apparent_edges]

    # An apparent pair's triangle enters with its latest facet, the edge
    # itself, so its bar has zero length and is not reported.
    # the smallest signed type that holds -1 (no owner) and every edge
    pivot_owner = np.full(n_tris + 1, -1, dtype=np.min_scalar_type(-m - 1))
    pivot_owner[apparent_tris] = apparent_edges
    records: dict[int, list[np.ndarray]] = {}  # the coboundaries each column summed
    sums: dict[int, list[int]] = {}  # and their edges, kept on the repeat path
    col = np.zeros(n_tris + 1, dtype=bool)
    col[n_tris] = True
    todo = np.ones(m, dtype=bool)
    todo[forest] = False
    todo[apparent_edges] = False
    if stored:
        # A warm start: edge e's column starts as the Z2 sum of its own
        # coboundary and those of the stored edges that come after it.
        index = np.empty(m, dtype=np.intp)  # index[p]: the edge at (i, j) position p
        index[group] = np.arange(m)
        for p, others in stored.items():
            e = int(index[p])
            if todo[e]:
                groups = np.append(p, others[index[others] > e])
                lo = start[groups].astype(np.intp)
                sizes = start[groups + 1] - lo
                at = np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
                at += np.arange(len(at))
                rows = _odd(cofaces[at]).astype(np.intp)
                records[e], sums[e] = [rows], index[groups].tolist()
                earliest[e] = rows[0] if len(rows) else n_tris
    todo = np.flatnonzero(todo)[::-1]
    pivots = []  # each column's pivot once reduced, n_tris for none
    for e, pivot in zip(todo.tolist(), earliest[todo].tolist()):
        owner = pivot_owner.item(pivot)
        if owner >= 0:
            record = records.pop(e, None) or [coboundary(e)]
            summed = sums.pop(e, None) or [e]
            col[record[0]] = True
            while owner >= 0:
                # an owner that received no addition is its own coboundary
                added = records.get(owner) or [coboundary(owner)]
                for rows in added:
                    col[rows] = ~col[rows]
                record += added
                if keep:
                    summed += sums.get(owner) or (owner,)
                pivot += int(col[pivot:].argmax())
                owner = pivot_owner.item(pivot)
            if pivot < n_tris:
                col[pivot:n_tris] = False
                records[e], sums[e] = record, summed
        if pivot < n_tris:
            pivot_owner[pivot] = e
        pivots.append(pivot)
    if keep:
        # each long sum, by (i, j) position, as the positions of its other
        # edges that it holds an odd number of times
        reuse["h1_sums"] = {
            int(group[e]): _odd(group[summed[1:]]).astype(np.intp)
            for e, summed in sums.items() if len(summed) >= WARM_START_MIN_EDGES}
    h1_births = edge_values[todo]
    h1_deaths = np.append(tri_values, math.inf)[pivots]
    h1 = h1_deaths > h1_births
    dims = np.repeat(np.array([0, 1], dtype=np.int8), [len(h0_deaths), np.count_nonzero(h1)])
    births = np.concatenate([np.zeros(len(h0_deaths)), h1_births[h1]])
    deaths = np.concatenate([h0_deaths, h1_deaths[h1]])
    order = np.lexsort((deaths, births, dims))
    return Barcode.from_arrays(dims[order], births[order], deaths[order], f.max_filtration)


def _odd(a: np.ndarray) -> np.ndarray:
    """The values a holds an odd number of times, ascending: a's Z2 sum.
    Sorted, each value is a run; one of odd length survives."""
    a = np.sort(a)
    new = np.ones(len(a) + 1, dtype=bool)  # new[k]: a run starts at k (or a ends)
    np.not_equal(a[1:], a[:-1], out=new[1:-1])
    starts = np.flatnonzero(new)
    return a[starts[:-1][(np.diff(starts) & 1).astype(bool)]]


def _group_cofaces(facets: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of (t, 3) facet ids that hold each of m ids: id e's are
    rows[start[e]:start[e + 1]], ascending. _stable_order groups them, so
    while an id and a position fit 32 bits together it sorts one packed
    uint32 word per id."""
    start = np.zeros(m + 1, dtype=np.intp)
    # counted first, so bincount's intp copy of the ids is freed before the rows exist
    np.cumsum(np.bincount(facets.ravel(), minlength=m), out=start[1:])
    rows = _stable_order(facets.ravel(), m)
    rows //= 3
    return rows, start


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable"), intp, for integer keys in [0, bound).

    While bound - 1 and len(keys) - 1 fit 32 bits together, each key is
    packed above its position into one uint32 word and the words are sorted,
    so equal keys fall in position order. Where numpy dispatches a SIMD sort
    kernel that is 2-3x faster than the stable argsort; without one it may
    be slower, with the same order. Otherwise it is the stable argsort."""
    shift = (len(keys) - 1).bit_length()
    if (bound - 1).bit_length() + shift > 32:
        return np.argsort(keys, kind="stable")
    words = keys.astype(np.uint32)
    words <<= shift
    words |= np.arange(len(keys), dtype=np.uint32)
    words.sort()
    words &= (1 << shift) - 1
    return words.astype(np.intp)


def betti_numbers(b: Barcode, eps: float) -> tuple[int, int]:
    """Betti numbers (components, holes) at one scale.

    A pair counts at eps when birth <= eps < death: intervals are half-open
    on the right.
    """
    if not 0 <= eps <= b.max_filtration:
        raise InputError(f"scale {eps} outside [0, {b.max_filtration}]")
    alive = (b.births <= eps) & (eps < b.deaths)
    return tuple(int(np.count_nonzero(alive & (b.dims == dim))) for dim in (0, 1))


def barcode_from_cloud(pc: PointCloud, max_filtration: float = DEFAULT_MAX_FILTRATION,
                       reuse: dict | None = None) -> Barcode:
    """Convenience: cloud -> VR filtration -> barcode. Both stages share
    reuse: the build keeps a repeated edge set's triangles there, the
    reduction its long H1 sums. Neither can change a bar (see
    build_vr_filtration and compute_persistence)."""
    return compute_persistence(build_vr_filtration(pc, max_filtration, reuse), reuse)
