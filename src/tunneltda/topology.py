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

from .errors import InputError

DEFAULT_MAX_FILTRATION = 30.0
# Triangle candidates a filtration build may enumerate; ~1 GiB at the peak of
# the reduction that follows (see build_vr_filtration).
MAX_TRIANGLE_CANDIDATES = 1 << 24


@dataclass(frozen=True)
class PointCloud:
    """Labeled 2-D block centroids, one snapshot of the surrounding rock.

    ids are unique block labels; xy is an (n, 2) float array in meters.
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
            dupes = sorted({b for b in self.ids if self.ids.count(b) > 1})
            raise InputError(f"duplicate block ids: {dupes}")
        if not np.all(np.isfinite(xy)):
            raise InputError("coordinates must be finite")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, float, float]]) -> "PointCloud":
        rows = list(rows)
        ids = tuple(str(r[0]) for r in rows)
        xy = np.array([[r[1], r[2]] for r in rows], dtype=float).reshape(len(rows), 2)
        return cls(ids, xy)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise Euclidean distances with zero diagonal."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InputError(f"distance matrix must be square, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise InputError("distances must be finite")
        if np.any(np.diag(d) != 0.0):
            raise InputError("distance matrix diagonal must be zero")
        if np.any(d < 0.0) or not np.array_equal(d, d.T):
            raise InputError("distance matrix must be symmetric and non-negative")

    @property
    def n(self) -> int:
        return self.d.shape[0]


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


@dataclass(frozen=True)
class Chain:
    """A Z2 chain: the set of simplices carrying coefficient 1.

    Addition is symmetric difference, so c + c = 0 for every chain.
    """

    simplices: frozenset[tuple[int, ...]] = frozenset()

    def __add__(self, other: "Chain") -> "Chain":
        return Chain(self.simplices ^ other.simplices)

    def __bool__(self) -> bool:
        return bool(self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)


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
    """

    n_vertices: int
    edges: np.ndarray
    edge_values: np.ndarray
    facets: np.ndarray
    triangle_values: np.ndarray
    max_filtration: float

    def __post_init__(self):
        for a in (self.edges, self.edge_values, self.facets, self.triangle_values):
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


@dataclass(frozen=True)
class Barcode:
    """Persistence intervals for dimensions 0 and 1.

    A dim-1 pair with infinite death was still open at the filtration cap
    (censored); feature extraction clamps such deaths to the cap.
    """

    pairs: tuple[PersistencePair, ...]
    max_filtration: float

    def __post_init__(self):
        for p in self.pairs:
            if p.dim not in (0, 1):
                raise InputError(f"persistence pair {p} has dimension {p.dim}, expected 0 or 1")
            if not 0 <= p.birth <= p.death:  # also false when either is NaN
                raise InputError(f"invalid persistence pair {p}")

    def __len__(self) -> int:
        return len(self.pairs)

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


def build_vr_filtration(
    dm: DistanceMatrix,
    max_filtration: float = DEFAULT_MAX_FILTRATION,
) -> Filtration:
    """Vietoris-Rips filtration up to triangles, capped at max_filtration.

    Vertices enter at scale 0; an edge enters at the distance between its
    endpoints; a triangle enters at its longest edge. Simplices whose value
    exceeds the cap are omitted. The result holds only arrays, no
    per-simplex objects.

    Triangle (i, j, k) is found from edge (i, j) and each upper neighbour
    k > j of j, as a candidate that is kept when (i, k) is an edge too. The
    enumeration yields each triangle's facets (ab, ac, bc) as edge indices
    in filtration order, which is what the Filtration stores: ab and bc from
    the positions of (i, j) and (j, k), ac from an n x n table of edge
    indices. Triangles are ordered by the dense rank of their longest
    edge's value, held in the smallest unsigned type, so the only float
    sort is that of the edges and the triangle sort is a radix sort while
    ranks fit 16 bits.

    The cap must be positive and finite. The candidates are counted before
    any is built, and more than MAX_TRIANGLE_CANDIDATES (2^24, about 16.8M)
    raise InputError. With a cap covering the cloud every candidate is a
    triangle. Measured with tracemalloc at covering caps (n = 150 and 250),
    the build peaks at about 33 bytes per triangle and the reduction that
    follows at about 63, the filtration's own arrays included, so the limit
    keeps both under about 1 GiB; 2 GiB would be passed near 34M.
    """
    if not 0 < max_filtration < math.inf:
        raise InputError(f"max_filtration must be positive and finite, got {max_filtration}")
    d, n = dm.d, dm.n
    # np.nonzero lists the edges in (i, j) order. The upper neighbours of v
    # are then j[start[v]:start[v + 1]], each at the (i, j) position of edge
    # (v, k).
    i, j = np.nonzero(np.triu(d <= max_filtration, 1))
    m = len(i)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(i, minlength=n), out=start[1:])
    counts = start[j + 1] - start[j]
    candidates = int(counts.sum())
    if candidates > MAX_TRIANGLE_CANDIDATES:
        raise InputError(
            f"{n} blocks at max_filtration {max_filtration:g} give {candidates} triangle "
            f"candidates, above the limit of {MAX_TRIANGLE_CANDIDATES}; lower the cap")
    # A stable sort by value gives the (value, vertices) order; pos[p] is
    # the filtration index of the edge at (i, j) position p, and index[a, b]
    # that of edge (a, b) plus one, 0 where (a, b) is not an edge.
    edge_values = d[i, j]
    order = np.argsort(edge_values, kind="stable")
    values = edge_values[order]
    id_type = np.min_scalar_type(m)
    pos = np.empty(m, dtype=id_type)
    pos[order] = np.arange(m, dtype=id_type)
    index = np.zeros((n, n), dtype=id_type)
    index[i, j] = pos + 1
    # rank[e]: 1 + the number of distinct values below that of edge e. It
    # rises with e, so a triangle's rank is that of its latest facet.
    new = np.ones(m, dtype=bool)
    new[1:] = values[1:] != values[:-1]
    rank = np.cumsum(new, dtype=id_type)
    # Candidates come in lexicographic (i, j, k) order, those of edge (i, j)
    # together; candidate c takes edge (j, k) from (i, j) position jk[c],
    # which fits int32 below MAX_TRIANGLE_CANDIDATES. It is a triangle when
    # (i, k) is an edge too, and its facets are then (ab, ac, bc).
    jk = np.repeat((start[j] - (np.cumsum(counts) - counts)).astype(np.int32), counts)
    jk += np.arange(candidates, dtype=np.int32)
    cell = np.repeat(n * i, counts)
    cell += j[jk]
    ac = index.ravel()[cell]
    del cell
    hit = np.flatnonzero(ac)
    ab, ac, bc = np.repeat(pos, counts)[hit], ac[hit], pos[jk[hit]]
    ac -= 1
    del jk, hit
    latest = np.maximum(np.maximum(ab, ac), bc)
    tri_order = np.argsort(rank[latest], kind="stable")
    facets = np.empty((len(tri_order), 3), dtype=id_type)
    for column, ids in enumerate((ab, ac, bc)):
        facets[:, column] = ids[tri_order]
    return Filtration(n, np.column_stack([i, j])[order], values, facets,
                      values[latest[tri_order]], float(max_filtration))


def boundary(s: FiltSimplex) -> Chain:
    """Boundary of a simplex over Z2: each facet with coefficient 1.

    Vertices have empty boundary. Signs vanish modulo 2, so the boundary is
    just the set of faces obtained by dropping one vertex.
    """
    if s.dim == 0:
        return Chain()
    faces = [s.vertices[:i] + s.vertices[i + 1:] for i in range(len(s.vertices))]
    return Chain(frozenset(faces))


def boundary_of_chain(c: Chain) -> Chain:
    """Z2-linear extension of the boundary operator to chains."""
    total = Chain()
    for verts in c.simplices:
        total = total + boundary(FiltSimplex(verts, 0.0))
    return total


def compute_persistence(f: Filtration, keep_zero_bars: bool = False) -> Barcode:
    """Barcode by union-find for H0 and cohomology reduction for H1, over Z2.

    H0: Kruskal union-find over the sorted edges, with path halving. An edge
    that joins two components kills one of them; these edges form the
    minimum spanning forest and pair with vertices, so their H1 columns are
    cleared (Chen & Kerber 2011).

    H1: the coboundaries of the remaining edges are reduced in reverse
    filtration order, each column's pivot being its earliest triangle (de
    Silva, Morozov & Vejdemo-Johansson 2011; Bauer, Ripser, 2021). An edge
    whose earliest coface has the edge as its latest facet is an apparent
    pair: its column is already reduced and is read from the coboundary,
    never stored. A column whose earliest coface has no owner is paired at
    once. The others are reduced on one reused bool working column of
    n_tris + 1 entries, whose last entry, a sentinel, is always True.
    Adding an owner's column flips its rows, ``col[rows] = ~col[rows]``,
    which acts once per distinct index, so every stored column must be
    sorted and duplicate-free. The pivot only grows, so the next one is the
    first True entry at or after it: argmax on bools stops there, and on a
    column reduced to zero it stops at the sentinel, n_tris, which no
    column owns. The rows lie in [pivot, hi], hi being the largest row the
    column has touched, so a column that received additions and found a
    pivot is stored as the True entries of that window, which are then
    cleared. A column reduced to zero, or an edge with no coface, is a
    class still open at the cap and gets infinite death.

    The pairing equals that of the standard boundary reduction in (value,
    dim, vertices) order. Pairs with zero persistence are dropped unless
    keep_zero_bars is set.
    """
    n, edges = f.n_vertices, f.edges
    edge_values, tri_values = f.edge_values, f.triangle_values
    m = len(edge_values)
    pairs = []

    parent = list(range(n))
    forest = []
    components = n
    for e, (a, b) in enumerate(edges.tolist()):
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
    deaths = edge_values[forest]
    if not keep_zero_bars:
        deaths = deaths[deaths > 0.0]
    pairs += [PersistencePair(0, 0.0, x) for x in deaths.tolist()]
    pairs += [PersistencePair(0, 0.0, math.inf)] * components

    # The cofaces of each edge as ascending triangle indices:
    # cofaces[start[e]:start[e + 1]]. The facets are held in the smallest
    # unsigned type, so the stable argsort that groups them is a radix sort
    # while they fit 16 bits.
    facets = f.facets
    n_tris = len(tri_values)
    cofaces = np.argsort(facets.ravel(), kind="stable")
    cofaces //= 3
    start = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(facets.ravel(), minlength=m), out=start[1:])
    has_coface = start[1:] > start[:-1]
    earliest = np.full(m, n_tris, dtype=np.intp)  # n_tris: no coface
    earliest[has_coface] = cofaces[start[:-1][has_coface]]
    latest = np.maximum(np.maximum(facets[:, 0], facets[:, 1]), facets[:, 2])
    apparent_tris = np.flatnonzero(earliest[latest] == np.arange(n_tris))
    apparent_edges = latest[apparent_tris]

    births = edge_values[apparent_edges]
    deaths = tri_values[apparent_tris]
    keep = slice(None) if keep_zero_bars else deaths > births
    pairs += [PersistencePair(1, x, y)
              for x, y in zip(births[keep].tolist(), deaths[keep].tolist())]

    pivot_owner = dict(zip(apparent_tris.tolist(), apparent_edges.tolist()))
    reduced: dict[int, np.ndarray] = {}
    col = np.zeros(n_tris + 1, dtype=bool)
    col[n_tris] = True
    todo = np.ones(m, dtype=bool)
    todo[forest] = False
    todo[apparent_edges] = False
    todo = np.flatnonzero(todo)[::-1]
    for e, pivot in zip(todo.tolist(), earliest[todo].tolist()):
        owner = pivot_owner.get(pivot)
        if owner is not None:
            rows = cofaces[start[e]:start[e + 1]]
            col[rows] = True
            hi = int(rows[-1])
            while owner is not None:
                rows = reduced.get(owner)
                if rows is None:
                    rows = cofaces[start[owner]:start[owner + 1]]
                col[rows] = ~col[rows]
                last = int(rows[-1])
                if last > hi:
                    hi = last
                pivot += int(col[pivot:].argmax())
                owner = pivot_owner.get(pivot)
            if pivot < n_tris:
                rows = pivot + col[pivot:hi + 1].nonzero()[0]
                col[rows] = False
                reduced[e] = rows
        birth = float(edge_values[e])
        if pivot < n_tris:
            pivot_owner[pivot] = e
            death = float(tri_values[pivot])
        else:
            death = math.inf
        if keep_zero_bars or death > birth:
            pairs.append(PersistencePair(1, birth, death))
    pairs.sort()
    return Barcode(tuple(pairs), f.max_filtration)


def betti_numbers(b: Barcode, eps: float) -> tuple[int, int]:
    """Betti numbers (components, holes) at one scale.

    A pair counts at eps when birth <= eps < death: intervals are half-open
    on the right.
    """
    if not 0 <= eps <= b.max_filtration:
        raise InputError(f"scale {eps} outside [0, {b.max_filtration}]")
    counts = [0, 0]
    for p in b.pairs:
        if p.birth <= eps < p.death:
            counts[p.dim] += 1
    return counts[0], counts[1]


def barcode_from_cloud(
    pc: PointCloud,
    max_filtration: float = DEFAULT_MAX_FILTRATION,
    keep_zero_bars: bool = False,
) -> Barcode:
    """Convenience: distance matrix -> VR filtration -> barcode."""
    dm = compute_distance_matrix(pc)
    f = build_vr_filtration(dm, max_filtration)
    return compute_persistence(f, keep_zero_bars=keep_zero_bars)
