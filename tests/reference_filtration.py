"""Chunked dense-scan filtration build, the reference for the neighbour-list one.

This is the package's previous distance formula and triangle enumeration,
kept unchanged for the tests: every triple (i, j, k) is found by scanning the
rows ``within[i] & within[j]`` of the n x n cap mask, edges in chunks of
bounded size, and triangles are ordered by a stable sort of their float
values. Each triangle's facets are then looked up by vertex pair in an n x n
table of edge indices (``facets_of``), not taken from the enumeration. The
engine's arrays must equal these array for array.
"""

import numpy as np

from tunneltda.errors import InputError
from tunneltda.topology import DistanceMatrix, Filtration, PointCloud

TRIANGLE_CHUNK = 1 << 18  # candidate (edge, vertex) cells examined per step


def reference_distance_matrix(pc: PointCloud) -> DistanceMatrix:
    """Pairwise distances summed over the coordinate axis, then symmetrised."""
    diff = pc.xy[:, None, :] - pc.xy[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    d = (d + d.T) / 2.0  # exact symmetry despite rounding
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def reference_filtration(dm: DistanceMatrix, max_filtration: float) -> Filtration:
    """Vietoris-Rips filtration up to triangles by a chunked scan of the cap mask."""
    if not max_filtration > 0:
        raise InputError(f"max_filtration must be positive, got {max_filtration}")
    d = dm.d
    within = np.triu(d <= max_filtration, 1)
    # np.nonzero lists pairs and triples in lexicographic order, so a stable
    # sort by value gives the (value, vertices) order.
    i, j = np.nonzero(within)
    edges = np.column_stack([i, j])
    edge_values = d[i, j]
    order = np.argsort(edge_values, kind="stable")
    # Triangle (i, j, k) for each edge (i, j) and each k > j within the cap of
    # both. Edges go in chunks of at most TRIANGLE_CHUNK candidate cells, so
    # memory follows the triangles found, never n^3.
    rows = max(1, TRIANGLE_CHUNK // max(dm.n, 1))
    blocks = [np.empty((0, 3), dtype=np.intp)]
    for lo in range(0, len(i), rows):
        ci, cj = i[lo:lo + rows], j[lo:lo + rows]
        r, k = np.nonzero(within[ci] & within[cj])
        blocks.append(np.column_stack([ci[r], cj[r], k]))
    tris = np.concatenate(blocks)
    a, b, c = tris.T
    tri_values = np.maximum(np.maximum(d[a, b], d[a, c]), d[b, c])
    tri_order = np.argsort(tri_values, kind="stable")
    edges = edges[order]
    return Filtration(dm.n, edges, edge_values[order],
                      facets_of(dm.n, edges, tris[tri_order]), tri_values[tri_order],
                      float(max_filtration))


def facets_of(n_vertices: int, edges: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Edge indices (ab, ac, bc) of each triangle (a, b, c), looked up in an
    n x n table of edge indices."""
    m = len(edges)
    edge_index = np.zeros((n_vertices, n_vertices), dtype=np.min_scalar_type(m))
    edge_index[edges[:, 0], edges[:, 1]] = np.arange(m)
    a, b, c = triangles.T
    return np.column_stack([edge_index[a, b], edge_index[a, c], edge_index[b, c]])
