import math

import numpy as np
import pytest

from tunneltda.topology import Barcode, PersistencePair, PointCloud, barcode_from_cloud


def make_cloud(points):
    return PointCloud.from_rows(
        (f"b{i}", float(x), float(y)) for i, (x, y) in enumerate(points)
    )


def plus_cloud():
    """Two lines of 5,800 blocks 1 mm apart, crossing as a "+": the spreads
    tie, so the sweep takes x, and the vertical line's C(5800, 2) pairs all
    fall in one x window."""
    k = 0.001 * np.arange(5800)
    return make_cloud(np.concatenate([np.column_stack([k, np.full(5800, 2.9)]),
                                      np.column_stack([np.full(5800, 2.9005), k])]))


def random_cloud(rng, n_points, scale=10.0):
    return make_cloud(rng.uniform(-scale, scale, size=(n_points, 2)))


def bars(*triples, cap=30.0):
    return Barcode(tuple(PersistencePair(d, b, x) for d, b, x in sorted(triples)), cap)


@pytest.fixture
def square_barcode():
    """Unit square corners with cap 2: three [0,1) merges, one essential
    component, one hole [1, sqrt(2))."""
    return barcode_from_cloud(make_cloud([(0, 0), (1, 0), (1, 1), (0, 1)]), 2.0)


INF = math.inf
