"""Set-based boundary-matrix reduction, the mid-size reference for the engine.

This is the package's original reduction, kept unchanged for the tests: the
brute-force rank oracle in oracle.py cannot reach the 42-block scenario, and
this can. It reads the filtration only through ``Filtration.simplices``.
"""

import math

from tunneltda.topology import Barcode, Filtration, PersistencePair, boundary


def reference_persistence(f: Filtration, keep_zero_bars: bool = False) -> Barcode:
    """Barcode of a filtration by column reduction of the Z2 boundary matrix.

    Columns are processed in filtration order with sparse sets of row
    indices; a column is repeatedly reduced by the column sharing its lowest
    row until its pivot is fresh or it vanishes. A vanishing column creates a
    class, a surviving pivot kills the class created at its lowest row.
    Classes still open at the cap get infinite death. Pairs with zero
    persistence are dropped unless keep_zero_bars is set.
    """
    order = {s.vertices: idx for idx, s in enumerate(f.simplices)}
    columns: dict[int, set[int]] = {}
    pivot_of_row: dict[int, int] = {}  # creator row -> column that kills it

    for j, s in enumerate(f.simplices):
        col = {order[face] for face in boundary(s)}
        while col:
            low = max(col)
            other = pivot_of_row.get(low)
            if other is None:
                break
            col ^= columns[other]
        if col:
            columns[j] = col
            pivot_of_row[max(col)] = j

    pairs = []
    for idx, s in enumerate(f.simplices):
        if s.dim > 1 or idx in columns:
            continue  # not a creator, or creates in a dimension we do not report
        killer = pivot_of_row.get(idx)
        death = math.inf if killer is None else f.simplices[killer].value
        if not keep_zero_bars and death == s.value:
            continue
        pairs.append(PersistencePair(s.dim, s.value, death))
    pairs.sort()
    return Barcode(tuple(pairs), f.max_filtration)
