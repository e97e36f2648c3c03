"""Bottleneck distance between the barcodes of one dimension, capped.

Deaths are clamped to the cap on both sides: a capped filtration is the
full one with every value above the cap lowered to it, so a bar that dies
just past the cap and one that dies just below it are close, as they are
under stability. A point is matched to a point at their L-inf distance or to
the diagonal at half its length.
"""

from __future__ import annotations


def _points(barcode, dim: int, cap: float) -> list[tuple[float, float]]:
    return [(p.birth, min(p.death, cap)) for p in barcode.in_dim(dim)]


def _covers(need, other, t: float) -> bool:
    """Whether some matching within t covers every point of need (Kuhn)."""
    near = [[j for j, (b, d) in enumerate(other) if max(abs(b - x), abs(d - y)) <= t]
            for x, y in need]
    owner = [-1] * len(other)

    def augment(i: int, seen: set) -> bool:
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(need)))


def matchable(a, b, t: float) -> bool:
    """Whether a and b match within t, points shorter than 2t going to the
    diagonal. The longer points of each side must be matched across; by the
    Mendelsohn-Dulmage theorem a matching covering those of a and one
    covering those of b give one matching that covers both."""
    long_a = [p for p in a if p[1] - p[0] > 2 * t]
    long_b = [q for q in b if q[1] - q[0] > 2 * t]
    return _covers(long_a, b, t) and _covers(long_b, a, t)


def bottleneck(x, y, dim: int, cap: float) -> float:
    """Bottleneck distance of the dim bars of barcodes x and y, deaths clamped to cap."""
    a, b = _points(x, dim, cap), _points(y, dim, cap)
    candidates = {0.0} | {(d - s) / 2 for s, d in a + b}
    candidates |= {max(abs(s - u), abs(d - v)) for s, d in a for u, v in b}
    candidates = sorted(candidates)
    lo, hi = 0, len(candidates) - 1  # the largest candidate always matches
    while lo < hi:
        mid = (lo + hi) // 2
        if matchable(a, b, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]
