"""Per-bar feature extraction, kept as the reference for features.extract_features.

This is the extraction the package used before barcodes held their bars as
arrays: it walks the bars as (birth, death) tuples, one Python float at a
time, and reads exactly as the features are defined. The tests hold the
array version to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from tunneltda.features import LONG_BAR_THRESHOLD, FeatureVector
from tunneltda.topology import Barcode


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _sum(values: list[float]) -> float:
    """Sum strictly left to right."""
    total = 0.0
    for v in values:
        total += v
    return total


def extract_features(b: Barcode) -> FeatureVector:
    cap = b.max_filtration
    h0 = [(p.birth, min(p.death, cap)) for p in b.in_dim(0)]
    h1 = [(p.birth, min(p.death, cap)) for p in b.in_dim(1)]
    h0_lengths = sorted((death - birth for birth, death in h0), reverse=True)
    h1_lengths = [death - birth for birth, death in h1]

    f1 = _sum(h0_lengths)
    f2 = _sum(h1_lengths)
    f3 = h0_lengths[1] if len(h0_lengths) > 1 else 0.0
    f4 = h0_lengths[2] if len(h0_lengths) > 2 else 0.0

    interior = [death - birth for birth, death in h0 if death < cap]
    f5 = _sum(interior)
    f6 = _mean(interior)

    if h1:
        # longest bar, earliest birth on ties
        best_birth, best_death = max(h1, key=lambda bar: (bar[1] - bar[0], -bar[0]))
        f7 = best_birth
        f8 = best_death - best_birth
    else:
        f7 = f8 = 0.0

    long_bars = [(birth, death) for birth, death in h1 if death - birth > LONG_BAR_THRESHOLD]
    f9 = min((birth for birth, _ in long_bars), default=0.0)
    f10 = _mean([(birth + death) / 2.0 for birth, death in long_bars])

    censored = [cap - birth for birth, death in h1 if death >= cap]
    f11 = _sum(censored)
    f12 = _mean(censored)

    return FeatureVector(
        f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7, f8=f8,
        f9=f9, f10=f10, f11=f11, f12=f12,
        f13=len(h0), f14=len(h1),
    )
