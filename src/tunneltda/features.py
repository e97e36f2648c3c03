"""Vectorization of a barcode into the 14 scalar features fed to the predictor.

Bar lengths are always computed with deaths clamped to the barcode's own
filtration cap so every feature is finite; counts (f13, f14) ignore
clamping. Empty selections yield 0 rather than NaN to keep downstream
regression inputs well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .topology import Barcode

#: Minimum bar length for a dim-1 bar to count as "long" (features 9 and 10).
#: Absolute, in scale units; deliberately not relative to other bars.
LONG_BAR_THRESHOLD = 1.5


@dataclass(frozen=True)
class FeatureVector:
    """The 14 barcode features of one snapshot.

    f1   total length of all dim-0 bars (clamped)
    f2   total length of all dim-1 bars (clamped)
    f3   second longest dim-0 bar length
    f4   third longest dim-0 bar length
    f5   total length of dim-0 bars that die before the cap
    f6   mean length of dim-0 bars that die before the cap
    f7   birth of the longest dim-1 bar
    f8   length of the longest dim-1 bar
    f9   smallest birth among long dim-1 bars
    f10  mean midpoint of long dim-1 bars
    f11  total clamped length of dim-1 bars still open at the cap
    f12  mean clamped length of dim-1 bars still open at the cap
    f13  number of dim-0 bars
    f14  number of dim-1 bars
    """

    f1: float
    f2: float
    f3: float
    f4: float
    f5: float
    f6: float
    f7: float
    f8: float
    f9: float
    f10: float
    f11: float
    f12: float
    f13: int
    f14: int

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)):
            raise InputError("feature values must be finite")
        if self.f13 < 0 or self.f14 < 0:
            raise InputError("bar counts must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f"f{i}") for i in range(1, 15)], dtype=float)

    def __getitem__(self, index: int) -> float:
        if not 1 <= index <= 14:
            raise InputError(f"feature index must be in 1..14, got {index}")
        return float(getattr(self, f"f{index}"))


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _sum(values: list[float]) -> float:
    """Sum strictly left to right. Builtin sum() compensates its rounding
    since Python 3.12, so it would give other last bits there."""
    total = 0.0
    for v in values:
        total += v
    return total


def extract_features(b: Barcode) -> FeatureVector:
    """Compute the 14 features of one barcode at its own cap.

    Ties for the longest dim-1 bar are broken by earliest birth.
    """
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

    # a clamped death reaches the cap exactly when the death does
    censored = [cap - birth for birth, death in h1 if death >= cap]
    f11 = _sum(censored)
    f12 = _mean(censored)

    return FeatureVector(
        f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7, f8=f8,
        f9=f9, f10=f10, f11=f11, f12=f12,
        f13=len(h0), f14=len(h1),
    )


def feature_series(barcodes: list[Barcode]) -> list[FeatureVector]:
    """One FeatureVector per barcode, order preserved."""
    if not barcodes:
        raise InputError("feature series needs at least one barcode")
    return [extract_features(b) for b in barcodes]


def feature_matrix(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n_events, 14) array."""
    return np.vstack([v.as_array() for v in vectors])
