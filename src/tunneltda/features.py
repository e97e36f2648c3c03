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


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _sum(values: np.ndarray) -> float:
    """Sum strictly left to right from 0.0, as np.cumsum adds; the + 0.0
    makes a sum of -0.0s 0.0, as a start from 0.0 does. Builtin sum()
    compensates its rounding since Python 3.12, and np.sum adds pairwise,
    so either would give other last bits."""
    return float(np.cumsum(values)[-1] + 0.0) if len(values) else 0.0


def extract_features(b: Barcode) -> FeatureVector:
    """Compute the 14 features of one barcode at its own cap, from its
    arrays; each selection keeps the barcode's bar order.

    Ties for the longest dim-1 bar are broken by earliest birth.
    """
    cap = b.max_filtration
    h0, h1 = b.dims == 0, b.dims == 1
    births = b.births[h1]
    h0_deaths, deaths = np.minimum(b.deaths[h0], cap), np.minimum(b.deaths[h1], cap)
    h0_lengths = h0_deaths - b.births[h0]
    h1_lengths = deaths - births
    # a stable sort of the negated lengths keeps equal ones, -0.0 and 0.0
    # among them, in bar order
    longest_first = h0_lengths[np.argsort(-h0_lengths, kind="stable")]

    f1 = _sum(longest_first)
    f2 = _sum(h1_lengths)
    f3 = float(longest_first[1]) if len(longest_first) > 1 else 0.0
    f4 = float(longest_first[2]) if len(longest_first) > 2 else 0.0

    interior = h0_lengths[h0_deaths < cap]
    f5 = _sum(interior)
    f6 = _mean(interior)

    if len(h1_lengths):
        # longest bar, earliest birth on ties
        longest = np.flatnonzero(h1_lengths == h1_lengths.max())
        best = longest[births[longest].argmin()]
        f7 = float(births[best])
        f8 = float(h1_lengths[best])
    else:
        f7 = f8 = 0.0

    long_bars = h1_lengths > LONG_BAR_THRESHOLD
    long_births = births[long_bars]
    f9 = float(long_births[long_births.argmin()]) if len(long_births) else 0.0
    f10 = _mean((long_births + deaths[long_bars]) / 2.0)

    # a clamped death reaches the cap exactly when the death does
    censored = cap - births[deaths >= cap]
    f11 = _sum(censored)
    f12 = _mean(censored)

    return FeatureVector(
        f1=f1, f2=f2, f3=f3, f4=f4, f5=f5, f6=f6, f7=f7, f8=f8,
        f9=f9, f10=f10, f11=f11, f12=f12,
        f13=int(h0.sum()), f14=int(h1.sum()),
    )


def feature_series(barcodes: list[Barcode]) -> list[FeatureVector]:
    """One FeatureVector per barcode, order preserved."""
    if not barcodes:
        raise InputError("feature series needs at least one barcode")
    return [extract_features(b) for b in barcodes]


def feature_matrix(vectors: list[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n_events, 14) array."""
    return np.vstack([v.as_array() for v in vectors])
