"""Equivalent uniform blast load on the model surface and its time history.

A row of blast holes is smeared into a uniform surface pressure: the single
hole peak P_m = rho_c * D^2 * kappa_c^-6 * eta / 8 is scaled by the geometric
ratio 2R/L. The time history is triangular: a linear rise to the peak
followed by a linear decay to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class BlastConfig:
    """Borehole and charge parameters.

    radius/spacing in m, charge_density in kg/m^3, detonation_velocity in
    m/s; uncoupling and enlargement are dimensionless.
    """

    radius: float
    spacing: float
    charge_density: float
    detonation_velocity: float
    uncoupling: float
    enlargement: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise InputError(f"{f.name} must be positive and finite, got {value}")
        if self.uncoupling < 1.0:
            raise InputError(f"uncoupling coefficient must be >= 1, got {self.uncoupling}")


@dataclass(frozen=True)
class LoadProfile:
    """Triangular pressure history: ramp up over rise_time, down to total_time."""

    rise_time: float
    total_time: float
    peak_pressure: float

    def __post_init__(self):
        if not 0 < self.rise_time < self.total_time:
            raise InputError(
                f"need 0 < rise_time < total_time, got {self.rise_time}, {self.total_time}"
            )
        if not 0 < self.peak_pressure < math.inf:
            raise InputError(
                f"peak pressure must be positive and finite, got {self.peak_pressure}")


def peak_pressure(cfg: BlastConfig) -> float:
    """Single-hole peak pressure in Pa; a peak that is not finite is an
    InputError."""
    try:
        p_m = (cfg.charge_density * cfg.detonation_velocity ** 2
               * cfg.uncoupling ** -6 * cfg.enlargement) / 8.0
    except OverflowError:  # a float ** int raises where a product gives inf
        p_m = math.inf
    if not math.isfinite(p_m):
        raise InputError(f"single-hole peak pressure {p_m} is not finite for {cfg}")
    return p_m


def equivalent_uniform_peak(cfg: BlastConfig, p_m: float) -> float:
    """Smear a single-hole peak over the hole spacing: (2R/L) * P_m."""
    return 2.0 * cfg.radius / cfg.spacing * p_m


def uniform_peak_direct(cfg: BlastConfig) -> float:
    """One-shot formula for the uniform peak, bypassing the single-hole value.

    Algebraically identical to equivalent_uniform_peak(cfg, peak_pressure(cfg));
    kept as an independent route for cross-checking. The two routes agree only
    where neither overflows: this one multiplies R/4L in first, so at
    charge_density=1e300 and detonation_velocity=1e5 it returns a finite
    1.2396e308 while peak_pressure refuses the same config. A uniform peak
    that is not finite is an InputError.
    """
    try:
        peak = (cfg.radius / (4.0 * cfg.spacing) * cfg.charge_density
                * cfg.detonation_velocity ** 2 * cfg.uncoupling ** -6 * cfg.enlargement)
    except OverflowError:  # a float ** int raises where a product gives inf
        peak = math.inf
    if not math.isfinite(peak):
        raise InputError(f"uniform peak pressure {peak} is not finite for {cfg}")
    return peak


def shape_factor(profile: LoadProfile, t: float) -> float:
    """Dimensionless triangular shape f(t) in [0, 1]; zero outside the pulse."""
    if t < 0:
        raise InputError(f"time must be non-negative, got {t}")
    if t <= profile.rise_time:
        return t / profile.rise_time
    if t < profile.total_time:
        return (profile.total_time - t) / (profile.total_time - profile.rise_time)
    return 0.0


def load_at(profile: LoadProfile, t: float) -> float:
    """Pressure in Pa at time t (seconds)."""
    return profile.peak_pressure * shape_factor(profile, t)


# Published calibration: the material constants behind P_m are not public, so
# the preset pins the single-hole peak and the 2R/L ratio directly.
PAPER_SINGLE_HOLE_PEAK = 1.5e9   # Pa
PAPER_BORE_RATIO = 0.092         # 2R/L
PAPER_RISE_TIME = 5e-3           # s
PAPER_TOTAL_TIME = 35e-3         # s


@dataclass(frozen=True)
class CalibratedLoad:
    """A fully determined surface load: single-hole peak, smear ratio, history."""

    single_hole_peak: float
    bore_ratio: float
    profile: LoadProfile


def paper_preset() -> CalibratedLoad:
    """The published calibration: P_m = 1.5e9 Pa, uniform peak 1.38e8 Pa."""
    peak = PAPER_BORE_RATIO * PAPER_SINGLE_HOLE_PEAK
    return CalibratedLoad(
        single_hole_peak=PAPER_SINGLE_HOLE_PEAK,
        bore_ratio=PAPER_BORE_RATIO,
        profile=LoadProfile(PAPER_RISE_TIME, PAPER_TOTAL_TIME, peak),
    )


def calibrated_from_config(cfg: BlastConfig) -> CalibratedLoad:
    """Build the surface load from explicit borehole parameters and the
    published pulse timing."""
    p_m = peak_pressure(cfg)
    peak = equivalent_uniform_peak(cfg, p_m)
    return CalibratedLoad(
        single_hole_peak=p_m,
        bore_ratio=2.0 * cfg.radius / cfg.spacing,
        profile=LoadProfile(PAPER_RISE_TIME, PAPER_TOTAL_TIME, peak),
    )
