import numpy as np
import pytest

from tunneltda.blastload import (BlastConfig, LoadProfile, calibrated_from_config,
                                 equivalent_uniform_peak, load_at, paper_preset,
                                 peak_pressure, shape_factor, uniform_peak_direct)
from tunneltda.errors import InputError


def config(**overrides):
    base = dict(radius=0.05, spacing=1.25, charge_density=1200.0,
                detonation_velocity=4000.0, uncoupling=9.0, enlargement=8.0)
    base.update(overrides)
    return BlastConfig(**base)


def test_doubling_uncoupling_divides_peak_by_64():
    p1 = peak_pressure(config(uncoupling=2.0))
    p2 = peak_pressure(config(uncoupling=4.0))
    assert p1 / p2 == pytest.approx(64.0, rel=1e-12)


def test_enlargement_must_be_positive():
    with pytest.raises(InputError):
        config(enlargement=0.0)


def test_uncoupling_below_one_rejected():
    with pytest.raises(InputError):
        config(uncoupling=0.5)


def test_calibration_can_reproduce_published_peak():
    # pick eta so the single-hole peak lands on 1.5e9 Pa
    cfg = config(charge_density=1000.0, detonation_velocity=4000.0, uncoupling=9.0,
                 enlargement=1.5e9 * 8.0 * 9.0 ** 6 / (1000.0 * 4000.0 ** 2))
    assert peak_pressure(cfg) == pytest.approx(1.5e9, rel=1e-12)


def test_half_spacing_radius_is_identity():
    cfg = config(radius=0.625, spacing=1.25)
    assert equivalent_uniform_peak(cfg, 2.0e9) == pytest.approx(2.0e9, rel=1e-12)


def test_published_ratio_gives_published_uniform_peak():
    load = paper_preset()
    assert load.single_hole_peak == pytest.approx(1.5e9, rel=1e-12)
    assert load.profile.peak_pressure == pytest.approx(1.38e8, rel=1e-12)


def test_direct_route_equals_composed_route():
    rng = np.random.default_rng(41)
    for _ in range(100):
        cfg = BlastConfig(
            radius=float(rng.uniform(0.01, 0.5)),
            spacing=float(rng.uniform(0.5, 5.0)),
            charge_density=float(rng.uniform(800, 1800)),
            detonation_velocity=float(rng.uniform(2000, 8000)),
            uncoupling=float(rng.uniform(1.0, 12.0)),
            enlargement=float(rng.uniform(0.5, 20.0)),
        )
        composed = equivalent_uniform_peak(cfg, peak_pressure(cfg))
        assert uniform_peak_direct(cfg) == pytest.approx(composed, rel=1e-12)


def test_direct_route_refuses_an_overflowing_peak():
    # D ** 2 raises OverflowError at D = 1e200, where a product would give
    # inf; both routes refuse the config with an InputError instead
    cfg = BlastConfig(0.021, 0.45, 1000.0, 1e200, 1.4, 8.0)
    for route in (uniform_peak_direct, peak_pressure):
        with pytest.raises(InputError, match="peak pressure inf is not finite"):
            route(cfg)
    # the direct route multiplies R/4L in first, so the routes agree only
    # where neither overflows: here only the single-hole peak does
    cfg = BlastConfig(0.021, 0.45, 1e300, 1e5, 1.4, 8.0)
    assert uniform_peak_direct(cfg) == pytest.approx(1.2396e308, rel=1e-4)
    with pytest.raises(InputError, match="not finite"):
        peak_pressure(cfg)


def test_uniform_peak_linear_in_inputs():
    cfg = config()
    p = equivalent_uniform_peak(cfg, 1.0e9)
    assert equivalent_uniform_peak(cfg, 2.0e9) == pytest.approx(2 * p, rel=1e-12)
    wider = config(radius=2 * cfg.radius)
    assert equivalent_uniform_peak(wider, 1.0e9) == pytest.approx(2 * p, rel=1e-12)


def test_triangular_history_keypoints():
    profile = paper_preset().profile
    assert load_at(profile, 0.0) == 0.0
    assert load_at(profile, 0.005) == pytest.approx(profile.peak_pressure, rel=1e-12)
    assert load_at(profile, 0.035) == 0.0
    assert load_at(profile, 0.0025) == pytest.approx(profile.peak_pressure / 2, rel=1e-12)
    assert load_at(profile, 1.0) == 0.0


def test_shape_factor_continuous_piecewise_linear():
    profile = LoadProfile(0.005, 0.035, 1.0)
    ts = np.linspace(0.0, 0.05, 2001)
    vals = np.array([shape_factor(profile, t) for t in ts])
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)
    assert np.abs(np.diff(vals)).max() < 0.02  # no jumps at the breakpoints
    assert np.all(vals[ts >= 0.035] == 0.0)


def test_negative_time_rejected():
    with pytest.raises(InputError):
        load_at(paper_preset().profile, -0.001)


def test_profile_validation():
    with pytest.raises(InputError):
        LoadProfile(0.04, 0.035, 1.0)
    with pytest.raises(InputError):
        LoadProfile(0.005, 0.035, 0.0)


def test_calibrated_from_config_composes():
    cfg = config()
    load = calibrated_from_config(cfg)
    assert load.single_hole_peak == pytest.approx(peak_pressure(cfg), rel=1e-12)
    assert load.profile.peak_pressure == pytest.approx(
        equivalent_uniform_peak(cfg, peak_pressure(cfg)), rel=1e-12)
    assert load.bore_ratio == pytest.approx(2 * cfg.radius / cfg.spacing, rel=1e-12)
