"""Closed-form LS-SVM leave-one-out against the retrain-loop reference.

`tunneltda.lssvm` computes every grid point's leave-one-out errors from one
stacked eigendecomposition of the full-set KKT matrices; `reference_loo`
retrains once per left-out sample. They must agree within 1e-8 relative on
the published fixture series, on the default synthetic scenario's feature
columns and on hypothesis-drawn series, and the grid search must pick the
same (gamma, sigma). The error contract of the solve (conditioning warning,
NumericalError instead of NaN, gamma > 0) must hold on the grid path too.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tunneltda import dataio, features, lssvm, pipeline
from tunneltda.errors import ConditioningWarning, InputError, NumericalError
from tunneltda.lssvm import KernelSpec, TrainingSet, loo_squared_errors, select_hyperparameters
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import DEFAULT_MAX_FILTRATION

import reference_loo

PIPELINE_GRID = [(gamma, KernelSpec("rbf", sigma))
                 for gamma in lssvm.GAMMA_GRID for sigma in lssvm.SIGMA_GRID]


def standardized(events) -> np.ndarray:
    """Event indices standardized the way FeaturePredictor.fit does it."""
    events = np.asarray(events, dtype=float)
    return ((events - events.mean()) / events.std())[:, None]


def training_set(values) -> TrainingSet:
    """The training half (events 0..split) of a 21-event feature series."""
    values = np.asarray(values, dtype=float)[:pipeline.DEFAULT_SPLIT + 1]
    return TrainingSet(standardized(np.arange(len(values))), values)


def assert_matches_reference(ts, grid, atol_scale=0.0):
    """Closed form == retrain loop at every grid point, within 1e-8 relative.

    With atol_scale > 0 the tolerance is also relative to the grid point's
    largest reference error times atol_scale, for draws where one sample's
    leave-one-out error is tiny against the rest and the retrain loop's
    subtraction y_i - prediction loses its digits.
    """
    closed = lssvm._loo_grid(ts, grid)
    assert closed.shape == (len(grid), ts.m)
    for row, (gamma, kernel) in zip(closed, grid):
        ref = reference_loo.loo_squared_errors(ts, gamma, kernel)
        np.testing.assert_allclose(row, ref, rtol=1e-8, atol=1e-8 * atol_scale * ref.max(),
                                   err_msg=f"gamma={gamma} {kernel}")
        single = loo_squared_errors(ts, gamma, kernel)
        np.testing.assert_allclose(single, row, rtol=1e-12, atol=0)


def assert_same_selection(ts):
    gamma, kernel, mse = select_hyperparameters(ts)
    ref_gamma, ref_kernel, ref_mse = reference_loo.select_hyperparameters(ts)
    assert (gamma, kernel) == (ref_gamma, ref_kernel)
    assert mse == pytest.approx(ref_mse, rel=1e-8)


@pytest.mark.parametrize("feature", [2, 8, 14])
def test_closed_form_matches_reference_on_fixture_series(feature):
    _, t6 = dataio.fixtures()
    ts = training_set(t6.features[feature].y)
    assert_matches_reference(ts, PIPELINE_GRID)
    assert_same_selection(ts)


@pytest.fixture(scope="module")
def seed7_matrix():
    seq = generate_sequence(ScenarioConfig(seed=7))
    barcodes = pipeline.compute_barcodes(seq, DEFAULT_MAX_FILTRATION)
    return features.feature_matrix(features.feature_series(barcodes, DEFAULT_MAX_FILTRATION))


@pytest.mark.parametrize("feature", pipeline.EXPERIMENT_FEATURES)
def test_closed_form_matches_reference_on_seed7_columns(seed7_matrix, feature):
    ts = training_set(seed7_matrix[:, feature - 1])
    if np.ptp(ts.targets) == 0.0:
        # The pipeline fits a constant column without a grid search; both
        # methods still agree that every leave-one-out error vanishes.
        closed = lssvm._loo_grid(ts, PIPELINE_GRID)
        for row, (gamma, kernel) in zip(closed, PIPELINE_GRID):
            ref = reference_loo.loo_squared_errors(ts, gamma, kernel)
            tiny = 1e-20 * ts.targets[0] ** 2
            assert row.max() <= tiny and ref.max() <= tiny
        return
    assert_matches_reference(ts, PIPELINE_GRID)
    assert_same_selection(ts)


def test_seed7_scenario_has_a_searched_column(seed7_matrix):
    searched = [k for k in pipeline.EXPERIMENT_FEATURES
                if np.ptp(seed7_matrix[:pipeline.DEFAULT_SPLIT + 1, k - 1]) > 0]
    assert searched  # otherwise the test above compares only zeros


series = st.integers(3, 14).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, 40), min_size=m, max_size=m, unique=True),
    st.lists(st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
             min_size=m, max_size=m),
))


def drawn_set(spec) -> TrainingSet:
    positions, targets = spec
    targets = np.asarray(targets)
    assume(np.ptp(targets) > 1e-3)
    return TrainingSet(standardized(sorted(positions)), targets)


@settings(max_examples=60, deadline=None)
@given(series,
       st.lists(st.sampled_from([0.5, 1.0, 10.0, 100.0, 1000.0]), min_size=1, max_size=3),
       st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=3))
def test_closed_form_matches_reference_on_drawn_series(spec, gammas, sigmas):
    ts = drawn_set(spec)
    grid = [(g, KernelSpec("rbf", s)) for g in gammas for s in sigmas]
    assert_matches_reference(ts, grid, atol_scale=1.0)


@settings(max_examples=40, deadline=None)
@given(series, st.sampled_from([0.5, 1.0, 10.0, 100.0, 1000.0]))
def test_closed_form_matches_reference_with_linear_kernel(spec, gamma):
    assert_matches_reference(drawn_set(spec), [(gamma, KernelSpec("linear"))], atol_scale=1.0)


@settings(max_examples=40, deadline=None)
@given(series, st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.sampled_from([1e-13, 1e-10, 1e-7]))
def test_selection_on_near_tied_grid_means(spec, sigma, nudge):
    """Two sigmas a relative nudge apart give near-equal mean errors.

    Where the reference's best mean beats every other by more than 1e-7
    relative the choice must be the same; inside that margin the two
    searches may break a numerical tie differently, but the closed form's
    choice must still be optimal to within the margin.
    """
    ts = drawn_set(spec)
    gamma_grid, sigma_grid = (10.0, 100.0), (sigma, sigma * (1.0 + nudge), 2.0 * sigma)
    grid = [(g, KernelSpec("rbf", s)) for g in gamma_grid for s in sigma_grid]
    assert_matches_reference(ts, grid, atol_scale=1.0)
    ref_means = np.array([reference_loo.loo_squared_errors(ts, g, k).mean() for g, k in grid])
    gamma, kernel, _ = select_hyperparameters(ts, gamma_grid, sigma_grid)
    chosen = grid.index((gamma, kernel))
    best = int(np.argmin(ref_means))
    others = np.delete(ref_means, best)
    if others.min() > ref_means[best] * (1.0 + 1e-7):
        assert chosen == best
    else:
        assert ref_means[chosen] <= ref_means[best] * (1.0 + 1e-7)


def test_exact_tie_keeps_earlier_grid_entry(monkeypatch):
    ts = training_set(np.arange(16.0) ** 2)
    # grid order is gamma-major: (1, .5), (1, 2), (10, .5), (10, 2)
    means = {"first": [3.0, 1.0, 2.0, 1.0], "all": [5.0, 5.0, 5.0, 5.0]}
    expected = {"first": (1.0, 2.0), "all": (1.0, 0.5)}
    for case, row_means in means.items():
        errors = np.repeat(np.array(row_means)[:, None], ts.m, axis=1)
        monkeypatch.setattr(lssvm, "_loo_grid", lambda ts, grid, errors=errors: errors)
        gamma, kernel, mse = select_hyperparameters(ts, (1.0, 10.0), (0.5, 2.0))
        assert (gamma, kernel.sigma) == expected[case]
        assert mse == min(row_means)


NEAR_DUPLICATES = TrainingSet(np.array([[0.0], [1.0], [1.0 + 1e-12], [2.0]]),
                              np.array([0.0, 1.0, 1.5, 3.0]))
DUPLICATES = TrainingSet(np.array([[0.0], [1.0], [1.0], [2.0]]),
                         np.array([0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("search", [
    lambda ts: loo_squared_errors(ts, 1e15, KernelSpec("rbf", 1.0)),
    lambda ts: loo_squared_errors(ts, 1e15, KernelSpec("linear")),
    lambda ts: select_hyperparameters(ts, (1.0, 1e15), (1.0,)),
], ids=["loo-rbf", "loo-linear", "select"])
def test_near_duplicates_with_huge_gamma_report_ill_conditioning(search):
    with pytest.warns(ConditioningWarning):
        try:
            result = search(NEAR_DUPLICATES)
        except NumericalError:
            return  # a failed solve is acceptable here; the warning must fire first
    errors = result if isinstance(result, np.ndarray) else np.array([result[2]])
    assert np.isfinite(errors).all()


@pytest.mark.parametrize("search", [
    lambda ts: loo_squared_errors(ts, 1e300, KernelSpec("rbf", 1.0)),
    lambda ts: loo_squared_errors(ts, 1e300, KernelSpec("linear")),
    lambda ts: select_hyperparameters(ts, (10.0, 1e300), (0.5, 1.0)),
], ids=["loo-rbf", "loo-linear", "select"])
def test_failed_solve_raises_numerical_error_not_nan(search):
    # Duplicate inputs with different targets and 1/gamma below rounding:
    # the KKT system is singular and inconsistent, so no solution exists.
    with pytest.warns(ConditioningWarning), pytest.raises(NumericalError, match="KKT solve failed"):
        search(DUPLICATES)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_grid_gamma_must_be_positive(bad):
    ts = training_set(np.arange(16.0) ** 2)
    with pytest.raises(InputError, match="gamma must be positive"):
        select_hyperparameters(ts, (1.0, bad), (1.0,))
    with pytest.raises(InputError, match="gamma must be positive"):
        loo_squared_errors(ts, bad, KernelSpec("rbf", 1.0))


def test_empty_grid_is_input_error():
    ts = training_set(np.arange(16.0) ** 2)
    with pytest.raises(InputError, match="empty"):
        select_hyperparameters(ts, (), (1.0,))
