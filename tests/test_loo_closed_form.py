"""Closed-form LS-SVM leave-one-out against the retrain-loop reference.

`tunneltda.lssvm` computes every grid point's leave-one-out errors from one
eigendecomposition per distinct kernel, shared by every gamma through the
Schur complement of the bias border; `reference_loo` retrains once per
left-out sample. They must agree within 1e-8 relative on the published
fixture series, on synthetic scenarios' feature columns, on hypothesis-drawn
series and on grids that repeat and mix kernels, and the grid search must
pick the same (gamma, sigma). The error contract of the solve (conditioning
warning, NumericalError instead of NaN, gamma > 0) must hold on the grid path
too, and the condition bound that decides which grid points get an exact
condition number must never fall below that exact number.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tunneltda import dataio, features, lssvm, pipeline
from tunneltda.errors import ConditioningWarning, InputError, NumericalError
from tunneltda.lssvm import (KernelSpec, TrainingSet, _kkt_system, _loo_factored,
                             loo_squared_errors, select_hyperparameters)
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


def select_on_grid(ts, gamma_grid, sigma_grid):
    """select_hyperparameters with GAMMA_GRID and SIGMA_GRID replaced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lssvm, "GAMMA_GRID", gamma_grid)
        mp.setattr(lssvm, "SIGMA_GRID", sigma_grid)
        return select_hyperparameters(ts)


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
    [(gamma, kernel, mse)] = select_hyperparameters(ts)
    ref_gamma, ref_kernel, ref_mse = reference_loo.select_hyperparameters(ts)
    assert (gamma, kernel) == (ref_gamma, ref_kernel)
    assert mse == pytest.approx(ref_mse, rel=1e-8)


@pytest.mark.parametrize("feature", [2, 8, 14])
def test_closed_form_matches_reference_on_fixture_series(feature):
    _, t6 = dataio.fixtures()
    ts = training_set(t6.features[feature].y)
    assert_matches_reference(ts, PIPELINE_GRID)
    assert_same_selection(ts)


def scenario_matrix(seed: int) -> np.ndarray:
    seq = generate_sequence(ScenarioConfig(seed=seed))
    barcodes = pipeline.compute_barcodes(seq, DEFAULT_MAX_FILTRATION)
    return features.feature_matrix(features.feature_series(barcodes))


@pytest.fixture(scope="module")
def seed7_matrix():
    return scenario_matrix(7)


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


@pytest.mark.parametrize("seed", range(6))
def test_selection_matches_reference_on_scenario_seeds(seed):
    matrix = scenario_matrix(seed)
    searched = 0
    for feature in pipeline.EXPERIMENT_FEATURES:
        ts = training_set(matrix[:, feature - 1])
        if np.ptp(ts.targets) > 0:
            assert_same_selection(ts)
            searched += 1
    assert searched


def test_grid_with_repeated_and_mixed_kernels_matches_reference():
    _, t6 = dataio.fixtures()
    ts = training_set(t6.features[8].y)
    grid = [(10.0, KernelSpec("rbf", 1.0)), (1.0, KernelSpec("linear")),
            (100.0, KernelSpec("rbf", 0.5)), (1000.0, KernelSpec("rbf", 1.0)),
            (10.0, KernelSpec("linear")), (1.0, KernelSpec("rbf", 0.5)),
            (10.0, KernelSpec("rbf", 1.0))]
    assert_matches_reference(ts, grid)


def exact_condition(ts, gamma, kernel) -> float:
    """2-norm condition number of the bordered KKT matrix, from its eigenvalues."""
    lam = np.abs(np.linalg.eigvalsh(_kkt_system(ts, gamma, kernel)[0]))
    with np.errstate(divide="ignore"):
        return lam.max() / lam.min()


def test_threshold_between_exact_condition_and_bound_gives_no_warning(monkeypatch):
    _, t6 = dataio.fixtures()
    ts = training_set(t6.features[8].y)
    exact = np.array([exact_condition(ts, g, k) for g, k in PIPELINE_GRID])
    _, _, bound = _loo_factored(ts, PIPELINE_GRID)
    worst = int(np.argmax(exact))
    assert np.all(np.delete(exact, worst) < exact[worst] * (1.0 - 1e-6))
    assert exact[worst] < bound[worst] * (1.0 - 1e-6)
    expected = select_hyperparameters(ts)

    monkeypatch.setattr(lssvm, "CONDITION_WARN_THRESHOLD", np.sqrt(exact[worst] * bound[worst]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        assert select_hyperparameters(ts) == expected

    monkeypatch.setattr(lssvm, "CONDITION_WARN_THRESHOLD", exact[worst] * (1.0 - 1e-6))
    with pytest.warns(ConditioningWarning) as record:
        assert select_hyperparameters(ts) == expected
    assert len(record) == 1
    message = str(record[0].message)
    gamma, kernel = PIPELINE_GRID[worst]
    assert f"condition number {exact[worst]:.3g} exceeds" in message
    assert f"gamma={gamma:g}, rbf kernel sigma={kernel.sigma:g}" in message


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
    [(gamma, kernel, _)] = select_on_grid(ts, gamma_grid, sigma_grid)
    chosen = grid.index((gamma, kernel))
    best = int(np.argmin(ref_means))
    others = np.delete(ref_means, best)
    if others.min() > ref_means[best] * (1.0 + 1e-7):
        assert chosen == best
    else:
        assert ref_means[chosen] <= ref_means[best] * (1.0 + 1e-7)


@settings(max_examples=60, deadline=None)
@given(series, st.sampled_from([0.0, 1e-4, 1e-8, 1e-12]),
       st.lists(st.sampled_from([0.5, 10.0, 1e3, 1e6, 1e9, 1e12, 1e15]), min_size=1, max_size=4),
       st.lists(st.sampled_from([0.25, 1.0, 4.0]), min_size=1, max_size=2))
def test_condition_bound_is_never_below_exact_condition(spec, gap, gammas, sigmas):
    ts = drawn_set(spec)
    if gap:  # move the second input next to the first
        inputs = ts.inputs.copy()
        inputs[1] = inputs[0] + gap
        ts = TrainingSet(inputs, ts.targets)
    kernels = [KernelSpec("rbf", s) for s in sigmas] + [KernelSpec("linear")]
    grid = [(g, k) for g in gammas for k in kernels]
    _, _, bound = _loo_factored(ts, grid)
    for (gamma, kernel), b in zip(grid, bound):
        assert not np.isfinite(b) or b >= exact_condition(ts, gamma, kernel), (gamma, kernel)


def test_exact_tie_keeps_earlier_grid_entry(monkeypatch):
    ts = training_set(np.arange(16.0) ** 2)
    # grid order is gamma-major: (1, .5), (1, 2), (10, .5), (10, 2)
    means = {"first": [3.0, 1.0, 2.0, 1.0], "all": [5.0, 5.0, 5.0, 5.0]}
    expected = {"first": (1.0, 2.0), "all": (1.0, 0.5)}
    for case, row_means in means.items():
        errors = np.repeat(np.array(row_means)[:, None], ts.m, axis=1)
        monkeypatch.setattr(lssvm, "_loo_grid", lambda ts, grid, errors=errors: errors)
        [(gamma, kernel, mse)] = select_on_grid(ts, (1.0, 10.0), (0.5, 2.0))
        assert (gamma, kernel.sigma) == expected[case]
        assert mse == min(row_means)


NEAR_DUPLICATES = TrainingSet(np.array([[0.0], [1.0], [1.0 + 1e-12], [2.0]]),
                              np.array([0.0, 1.0, 1.5, 3.0]))
DUPLICATES = TrainingSet(np.array([[0.0], [1.0], [1.0], [2.0]]),
                         np.array([0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("search", [
    lambda ts: loo_squared_errors(ts, 1e15, KernelSpec("rbf", 1.0)),
    lambda ts: loo_squared_errors(ts, 1e15, KernelSpec("linear")),
    lambda ts: select_on_grid(ts, (1.0, 1e15), (1.0,))[0],
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
    lambda ts: select_on_grid(ts, (10.0, 1e300), (0.5, 1.0)),
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
        select_on_grid(ts, (1.0, bad), (1.0,))
    with pytest.raises(InputError, match="gamma must be positive"):
        loo_squared_errors(ts, bad, KernelSpec("rbf", 1.0))


# ---------------------------------------------------------------------------
# one search for several target columns

columns = st.integers(4, 20).flatmap(lambda m: st.lists(
    st.lists(st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
             min_size=m, max_size=m),
    min_size=1, max_size=4))


@settings(max_examples=30, deadline=None)
@given(columns)
def test_shared_search_matches_each_column_searched_alone(cols):
    """Each column's errors equal its own search's within 1e-10 relative to
    the error, or to the grid point's largest error where one sample's error
    is ~1e-12 of the rest and c_i has cancelled: the two searches round
    their matrix products in different shapes."""
    Y = np.array(cols).T  # (m, k)
    assume(np.all(np.ptp(Y, axis=0) > 1e-3))
    xs = standardized(np.arange(len(Y)))
    shared = TrainingSet(xs, Y)
    errs = lssvm._loo_grid(shared, PIPELINE_GRID)
    assert errs.shape == (len(PIPELINE_GRID),) + Y.shape
    picks = select_hyperparameters(shared)
    assert len(picks) == Y.shape[1]
    for j, (gamma, kernel, mse) in enumerate(picks):
        alone = TrainingSet(xs, Y[:, j])
        for row, single in zip(errs[:, :, j], lssvm._loo_grid(alone, PIPELINE_GRID)):
            np.testing.assert_allclose(row, single, rtol=1e-10, atol=1e-10 * single.max(),
                                       err_msg=f"column {j}")
        ref_gamma, ref_kernel, ref_mse = reference_loo.select_hyperparameters(alone)
        assert (gamma, kernel) == (ref_gamma, ref_kernel), f"column {j}"
        assert mse == pytest.approx(ref_mse, rel=1e-8)


def test_constant_column_takes_flat_model_outside_the_search(monkeypatch):
    _, t6 = dataio.fixtures()
    series = {2: t6.features[2].y, 13: np.full(21, 42.0), 8: t6.features[8].y}
    searched = []
    search = lssvm.select_hyperparameters

    def recording(ts, *args):
        searched.append(ts.targets.copy())
        return search(ts, *args)

    monkeypatch.setattr(lssvm, "select_hyperparameters", recording)
    reports, predictors = pipeline.run_feature_experiment(series, dict.fromkeys(series))
    assert len(searched) == 1
    train = slice(0, pipeline.DEFAULT_SPLIT + 1)
    np.testing.assert_array_equal(
        searched[0], np.column_stack([series[2][train], series[8][train]]))
    assert np.all(predictors[13].model.alphas == 0.0)
    assert predictors[13].model.bias == 42.0
    assert set(reports[13].predictions.values()) == {42.0}
    for k in (2, 8):
        [(gamma, kernel, _)] = select_hyperparameters(training_set(series[k]))
        assert (predictors[k].model.gamma, predictors[k].model.kernel) == (gamma, kernel)


def test_shared_search_warns_once_per_grid_point(monkeypatch):
    _, t6 = dataio.fixtures()
    cols = [training_set(t6.features[k].y).targets for k in (2, 8, 14)]
    ts = TrainingSet(training_set(cols[0]).inputs, np.column_stack(cols))
    exact = np.array([exact_condition(ts, g, k) for g, k in PIPELINE_GRID])
    threshold = np.median(exact)
    offending = [PIPELINE_GRID[g] for g in np.flatnonzero(exact > threshold)]
    assert 0 < len(offending) < len(PIPELINE_GRID)
    expected = select_hyperparameters(ts)

    monkeypatch.setattr(lssvm, "CONDITION_WARN_THRESHOLD", threshold)
    with pytest.warns(ConditioningWarning) as record:
        assert select_hyperparameters(ts) == expected
    assert len(record) == len(offending)
    for w, (gamma, kernel) in zip(record, offending):
        assert f"gamma={gamma:g}, rbf kernel sigma={kernel.sigma:g};" in str(w.message)
