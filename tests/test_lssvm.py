import numpy as np
import pytest

from tunneltda.errors import ConditioningWarning, InputError, NumericalError
from tunneltda.lssvm import (KernelSpec, LssvmModel, TrainingSet, gram_matrix,
                             kkt_residual, loo_squared_errors, predict, predict_batch,
                             select_hyperparameters, train_classifier, train_regressor)

LINEAR = KernelSpec("linear")


def two_point_classifier(gamma=10.0):
    ts = TrainingSet(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
    return ts, train_classifier(ts, gamma, LINEAR)


def test_two_point_classifier_symmetry():
    ts, model = two_point_classifier()
    assert model.alphas[0] == pytest.approx(-model.alphas[1], abs=1e-12)
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    for x, y in zip(ts.inputs, ts.targets):
        assert np.sign(predict(model, x)) == y
    assert predict(model, np.array([0.0])) == pytest.approx(0.0, abs=1e-12)


def test_two_point_classifier_matches_hand_solution():
    # separable symmetric pair: coefficients work out to +/- gamma/(2 gamma + 1)... 10/21
    _, model = two_point_classifier(gamma=10.0)
    assert abs(model.alphas[1]) == pytest.approx(10.0 / 21.0, abs=1e-12)


def test_label_weighted_multipliers_sum_to_zero():
    rng = np.random.default_rng(3)
    for kernel in (LINEAR, KernelSpec("rbf", 1.5)):
        X = rng.normal(size=(12, 2))
        y = np.sign(rng.normal(size=12)) + 0.0
        y[y == 0] = 1.0
        model = train_classifier(TrainingSet(X, y), 50.0, kernel)
        # stored coefficients are label-weighted, so this is sum_i alpha_i y_i
        assert abs(model.alphas.sum()) <= 1e-10


def test_regressor_multipliers_sum_to_zero():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 1))
    y = rng.normal(size=10)
    model = train_regressor(TrainingSet(X, y), 100.0, KernelSpec("rbf", 1.0))
    assert abs(model.alphas.sum()) <= 1e-10


def test_kkt_residual_small_after_training():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    for gamma in (1.0, 10.0, 1000.0):
        ts = TrainingSet(X, y)
        model = train_regressor(ts, gamma, KernelSpec("rbf", 2.0))
        assert kkt_residual(model, ts) <= 1e-8


def test_kkt_residual_detects_perturbation():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(8, 2))
    y = rng.normal(size=8)
    ts = TrainingSet(X, y)
    model = train_regressor(ts, 10.0, KernelSpec("rbf", 1.0))
    bad = np.array(model.alphas)
    bad[3] += 0.1
    perturbed = LssvmModel(bad, model.bias, model.gamma, model.kernel, model.inputs)
    assert kkt_residual(perturbed, ts) > 1e-3


def test_regression_interpolates_collinear_data():
    X = np.array([[0.0], [1.0], [2.0]])
    y = 2.0 * X.ravel() + 1.0
    model = train_regressor(TrainingSet(X, y), 1e6, LINEAR)
    for x, target in zip(X, y):
        assert predict(model, x) == pytest.approx(target, abs=1e-4)


def test_constant_targets_give_flat_model():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.full(4, 5.5)
    model = train_regressor(TrainingSet(X, y), 1e6, KernelSpec("rbf", 1.0))
    assert model.bias == pytest.approx(5.5, abs=1e-6)
    assert np.abs(model.alphas).max() <= 1e-6
    assert predict(model, np.array([1.5])) == pytest.approx(5.5, abs=1e-5)


def test_rbf_prediction_far_from_data_tends_to_bias():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(9, 1))
    y = rng.normal(size=9)
    model = train_regressor(TrainingSet(X, y), 100.0, KernelSpec("rbf", 0.5))
    assert predict(model, np.array([500.0])) == pytest.approx(model.bias, abs=1e-12)


def test_training_error_nonincreasing_in_gamma():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 1))
    y = np.sin(X.ravel())
    ts = TrainingSet(X, y)
    errors = []
    for gamma in (1.0, 10.0, 100.0, 1000.0):
        model = train_regressor(ts, gamma, KernelSpec("rbf", 1.0))
        resid = y - predict_batch(model, X)
        errors.append(float(resid @ resid))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))


def test_gram_matrix_is_psd():
    rng = np.random.default_rng(9)
    for kernel in (LINEAR, KernelSpec("rbf", 0.7)):
        X = rng.normal(size=(12, 3))
        K = gram_matrix(kernel, X, X)
        assert np.allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-9


def test_prediction_invariant_under_sample_permutation():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(11, 2))
    y = rng.normal(size=11)
    perm = rng.permutation(11)
    a = train_regressor(TrainingSet(X, y), 10.0, KernelSpec("rbf", 1.0))
    b = train_regressor(TrainingSet(X[perm], y[perm]), 10.0, KernelSpec("rbf", 1.0))
    queries = rng.normal(size=(5, 2))
    assert np.allclose(predict_batch(a, queries), predict_batch(b, queries), atol=1e-9)


def test_duplicate_points_with_huge_gamma_report_ill_conditioning():
    ts = TrainingSet(np.array([[1.0], [1.0]]), np.array([-1.0, 1.0]))
    with pytest.warns(ConditioningWarning):
        try:
            train_classifier(ts, 1e15, LINEAR)
        except NumericalError:
            pass  # a failed solve is acceptable here; the warning must fire first


def test_training_warning_names_its_point_and_matches_the_search():
    # training and the leave-one-out search take the KKT condition number
    # the same way, so at one grid point they report one number
    ts = TrainingSet(np.array([[1.0], [1.0]]), np.array([-1.0, 1.0]))
    numbers = []
    for run in (train_regressor, loo_squared_errors):
        with pytest.warns(ConditioningWarning) as record:
            run(ts, 1e15, LINEAR)
        assert len(record) == 1
        message = str(record[0].message)
        assert "exceeds 1e+12 at gamma=1e+15, linear kernel;" in message
        numbers.append(message.split("condition number ")[1].split()[0])
    assert numbers[0] == numbers[1]


@pytest.mark.parametrize("inputs, gamma, kernel, message", [
    ([1.0, 1.0 + 1e-9, 2.0], 1e15, LINEAR, "KKT solve failed at gamma=1e+15, linear kernel: "),
    ([0.0, 1.0, 1.0, 2.0], 1e300, KernelSpec("rbf", 1.0),
     "KKT system is singular at gamma=1e+300, rbf kernel sigma=1: "),
], ids=["residual", "singular"])
def test_training_failure_names_its_point(inputs, gamma, kernel, message):
    # in the wording of the search's NumericalError at the same point
    ts = TrainingSet(np.array(inputs)[:, None], np.arange(len(inputs), dtype=float))
    with pytest.warns(ConditioningWarning), pytest.raises(NumericalError) as exc:
        train_regressor(ts, gamma, kernel)
    assert str(exc.value).startswith(message)


def test_classifier_rejects_non_binary_targets():
    ts = TrainingSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        train_classifier(ts, 10.0, LINEAR)


def test_predict_rejects_dimension_mismatch():
    _, model = two_point_classifier()
    with pytest.raises(InputError):
        predict(model, np.array([1.0, 2.0]))


def test_gamma_must_be_positive():
    ts = TrainingSet(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        train_regressor(ts, 0.0, LINEAR)


def test_training_rejects_several_target_columns():
    # (m, k) targets serve only the leave-one-out search
    ts = TrainingSet(np.array([[0.0], [1.0], [2.0]]), np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]))
    with pytest.raises(InputError, match="one target series"):
        train_regressor(ts, 10.0, LINEAR)


def test_kernel_spec_validation():
    with pytest.raises(InputError):
        KernelSpec("poly")
    with pytest.raises(InputError):
        KernelSpec("rbf", 0.0)


def test_loo_errors_shape_and_selection_determinism():
    rng = np.random.default_rng(12)
    X = np.arange(10, dtype=float)[:, None]
    y = np.cos(X.ravel() / 3.0)
    ts = TrainingSet(X, y)
    errs = loo_squared_errors(ts, 10.0, KernelSpec("rbf", 1.0))
    assert errs.shape == (10,)
    assert np.all(errs >= 0)
    first = select_hyperparameters(ts)
    second = select_hyperparameters(ts)
    assert first == second
