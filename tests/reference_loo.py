"""Retrain-loop leave-one-out, kept as the reference for the closed form.

This is the LS-SVM leave-one-out the package used before the closed form:
one full KKT retrain per left-out sample, through the public
`train_regressor` and `predict`. It is slow (m solves per grid point, each
with its own condition check) but obviously right, so the tests hold the
closed form in `tunneltda.lssvm` to it.
"""

from __future__ import annotations

import numpy as np

from tunneltda.lssvm import KernelSpec, TrainingSet, predict, train_regressor


def loo_squared_errors(ts: TrainingSet, gamma: float, kernel: KernelSpec) -> np.ndarray:
    """Leave-one-out squared prediction errors, one per training sample."""
    errs = np.empty(ts.m)
    index = np.arange(ts.m)
    for i in range(ts.m):
        mask = index != i
        sub = TrainingSet(ts.inputs[mask], ts.targets[mask])
        model = train_regressor(sub, gamma, kernel)
        errs[i] = (predict(model, ts.inputs[i]) - ts.targets[i]) ** 2
    return errs


def select_hyperparameters(
    ts: TrainingSet,
    gamma_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0),
    sigma_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> tuple[float, KernelSpec, float]:
    """Grid search for the regressor: smallest mean LOO error wins.

    Ties keep the earlier grid entry, so the search is deterministic.
    Returns (gamma, kernel, loo_mse).
    """
    best = None
    for gamma in gamma_grid:
        for sigma in sigma_grid:
            kernel = KernelSpec("rbf", sigma)
            mse = float(loo_squared_errors(ts, gamma, kernel).mean())
            if best is None or mse < best[2]:
                best = (gamma, kernel, mse)
    return best
