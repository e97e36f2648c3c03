"""Least-squares SVM trained by solving its KKT optimality system directly.

Training reduces to one dense (m+1) x (m+1) linear solve: the bordered system

    [ 0   1^T          ] [ b ]   [ 0 ]
    [ 1   K + I/gamma  ] [ c ] = [ y ]

where K is the kernel Gram matrix. For regression the stored coefficients c
are the Lagrange multipliers themselves; for classification they absorb the
labels (c_i = alpha_i * y_i), so in both cases the bias row enforces the
optimality condition that the multipliers weighted by their labels sum to
zero, and prediction is sum_i c_i k(x_i, x) + b.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, InputError, NumericalError

CONDITION_WARN_THRESHOLD = 1e12
KKT_RESIDUAL_TOL = 1e-8  # relative to the right-hand side
# The (gamma, sigma) grid of the leave-one-out search.
GAMMA_GRID = (1.0, 10.0, 100.0, 1000.0)
SIGMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice: 'linear' dot product or 'rbf' with width sigma."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not (self.sigma is not None and self.sigma > 0):
            raise InputError("rbf kernel needs sigma > 0")


@dataclass(frozen=True)
class TrainingSet:
    inputs: np.ndarray   # (m, d)
    targets: np.ndarray  # (m,)

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float).ravel()
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if inputs.ndim != 2 or inputs.shape[0] != targets.shape[0]:
            raise InputError(
                f"inputs {inputs.shape} and targets {targets.shape} do not align"
            )
        if inputs.shape[0] < 2:
            raise InputError("need at least 2 training samples")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise InputError("training data must be finite")

    @property
    def m(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class LssvmModel:
    """Trained model: support coefficients, bias, and the data they refer to."""

    alphas: np.ndarray
    bias: float
    gamma: float
    kernel: KernelSpec
    inputs: np.ndarray
    classification: bool = False


def gram_matrix(kernel: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Kernel matrix k(x_i, z_j); symmetric PSD when X is Z."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if kernel.kind == "linear":
        return X @ Z.T
    return _rbf(_squared_distances(X, Z), kernel.sigma)


def _squared_distances(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    return ((X[:, None, :] - Z[None, :, :]) ** 2).sum(axis=-1)


def _rbf(sq: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-sq / (2.0 * sigma ** 2))


def _kkt_system(ts: TrainingSet, gamma: float, kernel: KernelSpec):
    m = ts.m
    K = gram_matrix(kernel, ts.inputs, ts.inputs)
    A = np.zeros((m + 1, m + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = K + np.eye(m) / gamma
    rhs = np.concatenate(([0.0], ts.targets))
    return A, rhs


def _solve(ts: TrainingSet, gamma: float, kernel: KernelSpec) -> tuple[float, np.ndarray]:
    if not gamma > 0:
        raise InputError(f"gamma must be positive, got {gamma}")
    A, rhs = _kkt_system(ts, gamma, kernel)
    cond = np.linalg.cond(A)
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"KKT system condition number {cond:.3g} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
            "solution may be inaccurate (near-duplicate inputs or extreme gamma)",
            ConditioningWarning,
        )
    try:
        z = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"KKT system is singular: {exc}") from exc
    residual = np.abs(A @ z - rhs).max() / max(1.0, np.abs(rhs).max())
    if not np.isfinite(z).all() or residual > KKT_RESIDUAL_TOL:
        raise NumericalError(
            f"KKT solve failed: relative residual {residual:.3g} (condition {cond:.3g})"
        )
    return float(z[0]), z[1:]


def train_classifier(ts: TrainingSet, gamma: float, kernel: KernelSpec) -> LssvmModel:
    """Train on labels in {-1, +1}; callers take the sign of predict()."""
    if not np.all(np.isin(ts.targets, (-1.0, 1.0))):
        raise InputError("classifier targets must be -1 or +1")
    bias, coeffs = _solve(ts, gamma, kernel)
    return LssvmModel(coeffs, bias, float(gamma), kernel, ts.inputs, classification=True)


def train_regressor(ts: TrainingSet, gamma: float, kernel: KernelSpec) -> LssvmModel:
    """Train on real-valued targets; interpolates them as gamma grows."""
    bias, coeffs = _solve(ts, gamma, kernel)
    return LssvmModel(coeffs, bias, float(gamma), kernel, ts.inputs, classification=False)


def predict(model: LssvmModel, x: np.ndarray) -> float:
    """Decision value at one input vector."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != model.inputs.shape[1]:
        raise InputError(
            f"input has dimension {x.shape[0]}, model was trained on {model.inputs.shape[1]}"
        )
    return float(predict_batch(model, x[None, :])[0])


def predict_batch(model: LssvmModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.inputs.shape[1]:
        raise InputError(
            f"inputs have dimension {X.shape[1]}, model was trained on {model.inputs.shape[1]}"
        )
    return gram_matrix(model.kernel, X, model.inputs) @ model.alphas + model.bias


def kkt_residual(model: LssvmModel, ts: TrainingSet) -> float:
    """Max-norm residual of the optimality system at the model's coefficients."""
    A, rhs = _kkt_system(ts, model.gamma, model.kernel)
    z = np.concatenate(([model.bias], model.alphas))
    return float(np.abs(A @ z - rhs).max())


def loo_squared_errors(ts: TrainingSet, gamma: float, kernel: KernelSpec) -> np.ndarray:
    """Leave-one-out squared prediction errors, one per training sample."""
    return _loo_grid(ts, [(gamma, kernel)])[0]


def _loo_grid(ts: TrainingSet, grid: list[tuple[float, KernelSpec]]) -> np.ndarray:
    """Exact leave-one-out squared errors for every (gamma, kernel) grid point.

    Leaving sample i out of an LS-SVM changes its prediction at x_i by
    exactly c_i / (A^-1)_ii, where A is the bordered KKT matrix of the full
    set and c its solution (Cawley & Talbot, Fast exact leave-one-out
    cross-validation of sparse least-squares support vector machines,
    Neural Networks 2004). So one factorisation per grid point replaces m
    retrains. The grid's matrices are stacked and share one eigh call,
    A = V diag(lam) V^T, which gives the 2-norm condition number
    max|lam| / min|lam|, the solution z = V diag(1/lam) V^T [0; y] and
    diag(A^-1) = (V * V) @ (1/lam).

    Each grid point, in grid order, gets the checks of _solve: gamma > 0,
    the conditioning warning and a finite solution with a small KKT
    residual. A zero or non-finite diagonal of A^-1 is a NumericalError
    too. Returns a (len(grid), m) array.
    """
    for gamma, _ in grid:
        if not gamma > 0:
            raise InputError(f"gamma must be positive, got {gamma}")
    if not grid:
        raise InputError("hyperparameter grid is empty")
    m = ts.m
    sq = _squared_distances(ts.inputs, ts.inputs)
    A = np.zeros((len(grid), m + 1, m + 1))
    A[:, 0, 1:] = 1.0
    A[:, 1:, 0] = 1.0
    grams = {}
    diag = np.arange(1, m + 1)
    for g, (gamma, kernel) in enumerate(grid):
        if kernel not in grams:
            grams[kernel] = (_rbf(sq, kernel.sigma) if kernel.kind == "rbf"
                             else gram_matrix(kernel, ts.inputs, ts.inputs))
        A[g, 1:, 1:] = grams[kernel]
        A[g, diag, diag] += 1.0 / gamma
    rhs = np.concatenate(([0.0], ts.targets))
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"KKT eigendecomposition failed: {exc}") from exc
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_lam = 1.0 / lam
        z = V @ (inv_lam * (rhs @ V))[:, :, None]
        inv_diag = ((V[:, 1:, :] ** 2) @ inv_lam[:, :, None])[:, :, 0]
        errs = (z[:, 1:, 0] / inv_diag) ** 2
        abs_lam = np.abs(lam)
        cond = abs_lam.max(axis=1) / abs_lam.min(axis=1)
        residual = (np.abs(A @ z - rhs[:, None]).max(axis=(1, 2))
                    / max(1.0, np.abs(rhs).max()))
    for g, (gamma, kernel) in enumerate(grid):
        if cond[g] > CONDITION_WARN_THRESHOLD:
            warnings.warn(
                f"KKT system condition number {cond[g]:.3g} exceeds "
                f"{CONDITION_WARN_THRESHOLD:.0e} at {_describe(gamma, kernel)}; leave-one-out "
                "errors may be inaccurate (near-duplicate inputs or extreme gamma)",
                ConditioningWarning,
            )
        if not np.isfinite(z[g]).all() or residual[g] > KKT_RESIDUAL_TOL:
            raise NumericalError(
                f"KKT solve failed at {_describe(gamma, kernel)}: relative residual "
                f"{residual[g]:.3g} (condition {cond[g]:.3g})"
            )
        if not np.isfinite(errs[g]).all():  # c_i / (A^-1)_ii with a zero or non-finite diagonal
            raise NumericalError(
                f"leave-one-out failed at {_describe(gamma, kernel)}: the diagonal of the "
                f"inverse KKT matrix is zero or not finite (condition {cond[g]:.3g})"
            )
    return errs


def _describe(gamma: float, kernel: KernelSpec) -> str:
    sigma = f" sigma={kernel.sigma:g}" if kernel.kind == "rbf" else ""
    return f"gamma={gamma:g}, {kernel.kind} kernel{sigma}"


def select_hyperparameters(
    ts: TrainingSet,
    gamma_grid: tuple[float, ...] = GAMMA_GRID,
    sigma_grid: tuple[float, ...] = SIGMA_GRID,
) -> tuple[float, KernelSpec, float]:
    """Grid search for the regressor: smallest mean LOO error wins.

    Ties keep the earlier grid entry (gamma-major, then sigma), so the
    search is deterministic. Returns (gamma, kernel, loo_mse).
    """
    grid = [(gamma, KernelSpec("rbf", sigma)) for gamma in gamma_grid for sigma in sigma_grid]
    mses = _loo_grid(ts, grid).mean(axis=1)
    best = int(np.argmin(mses))  # the first of equal minima
    gamma, kernel = grid[best]
    return gamma, kernel, float(mses[best])
