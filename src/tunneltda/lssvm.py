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
    """Inputs and targets: one series (m,), or k series (m, k) that share the
    inputs, which only the leave-one-out search takes."""

    inputs: np.ndarray   # (m, d)
    targets: np.ndarray  # (m,) or (m, k)

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float)
        if targets.ndim != 2:
            targets = targets.ravel()
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
    rhs = np.insert(ts.targets, 0, 0.0, axis=0)
    return A, rhs


def _condition_number(A: np.ndarray, where: str, what: str) -> float:
    """Exact 2-norm condition number of the symmetric KKT matrix A,
    max|lambda| / min|lambda| over its eigenvalues. Above the threshold it
    warns that what, computed at where, may be inaccurate."""
    try:
        lam = np.abs(np.linalg.eigvalsh(A))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"KKT eigendecomposition failed at {where}: {exc}") from exc
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max() / lam.min()
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"KKT system condition number {cond:.3g} exceeds {CONDITION_WARN_THRESHOLD:.0e} "
            f"at {where}; {what} may be inaccurate (near-duplicate inputs or extreme gamma)",
            ConditioningWarning,
        )
    return cond


def _describe(gamma: float, kernel: KernelSpec) -> str:
    sigma = f" sigma={kernel.sigma:g}" if kernel.kind == "rbf" else ""
    return f"gamma={gamma:g}, {kernel.kind} kernel{sigma}"


def _solve(ts: TrainingSet, gamma: float, kernel: KernelSpec) -> tuple[float, np.ndarray]:
    if not gamma > 0:
        raise InputError(f"gamma must be positive, got {gamma}")
    if ts.targets.ndim != 1:
        raise InputError(f"training takes one target series, got shape {ts.targets.shape}")
    A, rhs = _kkt_system(ts, gamma, kernel)
    where = _describe(gamma, kernel)
    cond = _condition_number(A, where, "the solution")
    try:
        z = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"KKT system is singular at {where}: {exc}") from exc
    residual = np.abs(A @ z - rhs).max() / max(1.0, np.abs(rhs).max())
    if not np.isfinite(z).all() or residual > KKT_RESIDUAL_TOL:
        raise NumericalError(
            f"KKT solve failed at {where}: relative residual {residual:.3g} "
            f"(condition {cond:.3g})")
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
    return float(predict_batch(model, np.asarray(x, dtype=float).ravel()[None, :])[0])


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
    """Leave-one-out squared prediction errors, one per training sample and
    target column (the shape of ts.targets)."""
    return _loo_grid(ts, [(gamma, kernel)])[0]


def _loo_grid(ts: TrainingSet, grid: list[tuple[float, KernelSpec]]) -> np.ndarray:
    """Exact leave-one-out squared errors for every (gamma, kernel) grid point
    and every target column.

    Leaving sample i out of an LS-SVM changes its prediction at x_i by
    exactly c_i / (A^-1)_ii, where A is the bordered KKT matrix of the full
    set and z = [b; c] its solution (Cawley & Talbot, Fast exact
    leave-one-out cross-validation of sparse least-squares support vector
    machines, Neural Networks 2004). So no model is retrained. A depends on
    the inputs alone, so _loo_factored gets the errors of all k columns at
    every grid point from one eigendecomposition per distinct kernel, along
    with one upper bound per point on its condition number.

    Each grid point gets the checks of _solve: gamma > 0, the conditioning
    warning and, per column, a finite solution with a small KKT residual; a
    zero or non-finite diagonal of A^-1 is a NumericalError too. A point
    whose bound is not within the conditioning threshold, or that fails a
    check in some column, gets the exact condition number of its own
    bordered matrix from _condition_number, as training does. Then, in grid
    order, the point warns once if that number exceeds the threshold,
    whatever k is, and raises for the first column that failed a check; the
    NumericalError names that column, also in its `column` attribute.
    Returns an array of shape (len(grid),) + ts.targets.shape.
    """
    for gamma, _ in grid:
        if not gamma > 0:
            raise InputError(f"gamma must be positive, got {gamma}")
    errs, residual, bound = _loo_factored(ts, grid)
    solved = residual <= KKT_RESIDUAL_TOL  # false for a non-finite solution too
    ok = solved & np.isfinite(errs).all(axis=1)
    for g in np.flatnonzero(~(bound <= CONDITION_WARN_THRESHOLD) | ~ok.all(axis=1)):
        gamma, kernel = grid[g]
        cond = _condition_number(_kkt_system(ts, gamma, kernel)[0], _describe(gamma, kernel),
                                 "leave-one-out errors")
        failed = np.flatnonzero(~ok[g])
        if failed.size:
            j = int(failed[0])
            where = f"{_describe(gamma, kernel)}, target column {j}"
            if not solved[g, j]:
                raise NumericalError(
                    f"KKT solve failed at {where}: relative residual "
                    f"{residual[g, j]:.3g} (condition {cond:.3g})", column=j)
            # c_i / (A^-1)_ii with a zero or non-finite diagonal
            raise NumericalError(
                f"leave-one-out failed at {where}: the diagonal of the inverse KKT "
                f"matrix is zero or not finite (condition {cond:.3g})", column=j)
    return errs.reshape((len(grid),) + ts.targets.shape)


def _loo_factored(ts: TrainingSet, grid: list[tuple[float, KernelSpec]]):
    """Per grid point, with the targets taken as k columns Y (m, k): squared
    LOO errors (len(grid), m, k), relative KKT residuals (len(grid), k) and
    an upper bound on the condition number (len(grid),).

    Each distinct kernel is factored once, K = U diag(mu) U^T, in one
    stacked eigh call. For a gamma, H = K + I/gamma = U diag(d) U^T with
    d = mu + 1/gamma, and the bias border is eliminated by its Schur
    complement -1^T H^-1 1:

        eta = H^-1 1,  s = 1^T eta,  b = 1^T H^-1 y / s,  c = H^-1 (y - b 1),
        diag(A^-1)[1:] = diag(H^-1) - eta^2 / s.

    Only U^T y, b, c, the errors and the residual depend on a column y; the
    kernels, their factors, d, eta, s, diag(A^-1) and the bound are computed
    once for all k columns.

    A^-1 = [[-1/s, eta^T/s], [eta/s, 0]] + diag(0, H^-1 - eta eta^T / s), so
    the Frobenius norms of its parts bound the 2-norm condition number:

        cond(A) <= ||A||_F (sqrt(1 + 2 ||eta||^2) / s + ||H^-1||_F + ||eta||^2 / s).

    Where the smallest d is within 1e3 m eps ||K|| of zero the computed d
    are too inexact to bound anything, and the bound is infinite.
    """
    m = ts.m
    X, Y = ts.inputs, ts.targets.reshape(m, -1)
    slots: dict[KernelSpec, int] = {}
    which = np.array([slots.setdefault(kernel, len(slots)) for _, kernel in grid])
    K = np.stack([gram_matrix(k, X, X) for k in slots])
    try:
        mu, U = np.linalg.eigh(K)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"kernel eigendecomposition failed: {exc}") from exc
    inv_gamma = 1.0 / np.array([gamma for gamma, _ in grid])
    Kg, Ug = K[which], U[which]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = mu[which] + inv_gamma[:, None]
        inv_d = 1.0 / d
        # eta = H^-1 1 and H^-1 Y, through U^T [1, Y] once per kernel
        ones_y = np.swapaxes(U, 1, 2) @ np.column_stack((np.ones(m), Y))
        hz = Ug @ (inv_d[:, :, None] * ones_y[which])
        eta, hy = hz[:, :, 0], hz[:, :, 1:]
        s = eta.sum(axis=1)
        b = hy.sum(axis=1) / s[:, None]
        c = hy - b[:, None, :] * eta[:, :, None]
        inv_diag = ((Ug * Ug) @ inv_d[:, :, None])[:, :, 0] - eta ** 2 / s[:, None]
        errs = (c / inv_diag[:, :, None]) ** 2
        Hc = Kg @ c + c * inv_gamma[:, None, None]
        residual = np.maximum(np.abs(c.sum(axis=1)), np.abs(b[:, None, :] + Hc - Y).max(axis=1))
        residual /= np.maximum(1.0, np.abs(Y).max(axis=0))
        eta2 = (eta ** 2).sum(axis=1)
        K_sq, K_tr = (K * K).sum(axis=(1, 2))[which], np.trace(K, axis1=1, axis2=2)[which]
        norm_A = np.sqrt(2 * m + K_sq + (2.0 * K_tr + m * inv_gamma) * inv_gamma)
        bound = norm_A * (np.sqrt(1.0 + 2.0 * eta2) / s + np.sqrt((inv_d ** 2).sum(axis=1))
                          + eta2 / s)
    noise = 1e3 * m * np.finfo(float).eps * np.abs(mu).max(axis=1)[which]
    bound[~(d.min(axis=1) > noise)] = np.inf
    return errs, residual, bound


def select_hyperparameters(ts: TrainingSet) -> list[tuple[float, KernelSpec, float]]:
    """Grid search for the regressor over GAMMA_GRID x SIGMA_GRID: smallest
    mean LOO error wins, per target column.

    Ties keep the earlier grid entry (gamma-major, then sigma), so the
    search is deterministic. All columns share one leave-one-out search
    (_loo_grid), so k series that train on the same inputs cost one kernel
    factorisation, not k. Returns one (gamma, kernel, loo_mse) per target
    column, a single series being one column.
    """
    grid = [(gamma, KernelSpec("rbf", sigma)) for gamma in GAMMA_GRID for sigma in SIGMA_GRID]
    mses = _loo_grid(ts, grid).mean(axis=1).reshape(len(grid), -1)
    # argmin takes the first of equal minima
    return [(*grid[g], float(mses[g, j])) for j, g in enumerate(np.argmin(mses, axis=0))]
