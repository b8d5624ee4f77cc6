"""Ordinary alpha-regression quantile via an exact check-loss LP.

The fit minimizes ``sum_i rho_alpha(y_i - b0 - x_i'b)`` exactly.  The LP uses
the standard split of residuals into positive and negative parts and a
deterministic Bland-rule simplex, so repeated fits return the same vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError
from .model import Dataset, check_loss_vec
from .simplex import solve_simplex

OBJECTIVE_RTOL = 1e-8
RESIDUAL_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class QuantileFit:
    """Regression quantile at a single level.

    ``beta0_hat`` is the intercept, ``beta_hat`` the p slope estimates,
    ``objective`` the attained check-loss sum and ``n_active`` the number of
    exactly-fit observations at the returned vertex.
    """

    alpha: float
    beta0_hat: float
    beta_hat: np.ndarray
    objective: float
    n_active: int


def _augmented_design(ds: Dataset) -> np.ndarray:
    return np.hstack([np.ones((ds.n, 1)), ds.x])


def fit_regression_quantile(ds: Dataset, alpha: float) -> QuantileFit:
    """Global minimizer of the check-loss objective over intercept and slopes.

    Raises :class:`IdentifiabilityError` when the augmented design (1, X) is
    rank deficient.  With non-unique optima the deterministic pivoting rule
    selects a reproducible vertex.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    a_design = _augmented_design(ds)
    n, q = a_design.shape
    if np.linalg.matrix_rank(a_design) < q:
        raise IdentifiabilityError("augmented design (1, X) is rank deficient")

    # Variables: [b+ (q), b- (q), u (n), v (n)]; constraints A b + u - v = y.
    nvars = 2 * q + 2 * n
    amat = np.zeros((n, nvars))
    amat[:, :q] = a_design
    amat[:, q:2 * q] = -a_design
    rows = np.arange(n)
    amat[rows, 2 * q + rows] = 1.0
    amat[rows, 2 * q + n + rows] = -1.0
    c = np.concatenate([np.zeros(2 * q), np.full(n, alpha), np.full(n, 1.0 - alpha)])

    b = ds.y.copy()
    basis = []
    for i in range(n):
        if b[i] >= 0.0:
            basis.append(2 * q + i)          # u_i basic
        else:
            basis.append(2 * q + n + i)      # v_i basic; normalize the row
            amat[i] = -amat[i]
            b[i] = -b[i]

    x, _ = solve_simplex(c, amat, b, basis)
    coef = x[:q] - x[q:2 * q]
    coef = _polish_vertex(ds, alpha, a_design, coef)
    residuals = ds.y - a_design @ coef
    objective = float(np.sum(check_loss_vec(residuals, alpha)))
    scale = float(np.max(np.abs(residuals))) if n else 1.0
    n_active = int(np.sum(np.abs(residuals) <= RESIDUAL_ZERO_TOL * (1.0 + scale)))
    return QuantileFit(
        alpha=alpha,
        beta0_hat=float(coef[0]),
        beta_hat=coef[1:].copy(),
        objective=objective,
        n_active=n_active,
    )


def _polish_vertex(ds: Dataset, alpha: float, a_design: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """Re-solve the vertex from the original data to remove pivoting roundoff.

    An optimal vertex interpolates p + 1 observations; solving that
    interpolation system directly recovers the coefficients to machine
    precision (for p = 0, the exact order statistic).  The polished point is
    kept only when it does not worsen the objective.
    """
    q = a_design.shape[1]
    residuals = ds.y - a_design @ coef
    active = np.argsort(np.abs(residuals), kind="stable")[:q]
    sub = a_design[active]
    if np.linalg.matrix_rank(sub) < q:
        return coef
    polished = np.linalg.solve(sub, ds.y[active])
    obj_old = float(np.sum(check_loss_vec(residuals, alpha)))
    obj_new = float(np.sum(check_loss_vec(ds.y - a_design @ polished, alpha)))
    if obj_new <= obj_old + OBJECTIVE_RTOL * (1.0 + abs(obj_old)):
        return polished
    return coef


def check_loss_objective(ds: Dataset, alpha: float, beta0: float, beta) -> float:
    """Check-loss sum at an arbitrary coefficient vector."""
    beta = np.asarray(beta, dtype=float)
    residuals = ds.y - beta0 - (ds.x @ beta if ds.p else 0.0)
    return float(np.sum(check_loss_vec(residuals, alpha)))


def averaged_regression_quantile(fit: QuantileFit, ds: Dataset) -> float:
    """Mean-design evaluation ``beta0_hat + x_mean' beta_hat`` of a fit."""
    if fit.beta_hat.shape != (ds.p,):
        raise DataError("fit and dataset dimensions do not match")
    return float(fit.beta0_hat + ds.x_mean @ fit.beta_hat)
