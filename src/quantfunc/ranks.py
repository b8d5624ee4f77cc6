"""Rank dispersion and the rank-based slope estimator.

Jaeckel's dispersion with Hajek scores is the lambda-check loss of the
residuals r = y - Xb at their best intercept (Jaeckel 1972; Gutenbrunner and
Jureckova 1992): D(b) = min_c sum rho_lam(r_i - c) = sum rho_lam(r_i - r_(k+1)),
k = floor(n * lam).  D is convex, piecewise-linear and invariant to the
intercept, so its minimizer estimates the slopes without the nuisance
location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError
from .model import Dataset, _centered_scatters, check_loss_vec
from .model import design_diagnostics  # noqa: F401  perfbench's tracer binds this name here
from .regression import _certified_vertices


@dataclass(frozen=True)
class REstimate:
    """Rank-based slope estimate with its attained dispersion."""

    lam: float
    beta_tilde: np.ndarray
    dispersion: float
    iterations: int


def jaeckel_dispersion(b, ds: Dataset, lam: float) -> float:
    """Jaeckel dispersion at slopes b: the check loss of the residuals r
    about r_(k+1), k = floor(n * lam), a best intercept.  Its terms are
    nonnegative, so nothing cancels as lam nears 0 or 1 or under an offset
    of y.

    Only ``b`` and ``lam`` are checked: a :class:`Dataset` is finite, and
    slopes so large that the residuals or their spread overflow give a
    non-finite loss, which raises :class:`DataError`.
    """
    if ds.p == 0:
        raise DataError("dispersion needs at least one covariate (p >= 1)")
    b = np.asarray(b, dtype=float)
    if b.shape != (ds.p,):
        raise DataError(f"b must have length {ds.p}")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must be in (0, 1), got {lam}")
    # k < n: lambda <= 1 - 2**-53, so n*lambda rounds below n for n < 2**53
    k = int(ds.n * lam)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        r = ds.y - ds.x @ b
        d = float(check_loss_vec(r - np.partition(r, k)[k], lam).sum())
    if not math.isfinite(d):
        raise DataError(f"non-finite dispersion at b = {b.tolist()}")
    return d


def fit_r_estimator(ds: Dataset, lam: float = 0.5) -> REstimate:
    """Slope estimate minimizing the rank dispersion.

    The dispersion is ``min_c sum rho_lam(y_i - c - x_i'b)``, so the
    minimizer is the slope part of a vertex of that LP, certified by its
    duality gap, or :class:`SolverFailure`.  ``iterations`` counts the
    interior-point iterations plus the vertex pivots: from 1000 rows on,
    those of the subsample's and the band's solves, plus those of the full
    solve when their vertex is not certified.
    """
    [(b, iterations)] = _fit_slopes(ds.y[None], ds.x[None], lam)
    return REstimate(lam=lam, beta_tilde=b, dispersion=jaeckel_dispersion(b, ds, lam),
                     iterations=iterations)


def _fit_slopes(y: np.ndarray, x: np.ndarray, lam: float):
    """The slopes and iterations of :func:`fit_r_estimator` of each dataset of
    a batch of one n and p, the responses y of shape (B, n) and the designs x
    (B, n, p), their LPs solved as one batch; no dispersion.  y and x are
    read in place.

    Yields in batch order.  Each estimate is bitwise the one fitted alone, and
    the error raised is the one a loop of single fits raises first: the
    datasets before it are yielded before it is raised.  Every V_n is tested
    in one batched call.
    """
    if x.shape[2] == 0:
        raise DataError("R-estimation needs p >= 1")
    singular = np.flatnonzero(_centered_scatters(x)[3])
    fitted, failure = y.shape[0], None
    if singular.size:
        fitted = singular[0]
        failure = IdentifiabilityError("centered scatter matrix V_n is singular")
    if not 0.0 < lam < 1.0 and fitted:  # the first dataset fails
        fitted, failure = 0, DomainError(f"lambda must be in (0, 1), got {lam}")
    if fitted:
        for coef, iterations in _certified_vertices(y[:fitted], x[:fitted], lam):
            yield coef[1:], iterations
    if failure is not None:
        raise failure
