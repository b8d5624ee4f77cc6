"""Rank scores, rank-dispersion objective and the rank-based slope estimator.

The slope estimator minimizes the dispersion

    D(b) = sum_i (y_i - x_i'b) * (a_i(lambda, b) - a_bar(lambda))

where ``a_i`` are piecewise-linear rank scores of the residuals.  D is
convex, piecewise-linear and invariant to the intercept, so the minimizer
estimates the slopes without touching the nuisance location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError, QuantfuncError
from .model import Dataset, _centered_scatter
from .model import design_diagnostics  # noqa: F401  perfbench's tracer binds this name here
from .regression import _certified_vertices


@dataclass(frozen=True)
class REstimate:
    """Rank-based slope estimate with its attained dispersion."""

    lam: float
    beta_tilde: np.ndarray
    dispersion: float
    iterations: int


def _scores(r: np.ndarray, lam: float) -> np.ndarray:
    """Scores ``clip(R_i - n*lambda, 0, 1)`` by selection instead of ranking.

    ``R_i`` is the rank of ``r_i`` with ties broken by index.  Only the
    ``(k+1)``-th order statistic t, k = floor(n*lambda), decides a score:
    values above t score 1, values below t score 0, and among the values
    equal to t, in index order, the one of rank k + 1 scores
    ``k + 1 - n*lambda``, later ones 1 and earlier ones 0.  This is the rank
    formula bit for bit, in O(n).
    """
    n = r.shape[0]
    nl = n * lam
    k = int(nl)
    if k >= n:  # n*lambda rounded up to n: every rank is at most n*lambda
        return np.zeros(n)
    t = np.partition(r, k)[k]
    scores = (r > t).astype(float)
    ties = np.flatnonzero(r == t)
    if ties.size:  # empty only when t is NaN, which makes the dispersion NaN
        j = k - int(np.count_nonzero(r < t))
        scores[ties[j]] = (k + 1) - nl  # in (0, 1], so the clip is the identity
        scores[ties[j + 1:]] = 1.0
    return scores


def jaeckel_dispersion(b, ds: Dataset, lam: float) -> float:
    """Rank-weighted residual spread ``sum r_i (a_i - a_bar)`` at slopes b.

    Only ``b`` and ``lam`` are checked: a :class:`Dataset` is finite, and
    slopes so large that the residuals overflow give a non-finite spread,
    which raises :class:`DataError`.
    """
    if ds.p == 0:
        raise DataError("dispersion needs at least one covariate (p >= 1)")
    b = np.asarray(b, dtype=float)
    if b.shape != (ds.p,):
        raise DataError(f"b must have length {ds.p}")
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must be in (0, 1), got {lam}")
    residuals = ds.y - ds.x @ b
    scores = _scores(residuals, lam)
    d = float(residuals @ (scores - scores.mean()))
    if not math.isfinite(d):
        raise DataError(f"non-finite dispersion at b = {b.tolist()}")
    return d


def fit_r_estimator(ds: Dataset, lam: float = 0.5) -> REstimate:
    """Slope estimate minimizing the rank dispersion.

    With the Hajek scores ``D(b) = min_c sum rho_lam(y_i - c - x_i'b)``
    (Gutenbrunner and Jureckova 1992, Ann. Statist.), so the minimizer is the
    slope part of a vertex of that LP, certified by its duality gap, or
    :class:`SolverFailure`.  ``iterations`` counts the interior-point
    iterations plus the vertex pivots.
    """
    [(b, iterations)] = _fit_slopes([ds], lam)
    return REstimate(lam=lam, beta_tilde=b, dispersion=jaeckel_dispersion(b, ds, lam),
                     iterations=iterations)


def _fit_slopes(datasets: list[Dataset], lam: float):
    """The slopes and iterations of :func:`fit_r_estimator` of each dataset of
    a list of one n and p, their LPs solved as one batch; no dispersion.

    Yields in list order.  Each estimate is bitwise the one fitted alone, and
    the error raised is the one a loop of single fits raises first: the
    datasets before it are yielded before it is raised.
    """
    checked, failure = [], None
    for ds in datasets:
        try:
            if ds.p == 0:
                raise DataError("R-estimation needs p >= 1")
            if _centered_scatter(ds)[3]:
                raise IdentifiabilityError("centered scatter matrix V_n is singular")
            if not 0.0 < lam < 1.0:
                raise DomainError(f"lambda must be in (0, 1), got {lam}")
        except QuantfuncError as exc:
            failure = exc
            break
        checked.append(ds)
    if checked:
        for coef, iterations in _certified_vertices(checked, lam):
            yield coef[1:], iterations
    if failure is not None:
        raise failure
