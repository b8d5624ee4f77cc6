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
from .model import Dataset, design_diagnostics
from .regression import _certified_vertices


@dataclass(frozen=True)
class RankScoreVector:
    """Rank scores of a residual configuration at a fixed level."""

    lam: float
    scores: np.ndarray
    mean_score: float


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


def hajek_scores(residuals, lam: float) -> RankScoreVector:
    """Piecewise-linear rank scores in [0, 1] for a residual vector.

    With R_i the rank of residual i (ties broken by index):
    0 below n*lambda, R_i - n*lambda on [n*lambda, n*lambda + 1), else 1.
    """
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must be in (0, 1), got {lam}")
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise DataError("residuals must be a nonempty vector")
    if not np.all(np.isfinite(r)):
        raise DataError("non-finite residuals")
    scores = _scores(r, lam)
    return RankScoreVector(lam=lam, scores=scores, mean_score=float(scores.mean()))


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
    return _fit_r_estimators([ds], lam)[0]


def _fit_r_estimators(datasets: list[Dataset], lam: float) -> list[REstimate]:
    """:func:`fit_r_estimator` of each dataset of a list of one n and p, the
    interior points of their LPs run as one batch.

    Each estimate is bitwise the one fitted alone, and the error raised is
    the one a loop of single fits raises first: the datasets before it are
    fitted, in order, before it is raised.
    """
    checked, failure = [], None
    for ds in datasets:
        try:
            if ds.p == 0:
                raise DataError("R-estimation needs p >= 1")
            if design_diagnostics(ds).max_leverage is None:
                raise IdentifiabilityError("centered scatter matrix V_n is singular")
            if not 0.0 < lam < 1.0:
                raise DomainError(f"lambda must be in (0, 1), got {lam}")
        except QuantfuncError as exc:
            failure = exc
            break
        checked.append(ds)
    estimates = []
    if checked:
        for ds, (coef, iterations) in zip(checked, _certified_vertices(checked, lam)):
            b = coef[1:]
            estimates.append(REstimate(lam=lam, beta_tilde=b,
                                       dispersion=jaeckel_dispersion(b, ds, lam),
                                       iterations=iterations))
    if failure is not None:
        raise failure
    return estimates
