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
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError, SolverFailure
from .model import Dataset, design_diagnostics

DISPERSION_RTOL = 1e-10
CERTIFICATE_TOL = 1e-6
MAX_OUTER_CYCLES = 200


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


def jaeckel_dispersion_centered(b, ds: Dataset, lam: float) -> float:
    """Intercept-free form ``sum (y_i - y_bar - (x_i - x_bar)'b) a_i``.

    Algebraically equal to :func:`jaeckel_dispersion` because the centered
    scores sum to zero.
    """
    if ds.p == 0:
        raise DataError("dispersion needs at least one covariate (p >= 1)")
    b = np.asarray(b, dtype=float)
    residuals = ds.y - ds.x @ b
    sv = hajek_scores(residuals, lam)
    centered = (ds.y - ds.y_mean) - (ds.x - ds.x_mean) @ b
    return float(centered @ sv.scores)


def _golden_line_search(f: Callable[[float], float], t0: float, f0: float,
                        step: float, xtol: float) -> tuple[float, float]:
    """Minimize a convex univariate function around t0; returns (t, f(t)).

    Brackets the minimum by doubling steps from t0, then golden-section
    shrinks to ``xtol``.  Robust to the nondifferentiability of piecewise
    linear objectives.
    """
    # Bracket: find a <= m <= c with f(m) <= min(f(a), f(c)).
    fl = f(t0 - step)
    fr = f(t0 + step)
    if f0 <= fl and f0 <= fr:
        a, m, cc = t0 - step, t0, t0 + step
        fm = f0
    else:
        if fr < fl:
            direction, fbest = 1.0, fr
        else:
            direction, fbest = -1.0, fl
        prev_t, prev_f = t0, f0
        t = t0 + direction * step
        ft = fbest
        h = step
        while True:
            h *= 2.0
            nxt = t + direction * h
            fn = f(nxt)
            if fn >= ft:
                a, m, cc = min(prev_t, nxt), t, max(prev_t, nxt)
                fm = ft
                break
            prev_t, prev_f = t, ft
            t, ft = nxt, fn
            if h > 1e12:
                raise SolverFailure("dispersion appears unbounded along a line")

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = cc - invphi * (cc - a)
    x2 = a + invphi * (cc - a)
    f1, f2 = f(x1), f(x2)
    while cc - a > xtol:
        if f1 <= f2:
            cc, x2, f2 = x2, x1, f1
            x1 = cc - invphi * (cc - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (cc - a)
            f2 = f(x2)
    if f1 <= f2 and f1 <= fm:
        return x1, f1
    if f2 < f1 and f2 <= fm:
        return x2, f2
    return m, fm


def _certificate_directions(p: int, rng: np.random.Generator) -> list[np.ndarray]:
    dirs = []
    for j in range(p):
        e = np.zeros(p)
        e[j] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for _ in range(p):
        d = rng.standard_normal(p)
        dirs.append(d / np.linalg.norm(d))
    return dirs


def fit_r_estimator(ds: Dataset, lam: float = 0.5) -> REstimate:
    """Slope estimate minimizing the rank dispersion.

    Derivative-free: coordinate-wise golden-section line searches cycled to
    convergence from the least-squares slopes, with extra line searches along
    any certificate direction that still descends.  Optimality is certified
    by one-sided slopes in 2p coordinate and p random directions.
    """
    if ds.p == 0:
        raise DataError("R-estimation needs p >= 1")
    diag = design_diagnostics(ds)
    if diag.max_leverage is None:
        raise IdentifiabilityError("centered scatter matrix V_n is singular")

    xc = ds.x - ds.x_mean
    yc = ds.y - ds.y_mean
    b = np.linalg.lstsq(xc, yc, rcond=None)[0]

    def obj(bb: np.ndarray) -> float:
        return jaeckel_dispersion(bb, ds, lam)

    f_cur = obj(b)
    scale = 1.0 + float(np.max(np.abs(ds.y)) + np.max(np.abs(b)) if b.size else 0.0)
    xtol = 1e-12 * scale
    n_eval = 0
    rng = np.random.default_rng(0)  # fixed: certificate directions are part of the contract

    def line_min(direction: np.ndarray, bb: np.ndarray, fb: float) -> tuple[np.ndarray, float]:
        def f1(t: float) -> float:
            nonlocal n_eval
            n_eval += 1
            return obj(bb + t * direction)
        t, ft = _golden_line_search(f1, 0.0, fb, step=0.1 * (1.0 + np.abs(bb @ direction)), xtol=xtol)
        if ft < fb:
            return bb + t * direction, ft
        return bb, fb

    for _ in range(MAX_OUTER_CYCLES):
        f_prev = f_cur
        for j in range(ds.p):
            e = np.zeros(ds.p)
            e[j] = 1.0
            b, f_cur = line_min(e, b, f_cur)

        improved = f_prev - f_cur
        if improved >= DISPERSION_RTOL * (1.0 + abs(f_cur)):
            continue

        # Certificate: one-sided slopes must be >= -tol in every probe direction.
        h = 1e-7 * (1.0 + float(np.linalg.norm(b)))
        cert_tol = CERTIFICATE_TOL * (1.0 + abs(f_cur))
        descent = None
        for d in _certificate_directions(ds.p, rng):
            slope = (obj(b + h * d) - f_cur) / h
            if slope < -cert_tol:
                descent = d
                break
        if descent is None:
            return REstimate(lam=lam, beta_tilde=b, dispersion=f_cur, iterations=n_eval)
        b, f_cur = line_min(descent, b, f_cur)

    raise SolverFailure("dispersion minimizer failed the optimality certificate",
                        best=REstimate(lam=lam, beta_tilde=b, dispersion=f_cur,
                                       iterations=n_eval))
