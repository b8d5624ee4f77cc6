"""Two-step regression quantiles and the averaged two-step process.

Slopes come from the rank-based estimator at a single fixed level; the
intercept at level alpha is the corresponding order statistic of the
residuals.  The averaged process is the sorted vector of slope-adjusted
responses ``y_i - (x_i - x_bar)' slopes``; subtracting the response mean
gives the estimator of the error quantile function on which all functionals
operate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, StepQuantileProcess, order_index
from .ranks import fit_r_estimator


@dataclass(frozen=True)
class TwoStepQuantile:
    """Intercept-at-alpha plus rank-estimated slopes."""

    alpha: float
    lam: float
    intercept: float
    slopes: np.ndarray


@dataclass(frozen=True)
class AveragedTwoStepProcess(StepQuantileProcess):
    """The sorted slope-adjusted responses, as a step process, with the level
    and slopes it was fitted at; ``nuisance_estimate`` is the response mean
    used to center the process."""

    lam: float
    nuisance_estimate: float
    slopes: np.ndarray

    @property
    def sorted_adjusted(self) -> np.ndarray:
        """The process values; perfbench's ``fit_large`` reads this name."""
        return self.values


def _residuals(ds: Dataset, lam: float, slopes) -> tuple[np.ndarray, np.ndarray]:
    """The slopes as floats, fitted at ``lam`` when None, and ``y - X slopes``."""
    if slopes is None:
        slopes = fit_r_estimator(ds, lam).beta_tilde if ds.p else np.zeros(0)
    slopes = np.asarray(slopes, dtype=float)
    return slopes, ds.y - ds.x @ slopes


def two_step_quantile(ds: Dataset, alpha: float, lam: float = 0.5,
                      slopes: np.ndarray | None = None) -> TwoStepQuantile:
    """Two-step regression quantile at a single level.

    ``slopes`` may be supplied to reuse one rank-estimation across many
    alpha levels (the slopes do not depend on alpha).
    """
    slopes, residuals = _residuals(ds, lam, slopes)
    k = order_index(alpha, ds.n)
    intercept = float(np.partition(residuals, k - 1)[k - 1])
    return TwoStepQuantile(alpha=alpha, lam=lam, intercept=intercept, slopes=slopes)


def averaged_two_step_process(ds: Dataset, lam: float = 0.5,
                              slopes: np.ndarray | None = None) -> AveragedTwoStepProcess:
    """Averaged two-step quantile process of a dataset.

    Equals, at every alpha, the two-step intercept plus ``x_bar' slopes``;
    both sides are order statistics of the same adjusted values, so the
    identity is exact in floating point.
    """
    # Same arithmetic path as intercept + x_bar'slopes, so the order-statistic
    # identity between the two holds exactly in floating point.
    slopes, adjusted = _residuals(ds, lam, slopes)
    adjusted += ds.x_mean @ slopes
    adjusted.sort()
    return AveragedTwoStepProcess._of_sorted(adjusted, lam=lam,
                                             nuisance_estimate=ds.y_mean, slopes=slopes)


def centered_process(proc: AveragedTwoStepProcess) -> StepQuantileProcess:
    """Estimator of the error quantile function: the process minus its
    response-mean estimate ``nuisance_estimate``.  Rounding is monotone, so
    the shifted values stay sorted."""
    return StepQuantileProcess._of_sorted(proc.values - proc.nuisance_estimate)
