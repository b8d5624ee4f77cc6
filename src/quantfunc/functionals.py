"""Quantile functionals of a step quantile process.

Every functional accepts any :class:`StepQuantileProcess` (empirical, the
averaged two-step process or its centered form) and returns a
:class:`FunctionalEstimate`.  Tail
averages use whole order statistics; the Lorenz curve uses fractional-cell
integration so that L(1) = 1 exactly.  Counts taken from a level use the
exact ``n * alpha`` of :func:`~quantfunc.model.scaled_level`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import StepQuantileProcess, order_index, scaled_level

# The functionals the CLI computes, named as their functions here.  Callers
# look each up with getattr at call time, so a wrapper rebound on this module
# (perfbench's tracer) is the one called.  The first two are the ones whose
# population value simulation.ErrorDistribution.true_functional knows.
FUNCTIONALS = ("cvar", "mean_excess", "lorenz", "gastwirth_j", "staudte_r")

# Gauss-Legendre nodes per cell of :func:`quad`; the rule is exact for
# polynomials of degree <= 2 * QUAD_NODES - 1.  The nodes and weights are the
# bits of ``numpy.polynomial.legendre.leggauss(8)`` mapped from [-1, 1] to
# [0, 1], (t + 1) / 2 and w / 2, written out so that no import solves the
# eigenproblem behind them.
QUAD_NODES = 8
_NODES = (0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
          0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
          0.8983332387068134, 0.9801449282487681)
_NODE_WEIGHTS = (0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
                 0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
                 0.11119051722668721, 0.05061426814518853)


@dataclass(frozen=True)
class FunctionalEstimate:
    """Finite scalar functional estimate with its level and sample size."""

    kind: str   # cvar | mean_excess | lorenz | gastwirth_j | staudte_r | linear
    level: float
    value: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"{self.kind} at level {self.level} is not finite: {self.value}")


def quad(weight, n: int) -> np.ndarray:
    """Integrals of ``weight`` over the n cells ((k-1)/n, k/n), k = 1, ..., n.

    Each cell gets the same fixed :data:`QUAD_NODES`-point Gauss-Legendre
    rule.  ``weight`` is called once per node with the array of that node's
    n abscissae, so memory stays O(n); a weight that returns a scalar is
    broadcast.  The rule is exact to rounding for weights that are
    polynomials of degree <= 2 * QUAD_NODES - 1 on each cell.  It never
    evaluates the weight on a cell edge, so a jump or kink should sit on an
    edge k/n; inside a cell it costs accuracy.
    """
    left = np.arange(n, dtype=float)
    cells = np.zeros(n)
    for t, w in zip(_NODES, _NODE_WEIGHTS):
        cells += w * np.asarray(weight((left + t) / n), dtype=float)
    cells /= n
    if not np.all(np.isfinite(cells)):
        raise DomainError("weight function is not finite on a cell")
    return cells


def linear_functional(proc: StepQuantileProcess, weight) -> float:
    """Step-function integral ``sum_k value_k * int_{(k-1)/n}^{k/n} w``.

    The cell integrals come from :func:`quad`, under its convention: the
    weight takes arrays, and the value is exact to rounding when ``w`` is a
    polynomial of degree <= 2 * QUAD_NODES - 1 on each cell.  The sum is
    correctly rounded, so the result does not depend on summation order.
    """
    return math.fsum(proc.values * quad(weight, proc.n))


def cvar(proc: StepQuantileProcess, alpha: float) -> FunctionalEstimate:
    """Expected shortfall: mean of the ``n - ceil(n alpha)`` order statistics
    above the alpha-quantile."""
    n = proc.n
    m = n - order_index(alpha, n)
    if m < 1:
        raise DomainError(f"tail too small: n - ceil(n alpha) = 0 for n={n}, alpha={alpha}")
    value = float(np.mean(proc.values[n - m:]))
    return FunctionalEstimate(kind="cvar", level=alpha, value=value, n=n)


def mean_excess(proc: StepQuantileProcess, gamma: float) -> FunctionalEstimate:
    """Mean overshoot above a threshold, conditional on exceedance."""
    exceed = proc.values[proc.values >= gamma]
    if exceed.size == 0:
        raise DomainError(f"no process values exceed threshold {gamma}")
    value = float(np.mean(exceed - gamma))
    return FunctionalEstimate(kind="mean_excess", level=gamma, value=value, n=proc.n)


def lorenz(proc: StepQuantileProcess, alpha: float) -> FunctionalEstimate:
    """Lorenz curve: normalized lower-tail integral, fractional last cell.

    Defined for nonnegative processes with positive mean; alpha may be 1,
    where the value is exactly 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    v = proc.values
    if np.any(v < 0):
        raise DomainError("Lorenz curve needs nonnegative process values")
    total = float(np.sum(v))
    if total <= 0:
        raise DomainError("Lorenz curve needs a positive mean")
    n = proc.n
    na = scaled_level(alpha, n)
    k = math.floor(na)
    partial = float(np.sum(v[:k]))
    if k < n:
        partial += float(na - k) * float(v[k])
    return FunctionalEstimate(kind="lorenz", level=alpha, value=partial / total, n=n)


def gastwirth_j(proc: StepQuantileProcess, alpha: float) -> FunctionalEstimate:
    """Share ratio L(alpha) / (1 - L(1 - alpha)) of bottom vs top fractions."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    num = lorenz(proc, alpha).value
    denom = 1.0 - lorenz(proc, 1.0 - alpha).value
    if denom <= 0:
        raise DomainError("degenerate distribution: top share is zero")
    return FunctionalEstimate(kind="gastwirth_j", level=alpha, value=num / denom, n=proc.n)


def staudte_r(proc: StepQuantileProcess, alpha: float) -> FunctionalEstimate:
    """Symmetric quantile ratio Q(alpha/2) / Q(1 - alpha/2)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    denom = proc(1.0 - alpha / 2.0)
    if denom == 0.0:
        raise DomainError("degenerate distribution: upper quantile is zero")
    return FunctionalEstimate(kind="staudte_r", level=alpha,
                              value=proc(alpha / 2.0) / denom, n=proc.n)
