"""Reference computations made apart from ``quantfunc``.

Levels such as 0.9 are read as the decimals they are written as: ``n * alpha``
is evaluated on ``Fraction(repr(alpha))``, so that 0.9 of 20000 is exactly
18000 and no binary rounding of ``1 - 0.9`` enters a count.  Sums use
``math.fsum``.  ``scipy.optimize`` is imported only inside
:func:`rq_optimum`, which runs after the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np

KB_SLACK = 1e-9          # slack on the Koenker-Bassett multipliers in [tau - 1, tau]


class OracleError(RuntimeError):
    """The reference computation could not certify its own answer."""


def decimal_product(n: int, alpha: float) -> Fraction:
    """``n * alpha`` with alpha read as the decimal it prints as."""
    return n * Fraction(repr(alpha))


def order_rank(alpha: float, n: int) -> int:
    """1-based rank ``max(1, ceil(n alpha))`` of the lower alpha-quantile."""
    return max(1, math.ceil(decimal_product(n, alpha)))


def check_loss_sum(residuals: np.ndarray, tau: float) -> float:
    """``sum rho_tau(r_i)`` with ``rho_tau(u) = u (tau - 1{u < 0})``."""
    r = np.asarray(residuals, dtype=float)
    return math.fsum(np.where(r < 0.0, (tau - 1.0) * r, tau * r))


def dispersion_at(y: np.ndarray, x: np.ndarray, slopes: np.ndarray, lam: float) -> float:
    """Rank dispersion at ``slopes`` as ``min_b0 sum rho_lam(y - x b - b0)``.

    The inner minimum sits at the lower lam-quantile of the residuals.  With
    ``n lam`` whole, as here, this equals the Jaeckel form
    ``sum r_i (a_i - mean a)`` of the program.
    """
    r = y - x @ slopes
    b0 = float(np.sort(r)[order_rank(lam, r.size) - 1])
    return check_loss_sum(r - b0, lam)


def rq_optimum(y: np.ndarray, x: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Minimum over (b0, b) of ``sum rho_tau(y - b0 - x b)`` and a minimizing vertex.

    HiGHS solves the dual LP ``max y'a  s.t.  A'a = (1 - tau) A'1, 0 <= a <= 1``
    with ``A = [1, x]``.  Its fractional ``a_i`` mark the q observations that an
    optimal vertex interpolates; the vertex is solved from the raw data and
    certified by the Koenker-Bassett condition, so HiGHS' tolerances never
    enter the returned value, which is the check-loss sum at that vertex.
    """
    from scipy.optimize import linprog

    n = y.size
    a_design = np.column_stack([np.ones(n), x])
    q = a_design.shape[1]
    res = linprog(-y, A_eq=a_design.T, b_eq=(1.0 - tau) * a_design.sum(axis=0),
                  bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise OracleError(f"HiGHS: {res.message}")
    w = res.x
    basis = np.argsort(np.abs(w - 0.5), kind="stable")[:q]
    coef = np.linalg.solve(a_design[basis], y[basis])
    if not certify_vertex(y, a_design, coef, basis, tau):
        raise OracleError("HiGHS basis fails the Koenker-Bassett condition")
    return check_loss_sum(y - a_design @ coef, tau), coef


def certify_vertex(y, a_design, coef, basis, tau) -> bool:
    """Koenker-Bassett optimality of the vertex interpolating ``basis``.

    With ``g = sum_{i not in basis} (tau - 1{r_i < 0}) a_i``, the vertex is a
    minimizer iff ``w = -A_h^{-T} g`` lies in ``[tau - 1, tau]^q``.
    """
    r = y - a_design @ coef
    out = np.ones(y.size, dtype=bool)
    out[basis] = False
    psi = np.where(r[out] < 0.0, tau - 1.0, tau)
    g = a_design[out].T @ psi
    w = -np.linalg.solve(a_design[basis].T, g)
    return bool(np.all(w >= tau - 1.0 - KB_SLACK) and np.all(w <= tau + KB_SLACK))


def upper_tail_mean(sorted_values: np.ndarray, alpha: float) -> float:
    """Mean of the values above the lower alpha-quantile: the top ``n - ceil(n alpha)``."""
    n = sorted_values.size
    m = n - order_rank(alpha, n)
    return math.fsum(sorted_values[n - m:]) / m


def float_count_tail_mean(sorted_values: np.ndarray, alpha: float) -> float:
    """Mean of the top ``floor(n * (1 - alpha))`` values, the count taken in binary.

    This is the wrong count of the known ``cvar`` fault: ``1 - 0.9`` rounds
    below 0.1, so at n = 20000 it averages 1999 values, not 2000.
    """
    n = sorted_values.size
    m = math.floor(n * (1.0 - alpha))
    return math.fsum(sorted_values[n - m:]) / m


def weight(u):
    """Polynomial weight ``w(u) = 6 u (1 - u)`` for the linear functional."""
    return 6.0 * u * (1.0 - u)


def weight_antiderivative(u):
    """``W(u) = 3 u^2 - 2 u^3``, so ``W' = w``."""
    return 3.0 * u * u - 2.0 * u * u * u


def step_integral(values: np.ndarray) -> tuple[float, float]:
    """``sum_k v_k (W(k/n) - W((k-1)/n))`` and the sum of its terms' magnitudes."""
    n = values.size
    edges = weight_antiderivative(np.arange(n + 1) / n)
    terms = values * np.diff(edges)
    return math.fsum(terms), math.fsum(np.abs(terms))


def normal_cvar(alpha: float) -> float:
    """CVaR of the standard normal at level alpha: ``phi(z_alpha) / (1 - alpha)``."""
    nd = NormalDist()
    return nd.pdf(nd.inv_cdf(alpha)) / (1.0 - alpha)
