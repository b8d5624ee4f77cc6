import tracemalloc

import numpy as np
import pytest

from quantfunc import (Dataset, DomainError, IdentifiabilityError,
                       averaged_regression_quantile, check_loss_objective,
                       empirical_quantile_process, fit_regression_quantile)
from quantfunc.regression import RESIDUAL_ZERO_TOL


def directional_derivative(ds, alpha, beta0, beta, direction):
    """Exact one-sided derivative of the objective along a coefficient direction.

    ``direction`` has length p + 1 (intercept first).  Nonnegative values in
    every direction certify optimality without trusting the solver.
    """
    d = np.asarray(direction, dtype=float)
    a_design = np.hstack([np.ones((ds.n, 1)), ds.x])
    beta_full = np.concatenate([[beta0], np.atleast_1d(np.asarray(beta, dtype=float))])
    r = ds.y - a_design @ beta_full
    rdot = -(a_design @ d)
    tol = RESIDUAL_ZERO_TOL * (1.0 + float(np.max(np.abs(r))))
    pos = r > tol
    neg = r < -tol
    kink = ~pos & ~neg
    deriv = alpha * np.sum(rdot[pos]) + (alpha - 1.0) * np.sum(rdot[neg])
    rk = rdot[kink]
    deriv += alpha * np.sum(rk[rk > 0]) + (alpha - 1.0) * np.sum(rk[rk < 0])
    return float(deriv)


def brute_force_objective(ds, alpha):
    """Minimum objective over all fits interpolating p + 1 observations.

    Every check-loss LP optimum occurs at such a vertex, so enumerating them
    is an independent oracle for small instances.
    """
    from itertools import combinations

    a_design = np.hstack([np.ones((ds.n, 1)), ds.x])
    q = ds.p + 1
    best = np.inf
    for idx in combinations(range(ds.n), q):
        sub = a_design[list(idx)]
        if np.linalg.matrix_rank(sub) < q:
            continue
        coef = np.linalg.solve(sub, ds.y[list(idx)])
        best = min(best, check_loss_objective(ds, alpha, coef[0], coef[1:]))
    return best


class TestFitRegressionQuantile:
    def test_p0_is_sample_median(self):
        ds = Dataset(y=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), x=np.zeros((5, 0)))
        fit = fit_regression_quantile(ds, 0.5)
        assert fit.beta0_hat == 3.0

    def test_exact_line_for_every_alpha(self):
        x = np.arange(5.0).reshape(-1, 1)
        ds = Dataset(y=2.0 + 3.0 * x[:, 0], x=x)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            fit = fit_regression_quantile(ds, alpha)
            assert fit.beta0_hat == pytest.approx(2.0, abs=1e-9)
            assert fit.beta_hat[0] == pytest.approx(3.0, abs=1e-9)
            assert fit.objective == pytest.approx(0.0, abs=1e-9)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            ds = Dataset(y=rng.standard_normal(6), x=rng.standard_normal((6, 1)))
            alpha = float(rng.uniform(0.1, 0.9))
            fit = fit_regression_quantile(ds, alpha)
            oracle = brute_force_objective(ds, alpha)
            assert fit.objective == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_objective_consistent_with_coefficients(self):
        rng = np.random.default_rng(5)
        ds = Dataset(y=rng.standard_normal(15), x=rng.standard_normal((15, 2)))
        fit = fit_regression_quantile(ds, 0.3)
        recomputed = check_loss_objective(ds, 0.3, fit.beta0_hat, fit.beta_hat)
        assert fit.objective == pytest.approx(recomputed, rel=1e-8)

    def test_n_active_at_vertex(self):
        rng = np.random.default_rng(6)
        ds = Dataset(y=rng.standard_normal(12), x=rng.standard_normal((12, 2)))
        fit = fit_regression_quantile(ds, 0.4)
        assert fit.n_active >= ds.p + 1

    def test_rank_deficient_design_rejected(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0]])
        ds = Dataset(y=np.arange(5.0), x=x)
        with pytest.raises(IdentifiabilityError):
            fit_regression_quantile(ds, 0.5)

    def test_alpha_out_of_range(self):
        ds = Dataset(y=np.arange(5.0), x=np.zeros((5, 0)))
        with pytest.raises(DomainError):
            fit_regression_quantile(ds, 1.0)

    def test_p0_reduction_to_empirical_quantile(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            y = rng.standard_normal(n)
            ds = Dataset(y=y, x=np.zeros((n, 0)))
            alpha = float(rng.uniform(0.05, 0.95))
            if abs(n * alpha - round(n * alpha)) < 1e-9:
                continue
            fit = fit_regression_quantile(ds, alpha)
            assert fit.beta0_hat == empirical_quantile_process(y)(alpha)

    def test_holds_one_tableau(self):
        # The simplex pivots on the constraint matrix in place: the traced
        # peak stays near one n x (2n + 2q + 1) tableau, not two.
        rng = np.random.default_rng(35)
        n, p = 400, 2
        x = rng.uniform(size=(n, p))
        ds = Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(n), x=x)
        tableau = n * (2 * n + 2 * (p + 1) + 1) * 8
        tracemalloc.start()
        try:
            fit_regression_quantile(ds, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * tableau


class TestEquivariance:
    def make(self, rng, n=14, p=2):
        return Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))

    def test_regression_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            ds = self.make(rng)
            gamma = rng.standard_normal(ds.p)
            alpha = float(rng.uniform(0.1, 0.9))
            base = fit_regression_quantile(ds, alpha)
            shifted = fit_regression_quantile(
                Dataset(y=ds.y + ds.x @ gamma, x=ds.x), alpha)
            assert shifted.beta_hat == pytest.approx(base.beta_hat + gamma,
                                                     rel=1e-7, abs=1e-7)
            assert shifted.beta0_hat == pytest.approx(base.beta0_hat,
                                                      rel=1e-7, abs=1e-7)

    def test_location_equivariance(self):
        rng = np.random.default_rng(32)
        ds = self.make(rng)
        base = fit_regression_quantile(ds, 0.35)
        shifted = fit_regression_quantile(Dataset(y=ds.y + 4.25, x=ds.x), 0.35)
        assert shifted.beta0_hat == pytest.approx(base.beta0_hat + 4.25,
                                                  rel=1e-8, abs=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(33)
        ds = self.make(rng)
        base = fit_regression_quantile(ds, 0.7)
        scaled = fit_regression_quantile(Dataset(y=3.0 * ds.y, x=ds.x), 0.7)
        assert scaled.beta0_hat == pytest.approx(3.0 * base.beta0_hat,
                                                 rel=1e-7, abs=1e-8)
        assert scaled.beta_hat == pytest.approx(3.0 * base.beta_hat,
                                                rel=1e-7, abs=1e-8)

    def test_subgradient_optimality_certificate(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            ds = self.make(rng, n=20, p=2)
            alpha = float(rng.uniform(0.1, 0.9))
            fit = fit_regression_quantile(ds, alpha)
            for j in range(ds.p + 1):
                for sign in (1.0, -1.0):
                    d = np.zeros(ds.p + 1)
                    d[j] = sign
                    slope = directional_derivative(ds, alpha, fit.beta0_hat,
                                                   fit.beta_hat, d)
                    assert slope >= -1e-6


class TestAveragedRegressionQuantile:
    def test_p0_equals_intercept(self):
        ds = Dataset(y=np.array([4.0, 1.0, 3.0]), x=np.zeros((3, 0)))
        fit = fit_regression_quantile(ds, 0.5)
        assert averaged_regression_quantile(fit, ds) == fit.beta0_hat

    def test_exact_line_value(self):
        x = np.arange(5.0).reshape(-1, 1)  # mean 2
        ds = Dataset(y=2.0 + 3.0 * x[:, 0], x=x)
        fit = fit_regression_quantile(ds, 0.5)
        assert averaged_regression_quantile(fit, ds) == pytest.approx(8.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(40)
        ds = Dataset(y=rng.standard_normal(20), x=rng.standard_normal((20, 2)))
        fit = fit_regression_quantile(ds, 0.6)
        direct = np.mean(fit.beta0_hat + ds.x @ fit.beta_hat)
        assert averaged_regression_quantile(fit, ds) == pytest.approx(direct, rel=1e-12)
