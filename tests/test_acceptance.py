"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
Monte Carlo criteria (6-8) share one study configuration and finish in well
under a minute on a laptop.
"""

import subprocess
import sys
import os
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import quantfunc as qf
from quantfunc import (Dataset, ErrorDistribution, SimulationConfig,
                       averaged_two_step_process, centered_process, cvar,
                       empirical_quantile_process, fit_r_estimator,
                       fit_regression_quantile, functional_consistency_study,
                       gastwirth_j, jaeckel_dispersion, lorenz, mean_excess,
                       rate_study_r_estimator, rate_study_two_step,
                       two_step_quantile)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ALPHA_GRID = [round(0.05 * k, 3) for k in range(1, 20)]

MC_CONFIG = SimulationConfig(
    n_grid=(100, 400, 1600),
    p=1,
    beta0=1.0,
    beta=(2.0,),
    error_dist=ErrorDistribution("standard_normal"),
    design="equispaced",
    lam=0.5,
    replications=200,
    seed=42,
)


CRITERION_LINES = []


def check_loss_objective(ds, alpha, beta0, beta):
    """Check-loss sum ``sum rho_alpha(y_i - beta0 - x_i'beta)`` at any coefficients."""
    r = ds.y - beta0 - (ds.x @ np.asarray(beta, dtype=float) if ds.p else 0.0)
    return float(np.sum(np.where(r < 0.0, (alpha - 1.0) * r, alpha * r)))


def report(number, description, passed):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {status}: {description}"
    print(line)
    CRITERION_LINES.append(line)
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def two_step_reports():
    return rate_study_two_step(MC_CONFIG)


def test_criterion_1_order_statistic_identity():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        p = int(rng.integers(0, 4))
        n = int(rng.integers(max(10, p + 2), 201))
        ds = Dataset(y=rng.standard_normal(n) * 2.0,
                     x=rng.standard_normal((n, p)))
        proc = averaged_two_step_process(ds, 0.5)
        for alpha in ALPHA_GRID:
            ts = two_step_quantile(ds, alpha, 0.5, slopes=proc.slopes)
            lhs = ts.intercept + (float(ds.x_mean @ proc.slopes) if p else 0.0)
            rhs = proc(alpha)
            if lhs != rhs and abs(lhs - rhs) > 1e-12 * (1.0 + abs(rhs)):
                ok = False
    report(1, "averaged two-step value equals intercept + mean-design term "
              "at 19 levels on 100 random datasets", ok)


def test_criterion_2_p0_reduction():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 60))
        y = rng.standard_normal(n)
        ds = Dataset(y=y, x=np.zeros((n, 0)))
        alpha = float(rng.uniform(0.05, 0.95))
        if abs(n * alpha - round(n * alpha)) < 1e-9:
            continue
        expected = empirical_quantile_process(y)(alpha)
        if fit_regression_quantile(ds, alpha).beta0_hat != expected:
            ok = False
        if two_step_quantile(ds, alpha, 0.5).intercept != expected:
            ok = False
    report(2, "p = 0 regression-quantile and two-step intercepts equal the "
              "sample quantile exactly", ok)


def test_criterion_3_lp_oracle_equivalence():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 8))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, 1)))
        alpha = float(rng.uniform(0.05, 0.95))
        fit = fit_regression_quantile(ds, alpha)
        best = np.inf
        for i, j in combinations(range(n), 2):
            sub = np.array([[1.0, ds.x[i, 0]], [1.0, ds.x[j, 0]]])
            if abs(np.linalg.det(sub)) < 1e-12:
                continue
            coef = np.linalg.solve(sub, ds.y[[i, j]])
            best = min(best, check_loss_objective(ds, alpha, coef[0], coef[1:]))
        if not abs(fit.objective - best) <= 1e-8 * (1.0 + abs(best)):
            ok = False
    report(3, "LP objective matches exhaustive 2-point interpolation "
              "enumeration on 200 instances", ok)


def test_criterion_4_dispersion_oracle_equivalence():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 9))
        ds = Dataset(y=rng.standard_normal(n) * 2, x=rng.standard_normal((n, 1)))
        lam = float(rng.uniform(0.2, 0.8))
        est = fit_r_estimator(ds, lam)
        grid = np.linspace(-10.0, 10.0, 2001)
        vals = np.array([jaeckel_dispersion(np.array([b]), ds, lam) for b in grid])
        k = int(np.argmin(vals))
        lo, hi = grid[max(0, k - 1)], grid[min(2000, k + 1)]
        best = float(vals[k])
        for _ in range(3):
            g = np.linspace(lo, hi, 401)
            v = np.array([jaeckel_dispersion(np.array([b]), ds, lam) for b in g])
            k = int(np.argmin(v))
            lo, hi = g[max(0, k - 1)], g[min(400, k + 1)]
            best = float(v[k])
        if not est.dispersion <= best + 1e-6:
            ok = False
    report(4, "rank-dispersion minimum matches grid + refinement oracle on "
              "100 instances", ok)


def test_criterion_5_invariance_suite():
    rng = np.random.default_rng(105)
    failures = 0
    trials = 200
    for _ in range(trials):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 3, 40))
        ds = Dataset(y=rng.standard_normal(n) * 2, x=rng.standard_normal((n, p)))
        c = float(rng.uniform(-50, 50))
        gamma = rng.standard_normal(p)
        scale = float(rng.uniform(0.5, 5.0))
        alpha = float(rng.uniform(0.1, 0.9))

        # intercept invariance of the rank estimate, at the optimizer's
        # certified precision (the optimal face can be flat)
        b_base = fit_r_estimator(ds, 0.5).beta_tilde
        b_shift = fit_r_estimator(Dataset(y=ds.y + c, x=ds.x), 0.5).beta_tilde
        if np.max(np.abs(b_base - b_shift)) > 1e-6:
            failures += 1

        # regression equivariance of both estimators
        fit = fit_regression_quantile(ds, alpha)
        fit_g = fit_regression_quantile(Dataset(y=ds.y + ds.x @ gamma, x=ds.x), alpha)
        if np.max(np.abs(fit_g.beta_hat - fit.beta_hat - gamma)) > 1e-7:
            failures += 1
        b_gamma = fit_r_estimator(Dataset(y=ds.y + ds.x @ gamma, x=ds.x), 0.5).beta_tilde
        if np.max(np.abs(b_gamma - b_base - gamma)) > 1e-5:
            failures += 1

        # scale equivariance of the regression quantile
        fit_s = fit_regression_quantile(Dataset(y=scale * ds.y, x=ds.x), alpha)
        tol = 1e-7 * (1.0 + np.max(np.abs(fit.beta_hat)))
        if np.max(np.abs(fit_s.beta_hat - scale * fit.beta_hat)) > scale * tol:
            failures += 1

        # shift invariance of the centered process and monotonicity
        cp = centered_process(averaged_two_step_process(ds, 0.5))
        cp_shift = centered_process(
            averaged_two_step_process(Dataset(y=ds.y + c, x=ds.x), 0.5))
        if np.max(np.abs(cp.values - cp_shift.values)) > 1e-5:
            failures += 1
        if np.any(np.diff(cp.values) < 0):
            failures += 1
    report(5, f"invariance suite: 0 failures over {trials} randomized trials "
              f"(got {failures})", failures == 0)


def test_criterion_6_two_step_uniform_rate(two_step_reports):
    rep = next(r for r in two_step_reports
               if r.metric == "two_step_sup_dev_true_nuisance")
    report(6, f"two-step sup-deviation log-RMSE slope {rep.fitted_slope:.3f} "
              f"<= -0.35 (n = 100, 400, 1600; 200 replications)",
           rep.fitted_slope <= -0.35)


def test_criterion_7_r_estimator_rate():
    rep = rate_study_r_estimator(MC_CONFIG)
    report(7, f"slope-estimate log-RMSE slope {rep.fitted_slope:.3f} in "
              f"[-0.65, -0.35]", -0.65 <= rep.fitted_slope <= -0.35)


def test_criterion_8_cvar_consistency():
    # independent quadrature oracle: integral of z * phi(z) over the upper tail
    alpha = 0.9
    z_a = norm.ppf(alpha)
    tail_mean, _ = quad(lambda z: z * norm.pdf(z), z_a, np.inf)
    truth = tail_mean / (1.0 - alpha)
    assert truth == pytest.approx(norm.pdf(z_a) / (1.0 - alpha), abs=1e-10)

    rep = functional_consistency_study(MC_CONFIG, "cvar", alpha)
    rmse_100, rmse_1600 = rep.rmse[0], rep.rmse[-1]
    mean_err_1600 = rep.mean_error[-1]
    halved = rmse_1600 <= rmse_100 / 2.0
    close = abs(mean_err_1600) <= 0.05
    report(8, f"CVaR(0.9): RMSE {rmse_100:.4f} -> {rmse_1600:.4f} "
              f"(factor {rmse_100 / rmse_1600:.2f} >= 2) and mean estimate "
              f"within {abs(mean_err_1600):.4f} <= 0.05 of truth {truth:.4f}",
           halved and close)


def test_criterion_9_functional_unit_identities():
    proc5 = empirical_quantile_process(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    proc4 = empirical_quantile_process(np.array([1.0, 2.0, 3.0, 4.0]))
    ok = cvar(proc5, 0.6).value == 4.5
    ok &= lorenz(proc4, 0.5).value == 0.3
    ok &= mean_excess(proc4, 2.5).value == 1.0
    # J(0.5) on values 1..4: L(0.5) = 0.3 and 1 - L(0.5) = 0.7 per the
    # operation contract J = L(a) / (1 - L(1-a))
    ok &= abs(gastwirth_j(proc4, 0.5).value - 0.3 / 0.7) < 1e-15
    ok &= gastwirth_j(empirical_quantile_process(np.full(4, 2.0)), 0.5).value == 1.0
    report(9, "hand-computed functional values reproduced exactly "
              "(cvar 4.5, lorenz 0.3, mean_excess 1.0, J ratios)", ok)


def test_criterion_10_cli_determinism(tmp_path):
    golden = open(os.path.join(FIXTURES, "n200_fit_golden.json"), "rb").read()
    outputs = []
    for i, threads in enumerate(("1", "4")):
        out = tmp_path / f"run{i}.json"
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "quantfunc.cli", "--command", "fit",
             "--input", os.path.join(FIXTURES, "n200.csv"),
             "--response", "y", "--covariates", "x1,x2",
             "--alpha", "0.25,0.5,0.75", "--output", str(out)],
            env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    ok = outputs[0] == golden and outputs[1] == golden
    report(10, "CLI reports byte-identical to committed golden file across "
               "consecutive runs and thread counts", ok)
