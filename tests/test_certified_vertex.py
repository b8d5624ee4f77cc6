"""The check-loss LPs and their certified vertices, against independent oracles.

``regression._certified_vertices`` yields the vertex of the lambda-regression
quantile LP whose slope part ``fit_r_estimator`` reports, and
``fit_regression_quantile`` ends its simplex in the same certificate.  HiGHS
(scipy, from the ``test`` extra) and the enumeration of all interpolating
vertices are the oracles; neither shares code with the solvers or their
pivots.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

import quantfunc.regression as regression
from quantfunc import (Dataset, SolverFailure, fit_r_estimator, fit_regression_quantile,
                       jaeckel_dispersion)
from quantfunc.cli import main
from quantfunc.regression import _certified_vertices

RTOL = 1e-12


def check_loss(y, x, coef, tau):
    r = y - coef[0] - x @ coef[1:]
    return math.fsum(np.where(r < 0.0, (tau - 1.0) * r, tau * r))


def highs_optimum(y, x, tau):
    """Minimum check loss: HiGHS on the primal LP, its vertex re-solved from
    the q observations it fits most closely."""
    n, q = y.size, x.shape[1] + 1
    design = np.column_stack([np.ones(n), x])
    cost = np.concatenate([np.zeros(q), np.full(n, tau), np.full(n, 1.0 - tau)])
    res = linprog(cost, A_eq=np.hstack([design, np.eye(n), -np.eye(n)]), b_eq=y,
                  bounds=[(None, None)] * q + [(0.0, None)] * (2 * n), method="highs")
    assert res.status == 0, res.message
    rows = []
    for i in np.argsort(np.abs(y - design @ res.x[:q]), kind="stable"):
        if np.linalg.matrix_rank(design[rows + [i]]) > len(rows):
            rows.append(int(i))
            if len(rows) == q:
                break
    polished = np.linalg.solve(design[rows], y[rows])
    return min(check_loss(y, x, res.x[:q], tau), check_loss(y, x, polished, tau))


def enumerated_optimum(y, x, tau):
    """Minimum check loss over every vertex: each fit through q observations."""
    n, q = y.size, x.shape[1] + 1
    design = np.column_stack([np.ones(n), x])
    return min(check_loss(y, x, np.linalg.solve(design[list(h)], y[list(h)]), tau)
               for h in combinations(range(n), q)
               if np.linalg.matrix_rank(design[list(h)]) == q)


def assert_optimal_vertex(y, x, tau, oracle=highs_optimum):
    ds = Dataset(y=y, x=x)
    coef, _ = next(_certified_vertices(ds.y[None], ds.x[None], tau))
    assert check_loss(y, x, coef, tau) == pytest.approx(oracle(y, x, tau),
                                                        rel=RTOL, abs=1e-12)
    r = y - coef[0] - x @ coef[1:]
    assert np.count_nonzero(np.abs(r) <= 1e-9 * (1.0 + np.max(np.abs(y)))) >= x.shape[1] + 1
    return coef


def uniform_design_set(seed, p=2, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, p))
    return 1.0 + x.sum(axis=1) + rng.standard_normal(n), x


def tied_integer_sets():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(6, 61))
        y = rng.integers(0, 5, n).astype(float)
        x = rng.integers(0, 4, (n, p)).astype(float)
        yield y, x


@pytest.mark.parametrize("seed", range(100, 140))
def test_sixty_row_sets_reach_the_optimum(seed):
    # Derivative-free searches over the dispersion stop above the optimum on
    # most of these 40 datasets.
    y, x = uniform_design_set(seed)
    coef = assert_optimal_vertex(y, x, 0.5)
    est = fit_r_estimator(Dataset(y=y, x=x), 0.5)
    assert est.beta_tilde.tolist() == coef[1:].tolist()
    assert est.dispersion == pytest.approx(check_loss(y, x, coef, 0.5), rel=1e-13)


def test_five_covariate_set_reaches_the_optimum():
    rng = np.random.default_rng(136)
    x = rng.uniform(0.0, 1.0, (60, 5))
    y = rng.standard_normal(60)
    est = fit_r_estimator(Dataset(y=y, x=x), 0.5)
    coef = assert_optimal_vertex(y, x, 0.5)
    assert est.beta_tilde.tolist() == coef[1:].tolist()


def test_every_tied_integer_set_is_certified():
    certified = 0
    for y, x in tied_integer_sets():
        assert_optimal_vertex(y, x, 0.5)
        certified += 1
    assert certified == 300


def test_duplicated_rows():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(p + 2, 15))
        copies = rng.integers(1, 4, m)
        x = np.repeat(rng.standard_normal((m, p)), copies, axis=0)
        y = np.repeat(rng.standard_normal(m), copies)
        assert_optimal_vertex(y, x, float(rng.uniform(0.1, 0.9)))


@pytest.mark.parametrize("n, p, lam", [(61, 2, 0.5), (97, 3, 0.37)])
def test_level_with_fractional_n_lambda(n, p, lam):
    y, x = uniform_design_set(n, p=p, n=n)
    coef = assert_optimal_vertex(y, x, lam)
    # The dispersion, the check loss about r_(k+1) with k = floor(n * lam),
    # is the loss at the fit's own intercept: both are best intercepts, also
    # when n * lam is not whole.
    assert jaeckel_dispersion(coef[1:], Dataset(y=y, x=x), lam) == pytest.approx(
        check_loss(y, x, coef, lam), rel=1e-13)


@pytest.mark.parametrize("p", [2, 3])
def test_matches_vertex_enumeration(p):
    rng = np.random.default_rng(20 + p)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, (9, p))
        y = x @ np.arange(1.0, p + 1.0) + rng.standard_normal(9)
        for tau in (0.25, 0.5, 0.8):
            assert_optimal_vertex(y, x, tau, oracle=enumerated_optimum)


def test_an_uncertified_vertex_is_never_returned(monkeypatch):
    # Without interior-point iterations the dual bound is the trivial d = 0,
    # which no vertex of positive loss meets: the pivots end at the optimum,
    # and the fit raises with that vertex instead of returning it.
    y, x = uniform_design_set(100)
    want = highs_optimum(y, x, 0.5)
    monkeypatch.setattr(regression, "_IPM_MAX_ITER", 0)
    with pytest.raises(SolverFailure) as info:
        fit_r_estimator(Dataset(y=y, x=x), 0.5)
    assert check_loss(y, x, info.value.best, 0.5) == pytest.approx(want, rel=RTOL)


def test_an_uncertified_regression_quantile_is_never_returned(monkeypatch):
    # The reduced costs of zero row duals are the costs themselves: with
    # d = 0 no vertex of positive loss is certified, so the fit raises with
    # the optimal vertex the pivots reach.
    y, x = uniform_design_set(100)
    want = highs_optimum(y, x, 0.25)
    solve = regression.solve_simplex
    monkeypatch.setattr(regression, "solve_simplex",
                        lambda c, a, b, basis: (solve(c, a, b, basis)[0], c))
    with pytest.raises(SolverFailure) as info:
        fit_regression_quantile(Dataset(y=y, x=x), 0.25)
    assert check_loss(y, x, info.value.best, 0.25) == pytest.approx(want, rel=RTOL)


def fit_csv(tmp_path, capsys, text, covariates):
    path = tmp_path / "data.csv"
    path.write_text(text)
    code = main(["--command", "fit", "--input", str(path), "--response", "y",
                 "--covariates", covariates])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return json.loads(out)["slopes"]


def test_exact_fit_with_a_large_intercept_is_certified(tmp_path, capsys):
    # The line y = 300 x - 168.6: the vertex's rounding loss, 5.7e-15, is
    # that of its fitted values, far above eps times sum |y|.
    slopes = fit_csv(tmp_path, capsys, "y,x\n-0.6,0.56\n0,0.562\n-0.6,0.56\n0,0.562\n", "x")
    assert slopes == [pytest.approx(300.0, rel=1e-12)]


@pytest.mark.parametrize("lam", [1e-10, 1e-8])
def test_tiny_levels_reach_the_optimum(lam):
    # Both levels lie below 1/n, so the fit solves at 1/(2n); HiGHS, at the
    # caller's level, checks that the vertex found there is optimal at lam.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((100, 1))
        assert_optimal_vertex(rng.standard_cauchy(100), x, lam)


def test_rows_dependent_to_working_precision_fail_in_one_line(tmp_path, capsys):
    # Nanosecond timestamps over a year: V_n is regular, but every pair of
    # rows (1, t_i) is dependent to working precision, so no vertex is found.
    rng = np.random.default_rng(0)
    t = (1.7e18 + rng.uniform(0.0, 3.15e16, 200)).tolist()
    path = tmp_path / "stamps.csv"
    path.write_text("y,t\n" + "".join(f"{v!r},{s!r}\n"
                                      for v, s in zip(rng.standard_normal(200).tolist(), t)))
    for command in (["fit"], ["functional", "--functional", "cvar", "--level", "0.5"]):
        code = main(["--command", *command, "--input", str(path), "--response", "y",
                     "--covariates", "t"])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("error:solver: no vertex: ") and "nan" not in err
        assert "independent to working precision" in err


def test_copies_of_basis_rows_fit_the_exact_plane(tmp_path, capsys):
    rows = "0,-2,-3\n0,3,-2\n2,-1,-3\n"
    slopes = fit_csv(tmp_path, capsys, "y,x1,x2\n" + rows * 2, "x1,x2")
    assert slopes == pytest.approx([2.0, -10.0], rel=1e-12)


def test_a_singular_basis_ends_the_pivots(monkeypatch):
    # With every vertex refused, the pivot from the exact plane lets a copy
    # of a basis row enter; the singular basis ends the pivots with the best
    # vertex seen instead of a LinAlgError.
    y = np.array([0.0, 0.0, 2.0] * 2)
    x = np.array([[-2.0, -3.0], [3.0, -2.0], [-1.0, -3.0]] * 2)
    a, r, _ = regression._interior_point(y[None], x[None], 0.5)
    d = np.clip(a[0], 0.0, 1.0) - 0.5
    monkeypatch.setattr(regression, "_floor", lambda y, x: np.full(y.shape[0], -1.0))
    with pytest.raises(SolverFailure) as info:
        regression._vertex(y, x, 0.5, a[0], d, r[0], None, 0)
    assert info.value.best == pytest.approx([-26.0, 2.0, -10.0], rel=1e-12)


def full_order(a, r):
    """Every observation of each problem in _lead's order, by one full sort."""
    return np.lexsort((np.abs(r), -np.minimum(a, 1.0 - a)), axis=-1)


def test_lead_ranks_a_row_whole_when_a_nan_is_among_its_least_keys():
    # Row 1 has two finite keys for q = 3, so its third least key is NaN and
    # every key of the row is a candidate: NaN keys rank last, then by |r|.
    a = np.array([[0.2, 0.9, 0.5, 0.1, 0.7], [np.nan, 0.3, np.nan, np.nan, 0.6]])
    r = np.array([[1.0, -2.0, 0.0, 3.0, -1.0], [0.5, -0.5, 2.0, 1.0, 0.0]])
    lead = regression._lead(a, r, 3)
    assert lead.tolist() == full_order(a, r)[:, :3].tolist() == [[2, 4, 0], [4, 1, 0]]


def test_lead_is_the_head_of_the_full_order():
    # Half the keys and residuals come from a few values, so ties are
    # common, with NaN, both infinities and both zeros among them; q = n is
    # the full order.
    rng = np.random.default_rng(32)
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 2.0])
    for _ in range(1000):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        a, r = (np.where(rng.random(shape) < 0.5, rng.choice(values, shape),
                         rng.uniform(-0.5, 1.5, shape)) for _ in range(2))
        order = full_order(a, r)
        for q in range(1, shape[1] + 1):
            assert regression._lead(a, r, q).tolist() == order[:, :q].tolist()


def test_traced_peak_stays_linear_and_lean():
    # An n x q temporary, or a normal matrix built from one, would show here.
    n = 20_000
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (n, 5))
    ds = Dataset(y=x.sum(axis=1) + rng.standard_normal(n), x=x)
    tracemalloc.start()
    try:
        fit_r_estimator(ds, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * n


FIT_HASH_SCRIPT = """
import hashlib, numpy as np
from quantfunc import Dataset, fit_r_estimator
h = hashlib.sha256()
for seed, n, p in [([0, 1], 20000, 1), ([0, 2], 20000, 2), ([0, 5], 20000, 5),
                   *[(s, 60, 2) for s in range(100, 140)]]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, p))
    ds = Dataset(y=x.sum(axis=1) + rng.standard_normal(n), x=x)
    h.update(fit_r_estimator(ds, 0.5).beta_tilde.tobytes())
print(h.hexdigest())
"""


def test_fits_are_bitwise_equal_across_blas_thread_counts():
    digests = set()
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", FIT_HASH_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


N200 = os.path.join(os.path.dirname(__file__), "fixtures", "n200.csv")


def cli_report(capsys, command, lam):
    code = main(["--command", *command, "--input", N200, "--response", "y",
                 "--covariates", "x1,x2", "--lambda", lam])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    report = json.loads(out)
    return report.pop("lambda"), report.pop("dispersion", None), report


@pytest.mark.parametrize("lam", ["1e-16", "1e-150", "1e-160", "1e-200", "1e-300", "5e-324",
                                 "0.9999", "0.9999999999999999"])
def test_a_tiny_level_fits_or_fails_in_one_line(capsys, lam):
    # Within 1/n of 0 or 1 every level has the minimizers of 1/(2n) or
    # 1 - 1/(2n), so n200 reports the slopes of 0.004 or 0.996, both inside
    # [1/(2n), 1 - 1/(2n)]; only the level and the dispersion differ.
    inside = "0.004" if float(lam) < 0.5 else "0.996"
    for command in (["fit"], ["functional", "--functional", "cvar", "--level", "0.5"]):
        got, want = cli_report(capsys, command, lam), cli_report(capsys, command, inside)
        assert got[0] == float(lam)
        assert got[2] == want[2]
