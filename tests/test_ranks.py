import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantfunc import (Dataset, DataError, DomainError, fit_r_estimator,
                       jaeckel_dispersion)
from quantfunc.cli import read_csv_dataset
from quantfunc.model import check_loss_vec
from quantfunc.ranks import _scores

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties broken by original index (stable)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=float)
    ranks[order] = np.arange(1, values.shape[0] + 1)
    return ranks


def oracle_scores(values: np.ndarray, lam: float) -> np.ndarray:
    """The rank formula of the Hajek scores, by a full stable sort."""
    return np.clip(_ranks(values) - values.shape[0] * lam, 0.0, 1.0)


def oracle_dispersion(b, ds, lam: float) -> float:
    residuals = ds.y - ds.x @ np.asarray(b, dtype=float)
    scores = oracle_scores(residuals, lam)
    return float(residuals @ (scores - float(scores.mean())))


def centered_dispersion(b, ds, lam: float) -> float:
    """Intercept-free form ``sum (y_i - y_bar - (x_i - x_bar)'b) a_i``.

    Algebraically equal to the Jaeckel dispersion because the centered
    scores sum to zero.
    """
    b = np.asarray(b, dtype=float)
    scores = oracle_scores(ds.y - ds.x @ b, lam)
    return float(((ds.y - ds.y_mean) - (ds.x - ds.x_mean) @ b) @ scores)


# Few distinct values, so that ties (and ties at the selected order
# statistic) are common; signed zeros are ties too.
tied_vectors = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0]),
                        min_size=1, max_size=40).map(np.array)
float_vectors = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1,
                         max_size=40).map(np.array)
# Levels in the open interval, including both ends' neighbours.
levels = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.0 ** -53]))


@st.composite
def whole_n_lambda(draw):
    """A vector whose length n is a power of two and a level m/n, so that
    n * lambda is exactly the whole number m."""
    n = 2 ** draw(st.integers(0, 5))
    m = draw(st.integers(1, n - 1)) if n > 1 else 1
    lam = m / n if n > 1 else 0.5
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                           min_size=n, max_size=n))
    return np.array(values), lam


def grid_refine_minimum(ds, lam, lo=-10.0, hi=10.0):
    """Brute-force 1-d minimum by dense grid plus local refinement.

    Valid oracle because the dispersion is piecewise-linear convex in b.
    """
    grid = np.linspace(lo, hi, 2001)
    vals = np.array([jaeckel_dispersion(np.array([b]), ds, lam) for b in grid])
    k = int(np.argmin(vals))
    a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    best = vals[k]
    for _ in range(4):
        g = np.linspace(a, b, 401)
        v = np.array([jaeckel_dispersion(np.array([t]), ds, lam) for t in g])
        k = int(np.argmin(v))
        a, b = g[max(0, k - 1)], g[min(len(g) - 1, k + 1)]
        best = float(v[k])
    return best


class TestHajekScores:
    def test_four_point_example(self):
        scores = _scores(np.array([10.0, 20.0, 30.0, 40.0]), 0.5)
        assert scores == pytest.approx([0.0, 0.0, 1.0, 1.0])
        assert scores.mean() == pytest.approx(0.5)

    def test_single_observation_middle_branch(self):
        # rank 1 with n*lambda = 0.5 falls in the middle branch: 1 - 0.5
        assert _scores(np.array([7.0]), 0.5) == pytest.approx([0.5])

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            scores = _scores(rng.standard_normal(n), float(rng.uniform(0.05, 0.95)))
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_integer_n_lambda_branch_counts(self):
        # with n*lambda integer and distinct residuals: one fractional score
        # of zero, ceil(n(1-lambda)) - ... -> exactly n - n*lambda ones
        n, lam = 8, 0.25
        scores = _scores(np.arange(n, dtype=float), lam)
        nl = n * lam
        ones = int(np.sum(scores == 1.0))
        zeros = int(np.sum(scores == 0.0))
        assert ones == n - int(nl)
        assert zeros == int(nl)

    def test_mean_score_invariant_in_residual_configuration(self):
        # without ties the mean score depends only on (n, lambda)
        rng = np.random.default_rng(2)
        n, lam = 11, 0.37
        means = {float(_scores(rng.standard_normal(n), lam).mean())
                 for _ in range(10)}
        assert max(means) - min(means) < 1e-12

    @given(values=st.one_of(tied_vectors, float_vectors), lam=levels)
    def test_equal_to_the_rank_formula_bitwise(self, values, lam):
        got = _scores(values, lam)
        assert got.tobytes() == oracle_scores(values, lam).tobytes()

    @given(case=whole_n_lambda())
    def test_equal_to_the_rank_formula_at_whole_n_lambda(self, case):
        values, lam = case
        got = _scores(values, lam)
        assert got.tobytes() == oracle_scores(values, lam).tobytes()

    def test_tied_scores_follow_index_order(self):
        # n*lambda = 1.5: the stable ranks of the four 2.0s are 2..5, so the
        # first tie scores 0.5 and the later ones 1.
        scores = _scores(np.array([2.0, 1.0, 2.0, 2.0, 2.0]), 0.3)
        assert scores.tolist() == [0.5, 0.0, 1.0, 1.0, 1.0]


class TestJaeckelDispersion:
    def ds4(self):
        return Dataset(y=np.array([1.0, 2.0, 3.0, 4.0]),
                       x=np.array([[0.0], [1.0], [2.0], [3.0]]))

    def test_hand_example(self):
        assert jaeckel_dispersion(np.array([0.0]), self.ds4(), 0.5) == pytest.approx(2.0)

    def test_constant_residuals_vanish(self):
        # b = 1 makes all residuals equal; the centered-score sum is zero
        assert jaeckel_dispersion(np.array([1.0]), self.ds4(), 0.5) == pytest.approx(0.0)

    def test_exact_fit_zero(self):
        x = np.arange(5.0).reshape(-1, 1)
        ds = Dataset(y=5.0 + 2.0 * x[:, 0], x=x)
        assert jaeckel_dispersion(np.array([2.0]), ds, 0.3) == pytest.approx(0.0)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = int(rng.integers(1, 4))
            n = int(rng.integers(p + 2, 20))
            ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
            b = rng.standard_normal(p)
            lam = float(rng.uniform(0.1, 0.9))
            d1 = jaeckel_dispersion(b, ds, lam)
            d2 = centered_dispersion(b, ds, lam)
            assert d1 == pytest.approx(d2, rel=1e-10, abs=1e-10)

    def test_rejects_p0(self):
        ds = Dataset(y=np.arange(4.0), x=np.zeros((4, 0)))
        with pytest.raises(DataError):
            jaeckel_dispersion(np.zeros(0), ds, 0.5)

    @given(data=st.data(), lam=levels)
    def test_equal_to_the_oracle_formula_bitwise(self, data, lam):
        p = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(p + 2, 30))
        # Small whole numbers make tied residuals common.
        y = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
        x = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * p,
                                        max_size=n * p)), float).reshape(n, p)
        b = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 0.3]),
                                        min_size=p, max_size=p)))
        ds = Dataset(y=y, x=x)
        assert jaeckel_dispersion(b, ds, lam) == oracle_dispersion(b, ds, lam)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_slopes_raise(self):
        with pytest.raises(DataError):
            jaeckel_dispersion(np.array([1e308]), self.ds4(), 0.5)
        # inf - inf makes NaN residuals, here at the selected order statistic
        x = np.array([[2.0, -2.0], [3.0, -3.0], [4.0, -4.0], [1.0, 0.0]])
        ds = Dataset(y=np.arange(4.0), x=x)
        with pytest.raises(DataError):
            jaeckel_dispersion(np.array([1e308, 1e308]), ds, 0.5)

    def test_rejects_bad_lambda(self):
        with pytest.raises(DomainError):
            jaeckel_dispersion(np.array([0.0]), self.ds4(), 1.0)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, p = 15, 2
            ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
            b1, b2 = rng.standard_normal(p), rng.standard_normal(p)
            lam = 0.5
            mid = jaeckel_dispersion((b1 + b2) / 2, ds, lam)
            ends = (jaeckel_dispersion(b1, ds, lam) + jaeckel_dispersion(b2, ds, lam)) / 2
            assert mid <= ends + 1e-10


class TestFitREstimator:
    def test_noiseless_line(self):
        x = np.arange(5.0).reshape(-1, 1)
        ds = Dataset(y=5.0 + 2.0 * x[:, 0], x=x)
        for lam in (0.25, 0.5, 0.75):
            est = fit_r_estimator(ds, lam)
            assert est.beta_tilde[0] == pytest.approx(2.0, abs=1e-7)
            assert est.dispersion == pytest.approx(0.0, abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            ds = Dataset(y=rng.standard_normal(n) * 2, x=rng.standard_normal((n, 1)))
            lam = float(rng.uniform(0.2, 0.8))
            est = fit_r_estimator(ds, lam)
            assert est.dispersion <= grid_refine_minimum(ds, lam) + 1e-6

    def test_intercept_invariance_exact(self):
        rng = np.random.default_rng(6)
        ds = Dataset(y=rng.standard_normal(12), x=rng.standard_normal((12, 2)))
        base = fit_r_estimator(ds, 0.5)
        shifted = fit_r_estimator(Dataset(y=ds.y + 117.5, x=ds.x), 0.5)
        assert shifted.beta_tilde == pytest.approx(base.beta_tilde, abs=1e-8)

    def test_regression_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ds = Dataset(y=rng.standard_normal(15), x=rng.standard_normal((15, 2)))
            gamma = rng.standard_normal(2)
            base = fit_r_estimator(ds, 0.5)
            shifted = fit_r_estimator(Dataset(y=ds.y + ds.x @ gamma, x=ds.x), 0.5)
            assert shifted.beta_tilde == pytest.approx(base.beta_tilde + gamma,
                                                       abs=1e-6)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(8)
        ds = Dataset(y=rng.standard_normal(15), x=rng.standard_normal((15, 1)))
        base = fit_r_estimator(ds, 0.5)
        scaled = fit_r_estimator(Dataset(y=4.0 * ds.y, x=ds.x), 0.5)
        assert scaled.beta_tilde == pytest.approx(4.0 * base.beta_tilde,
                                                  rel=1e-5, abs=1e-6)

    def test_dispersion_nonnegative_and_consistent(self):
        rng = np.random.default_rng(9)
        ds = Dataset(y=rng.standard_normal(20), x=rng.standard_normal((20, 2)))
        est = fit_r_estimator(ds, 0.4)
        assert est.dispersion >= -1e-12
        recomputed = jaeckel_dispersion(est.beta_tilde, ds, 0.4)
        assert est.dispersion == pytest.approx(recomputed, rel=1e-8, abs=1e-10)

    def test_rejects_p0(self):
        ds = Dataset(y=np.arange(5.0), x=np.zeros((5, 0)))
        with pytest.raises(DataError):
            fit_r_estimator(ds, 0.5)

    def test_golden_fit_is_the_pinned_certified_optimum(self):
        # The n200 fit lands on this exact vertex.  Its certificate, checked
        # here apart from the solver: the slopes with the lower 0.5-quantile
        # of their residuals interpolate q = 3 observations, and the
        # Koenker-Bassett multipliers of those lie in [lam - 1, lam].
        ds = read_csv_dataset(os.path.join(FIXTURES, "n200.csv"), "y", ["x1", "x2"])
        lam = 0.5
        est = fit_r_estimator(ds, lam)
        assert est.dispersion.hex() == "0x1.5c9c456e5c7a1p+6"   # 87.15260860862192
        assert [b.hex() for b in est.beta_tilde] == ["0x1.13cbf1a78e47cp+1",
                                                     "-0x1.6fd73ccc283c0p-1"]
        assert est.iterations == 9
        r = ds.y - ds.x @ est.beta_tilde
        r = r - np.sort(r)[int(ds.n * lam) - 1]
        basis = np.argsort(np.abs(r), kind="stable")[:3]
        assert np.max(np.abs(r[basis])) < 1e-14
        assert np.min(np.abs(np.delete(r, basis))) > 1e-4
        design = np.column_stack([np.ones(ds.n), ds.x])
        psi = np.where(r < 0.0, lam - 1.0, lam)
        psi[basis] = 0.0
        multipliers = -np.linalg.solve(design[basis].T, design.T @ psi)
        assert np.all((lam - 1.0 < multipliers) & (multipliers < lam))
        assert math.fsum(check_loss_vec(r, lam)) == pytest.approx(est.dispersion,
                                                                  rel=1e-14)

    @pytest.mark.parametrize("ds, lam", [
        (Dataset(y=np.zeros(3), x=[[1.0], [2.0], [0.0]]), 0.25),
        (Dataset(y=np.zeros(3), x=[[1.0], [2.0], [0.0]]), 0.37),
        (Dataset(y=np.zeros(3), x=[[1.0], [2.0], [0.0]]), 0.5),
        (Dataset(y=np.zeros(6), x=np.random.default_rng(1).uniform(size=(6, 1))), 0.5),
    ], ids=["three_rows_0.25", "three_rows_0.37", "three_rows_0.5", "six_rows_0.5"])
    def test_zero_response_is_fitted_at_once(self, ds, lam):
        # The least-squares start is exact, so the gap is 0 before any
        # iteration: no division by a zero multiplier, no warning.
        with np.errstate(all="raise"):
            est = fit_r_estimator(ds, lam)
        assert est.beta_tilde.tolist() == [0.0]
        assert est.dispersion == 0.0
        assert est.iterations == 0

    def test_singular_design_rejected(self):
        from quantfunc import IdentifiabilityError
        x = np.array([[1.0, 2.0]] * 5)  # zero centered scatter
        ds = Dataset(y=np.arange(5.0), x=x)
        with pytest.raises(IdentifiabilityError):
            fit_r_estimator(ds, 0.5)
