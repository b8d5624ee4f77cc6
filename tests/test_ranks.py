import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantfunc import (Dataset, DataError, DomainError, fit_r_estimator,
                       jaeckel_dispersion)
from quantfunc.cli import main, read_csv_dataset
from quantfunc.model import check_loss_vec

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
    """The Jaeckel dispersion ``sum r_i (a_i - a_bar)`` by the rank formula."""
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


def exact_dispersion(r: np.ndarray, lam: float) -> Fraction:
    """``sum rho_lam(r_i - r_(k+1))``, k = int(n * lam), in exact arithmetic."""
    t = Fraction(float(np.sort(r)[int(r.shape[0] * lam)]))
    lam = Fraction(lam)
    return sum((u * (lam - (u < 0)) for u in (Fraction(float(v)) - t for v in r)),
               Fraction(0))


# Few distinct values, so that ties (and ties at the selected order
# statistic) are common; signed zeros are ties too.  A dataset with one
# covariate holds at least 3 rows.
tied_vectors = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0]),
                        min_size=3, max_size=40).map(np.array)
float_vectors = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3,
                         max_size=40).map(np.array)
# Levels in the open interval, including both ends' neighbours.
levels = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([5e-324, 1e-300, 1e-12, 1.0 - 1e-12, 1.0 - 2.0 ** -53]))


@st.composite
def whole_n_lambda(draw):
    """A vector whose length n is a power of two and a level m/n, so that
    n * lambda is exactly the whole number m."""
    n = 2 ** draw(st.integers(2, 5))
    lam = draw(st.integers(1, n - 1)) / n
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

    @given(r=st.one_of(tied_vectors, float_vectors), lam=levels)
    def test_equal_to_the_exact_check_loss(self, r, lam):
        self._assert_exact_check_loss(r, lam)

    @given(case=whole_n_lambda())
    def test_equal_to_the_exact_check_loss_at_whole_n_lambda(self, case):
        self._assert_exact_check_loss(*case)

    @staticmethod
    def _assert_exact_check_loss(r, lam):
        ds = Dataset(y=r, x=np.zeros((r.shape[0], 1)))
        d = jaeckel_dispersion(np.zeros(1), ds, lam)
        # No term cancels: 4 eps covers the roundings of r_i - t, lam - 1,
        # the products and the sum.  A product that underflows rounds by up
        # to half the smallest subnormal instead.
        exact = exact_dispersion(r, lam)
        slack = Fraction(r.shape[0], 2 ** 1075)
        assert abs(Fraction(d) - exact) <= 4 * Fraction(2.0 ** -52) * exact + slack

    @given(data=st.data(), lam=st.floats(0.01, 0.99))
    def test_equal_to_the_oracle_formula(self, data, lam):
        p = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(p + 2, 30))
        # Small whole numbers make tied residuals common.
        y = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), float)
        x = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n * p,
                                        max_size=n * p)), float).reshape(n, p)
        b = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 0.3]),
                                        min_size=p, max_size=p)))
        ds = Dataset(y=y, x=x)
        # The rank formula cancels to the size of the residuals' rounding.
        scale = float(np.abs(ds.y - ds.x @ b).sum())
        assert jaeckel_dispersion(b, ds, lam) == pytest.approx(
            oracle_dispersion(b, ds, lam), rel=1e-12, abs=1e-14 * scale)

    def test_overflowing_slopes_raise(self):
        with pytest.raises(DataError):
            jaeckel_dispersion(np.array([1e308]), self.ds4(), 0.5)
        # x @ b itself overflows
        ds = Dataset(y=np.arange(4.0), x=np.array([[0.0], [1.0], [2.0], [1e300]]))
        with pytest.raises(DataError):
            jaeckel_dispersion(np.array([1e10]), ds, 0.5)
        # inf - inf makes NaN residuals, here at the selected order statistic
        x = np.array([[2.0, -2.0], [3.0, -3.0], [4.0, -4.0], [1.0, 0.0]])
        ds = Dataset(y=np.arange(4.0), x=x)
        with pytest.raises(DataError):
            jaeckel_dispersion(np.array([1e308, 1e308]), ds, 0.5)

    def test_rejects_bad_lambda(self):
        with pytest.raises(DomainError):
            jaeckel_dispersion(np.array([0.0]), self.ds4(), 1.0)

    @pytest.mark.parametrize("b", [[], [0.0, 1.0]])
    def test_rejects_slopes_of_the_wrong_length(self, b):
        with pytest.raises(DataError, match="b must have length 1"):
            jaeckel_dispersion(np.array(b), self.ds4(), 0.5)

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

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_rejects_a_level_outside_the_unit_interval(self, lam):
        ds = Dataset(y=np.arange(5.0), x=np.arange(5.0)[:, None] % 3)
        with pytest.raises(DomainError, match=f"lambda must be in \\(0, 1\\), got {lam}"):
            fit_r_estimator(ds, lam)

    def test_golden_fit_is_the_pinned_certified_optimum(self):
        # The n200 fit lands on this exact vertex.  Its certificate, checked
        # here apart from the solver: the slopes with the lower 0.5-quantile
        # of their residuals interpolate q = 3 observations, and the
        # Koenker-Bassett multipliers of those lie in [lam - 1, lam].
        ds = read_csv_dataset(os.path.join(FIXTURES, "n200.csv"), "y", ["x1", "x2"])
        lam = 0.5
        est = fit_r_estimator(ds, lam)
        assert est.dispersion.hex() == "0x1.5c9c456e5c7a2p+6"   # 87.15260860862193
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

    @pytest.mark.parametrize("lam, offset", [
        (0.5, 0.0), (1e-16, 0.0), (1e-40, 0.0), (1.0 - 1e-16, 0.0), (0.5, 1e9)])
    def test_reported_dispersion_is_the_exact_check_loss(self, tmp_path, capsys,
                                                         lam, offset):
        # The rank-score form sum r_i (a_i - a_bar) cancels at these levels
        # and offsets: it reads 0.0 at lam = 1e-40 and is 28 % off at
        # 1 - 1e-16.  The check loss has no cancelling terms.
        ds = read_csv_dataset(os.path.join(FIXTURES, "n200.csv"), "y", ["x1", "x2"])
        ds = Dataset(y=ds.y + offset, x=ds.x)
        data = tmp_path / "n200.csv"
        rows = np.column_stack([ds.x, ds.y]).tolist()
        data.write_text("x1,x2,y\n" + "".join(",".join(map(repr, row)) + "\n"
                                               for row in rows))
        report = tmp_path / "fit.json"
        assert main(["--command", "fit", "--input", str(data), "--response", "y",
                     "--covariates", "x1,x2", "--lambda", repr(lam),
                     "--output", str(report)]) == 0
        assert capsys.readouterr().err == ""
        fit = json.loads(report.read_text())
        exact = exact_dispersion(ds.y - ds.x @ np.array(fit["slopes"]), lam)
        assert abs(Fraction(fit["dispersion"]) - exact) <= 2 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("ds, lam", [
        (Dataset(y=np.zeros(3), x=[[1.0], [2.0], [0.0]]), 0.25),
        (Dataset(y=np.zeros(3), x=[[1.0], [2.0], [0.0]]), 0.37),
        (Dataset(y=np.zeros(3), x=[[1.0], [2.0], [0.0]]), 0.5),
        (Dataset(y=np.zeros(6), x=np.random.default_rng(1).uniform(size=(6, 1))), 0.5),
        # past the preprocessing threshold: the band's start is exact too
        (Dataset(y=np.zeros(2000), x=np.random.default_rng(1).uniform(size=(2000, 1))), 0.5),
    ], ids=["three_rows_0.25", "three_rows_0.37", "three_rows_0.5", "six_rows_0.5",
            "banded_2000_rows_0.5"])
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
