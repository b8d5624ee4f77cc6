import os
import warnings
from decimal import ROUND_CEILING, Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import quantfunc.cli as cli
import quantfunc.model as model
import quantfunc.ranks as ranks
from quantfunc import (Dataset, DataError, DomainError, ErrorDistribution,
                       IdentifiabilityError, SimulationConfig, StepQuantileProcess,
                       design_diagnostics, empirical_quantile_process, fit_r_estimator,
                       functional_consistency_study, order_index,
                       rate_study_r_estimator, rate_study_two_step)
from quantfunc.model import check_loss_vec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestCheckLoss:
    def test_zero_residual(self):
        assert check_loss_vec(0.0, 0.3) == 0.0

    def test_median_is_half_abs(self):
        assert check_loss_vec([2.0, -2.0], 0.5).tolist() == [1.0, 1.0]

    def test_negative_branch(self):
        assert check_loss_vec(-1.0, 0.25) == pytest.approx(0.75)

    @given(u=finite_floats, alpha=st.floats(min_value=0.01, max_value=0.99))
    def test_complement_identity(self, u, alpha):
        # rho_a(u) + rho_a(-u) = |u|, equivalently rho_a(u) + rho_{1-a}(u)
        total = check_loss_vec(u, alpha) + check_loss_vec(-u, alpha)
        assert total == pytest.approx(abs(u), rel=1e-12, abs=1e-12)
        total2 = check_loss_vec(u, alpha) + check_loss_vec(u, 1.0 - alpha)
        assert total2 == pytest.approx(abs(u), rel=1e-12, abs=1e-12)


class TestOrderIndex:
    @pytest.mark.parametrize("alpha,n,expected", [
        (0.5, 10, 5),
        (0.01, 10, 1),
        (0.95, 20, 19),
        (0.6, 4, 3),
    ])
    def test_examples(self, alpha, n, expected):
        assert order_index(alpha, n) == expected
        assert type(order_index(alpha, n)) is int

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            order_index(1.0, 10)

    def test_decimal_level_is_read_exactly(self):
        # 100 * 0.55 is 55.00000000000001 in binary
        assert order_index(0.55, 100) == 55
        assert empirical_quantile_process(np.arange(1.0, 101.0))(0.55) == 55.0

    @given(n=st.integers(min_value=1, max_value=10**6),
           a=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
    def test_rank_is_the_exact_decimal_ceiling(self, n, a):
        exact = (Decimal(repr(a)) * n).to_integral_value(rounding=ROUND_CEILING)
        assert order_index(a, n) == max(1, int(exact))

    @given(n=st.integers(min_value=1, max_value=500),
           a=st.floats(min_value=0.01, max_value=0.99),
           b=st.floats(min_value=0.01, max_value=0.99))
    def test_nondecreasing_in_alpha(self, n, a, b):
        lo, hi = min(a, b), max(a, b)
        assert order_index(lo, n) <= order_index(hi, n)

    @given(n=st.integers(min_value=1, max_value=500),
           a=st.floats(min_value=0.001, max_value=0.999))
    def test_in_range(self, n, a):
        idx = order_index(a, n)
        assert 1 <= idx <= n


class TestEmpiricalQuantileProcess:
    def test_median_of_three(self):
        proc = empirical_quantile_process([3.0, 1.0, 2.0])
        assert proc(0.5) == 2.0

    def test_single_observation(self):
        proc = empirical_quantile_process([5.0])
        for a in (0.1, 0.5, 0.9):
            assert proc(a) == 5.0

    def test_third_order_statistic(self):
        proc = empirical_quantile_process([1.0, 2.0, 3.0, 4.0])
        assert proc(0.6) == 3.0

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            empirical_quantile_process([])

    @given(values=arrays(np.float64, st.integers(min_value=1, max_value=40),
                         elements=finite_floats))
    def test_nondecreasing_in_alpha(self, values):
        proc = empirical_quantile_process(values)
        grid = np.linspace(0.02, 0.98, 25)
        evals = [proc(a) for a in grid]
        assert all(x <= y for x, y in zip(evals, evals[1:]))

    def test_breakpoint_count(self):
        proc = empirical_quantile_process(np.arange(7.0))
        assert len(proc.breakpoints()) == 7


class TestStepQuantileProcess:
    def test_order_check_does_not_overflow(self):
        # Finite and sorted, though the difference of the two overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proc = StepQuantileProcess(values=[-1.7e308, 1.7e308])
            assert proc.values.tolist() == [-1.7e308, 1.7e308]
            with pytest.raises(DataError, match="sorted"):
                StepQuantileProcess(values=[1.7e308, -1.7e308])


class TestDataset:
    def test_rejects_too_few_rows(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), x=np.zeros((2, 1)))

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, np.nan, 2.0]), x=np.zeros((3, 0)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(DataError):
            Dataset(y=np.arange(4.0), x=np.zeros((3, 1)))

    def test_accessors(self):
        ds = Dataset(y=np.array([1.0, 3.0, 5.0]), x=np.array([[0.0], [1.0], [2.0]]))
        assert ds.n == 3 and ds.p == 1
        assert ds.y_mean == 3.0
        assert ds.x_mean[0] == 1.0


class TestDesignDiagnostics:
    def test_p0_all_zero(self):
        ds = Dataset(y=np.arange(5.0), x=np.zeros((5, 0)))
        diag = design_diagnostics(ds)
        assert diag.max_centered_norm == 0.0
        assert diag.max_leverage == 0.0
        assert diag.v_n_over_n_spectral_norm == 0.0
        assert diag.x1_suspect is False

    def test_hand_example(self):
        ds = Dataset(y=np.zeros(3), x=np.array([[0.0], [1.0], [2.0]]))
        diag = design_diagnostics(ds)
        assert diag.v_n == pytest.approx(np.array([[2.0]]))
        assert diag.max_centered_norm == pytest.approx(1.0)
        assert diag.max_leverage == pytest.approx(0.5)

    def test_collinear_columns_singular_marker(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        ds = Dataset(y=np.zeros(4), x=x)
        diag = design_diagnostics(ds)
        assert diag.max_leverage is None
        assert np.isfinite(diag.max_centered_norm)

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 2))
        ds = Dataset(y=np.zeros(12), x=x)
        ds_shift = Dataset(y=np.zeros(12), x=x + np.array([5.0, -3.0]))
        d1, d2 = design_diagnostics(ds), design_diagnostics(ds_shift)
        assert d1.v_n == pytest.approx(d2.v_n, rel=1e-9, abs=1e-9)
        assert d1.max_centered_norm == pytest.approx(d2.max_centered_norm)
        assert d1.max_leverage == pytest.approx(d2.max_leverage)

    def test_the_fit_rejects_exactly_the_singular_designs(self):
        # A p x p test of V_n's eigenvalues decides both the diagnostics'
        # singular marker and the fit's IdentifiabilityError.
        rng = np.random.default_rng(7)
        x1 = rng.uniform(size=30)
        designs = [np.column_stack([x1, 2.0 * x1]),
                   np.column_stack([x1, np.full(30, 3.0)]),
                   np.column_stack([x1, 2.0 * x1 + 1e-7 * rng.standard_normal(30)]),
                   np.column_stack([x1, 2.0 * x1 + 1e-3 * rng.standard_normal(30)]),
                   rng.uniform(size=(30, 3))]
        singular = []
        for x in designs:
            ds = Dataset(y=rng.standard_normal(30), x=x)
            singular.append(design_diagnostics(ds).max_leverage is None)
            try:
                fit_r_estimator(ds, 0.5)
                rejected = False
            except IdentifiabilityError:
                rejected = True
            assert rejected == singular[-1]
        assert singular == [True, True, True, False, False]


class TestDesignDiagnosticsCalls:
    """The fit reads only whether V_n is singular, so of a whole pipeline only
    the CLI's report builds the diagnostics, once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(ds):
            calls.append(ds.n)
            return model.design_diagnostics(ds)

        for module in (ranks, cli):
            monkeypatch.setattr(module, "design_diagnostics", counting)
        return calls

    def test_fits_and_studies_build_none(self, calls):
        config = SimulationConfig(
            n_grid=(50, 100), p=2, beta0=1.0, beta=(2.0, -1.0),
            error_dist=ErrorDistribution("standard_normal"), design="iid_uniform_cube",
            lam=0.5, replications=3, seed=1)
        rate_study_r_estimator(config)
        rate_study_two_step(config)
        functional_consistency_study(config, "cvar", 0.9)
        rng = np.random.default_rng(8)
        fit_r_estimator(Dataset(y=rng.standard_normal(40), x=rng.uniform(size=(40, 2))), 0.5)
        assert calls == []

    def test_a_cli_fit_builds_them_once(self, calls, capsys):
        code = cli.main(["--command", "fit", "--input", os.path.join(FIXTURES, "n200.csv"),
                         "--response", "y", "--covariates", "x1,x2",
                         "--alpha", "0.25,0.5,0.75"])
        assert code == 0
        assert calls == [200]
