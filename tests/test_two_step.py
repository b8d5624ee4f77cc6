import numpy as np
import pytest

from quantfunc import (Dataset, DataError, averaged_two_step_process,
                       centered_process, empirical_quantile_process, two_step_quantile)
from quantfunc.model import StepQuantileProcess, order_index

ALPHA_GRID = [round(0.05 * k, 3) for k in range(1, 20)]


def random_dataset(rng, n, p):
    return Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))


class TestTwoStepQuantile:
    def test_p0_reduces_to_sample_median(self):
        ds = Dataset(y=np.array([4.0, 1.0, 3.0, 2.0, 5.0]), x=np.zeros((5, 0)))
        ts = two_step_quantile(ds, 0.5, 0.3)
        assert ts.intercept == 3.0
        assert ts.slopes.size == 0

    def test_noiseless_line(self):
        x = np.arange(5.0).reshape(-1, 1)
        ds = Dataset(y=5.0 + 2.0 * x[:, 0], x=x)
        ts = two_step_quantile(ds, 0.5, 0.5)
        assert ts.slopes[0] == pytest.approx(2.0, abs=1e-7)
        assert ts.intercept == pytest.approx(5.0, abs=1e-6)

    def test_intercept_is_residual_order_statistic(self):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 50, 2)
        ts = two_step_quantile(ds, 0.3, 0.5)
        residuals = ds.y - ds.x @ ts.slopes
        assert ts.intercept == empirical_quantile_process(residuals)(0.3)


class TestAveragedProcess:
    def test_p0_equals_empirical_process(self):
        rng = np.random.default_rng(18)
        y = rng.standard_normal(12)
        ds = Dataset(y=y, x=np.zeros((12, 0)))
        proc = averaged_two_step_process(ds, 0.5)
        emp = empirical_quantile_process(y)
        assert np.array_equal(proc.values, emp.values)

    def test_noiseless_line_is_flat(self):
        x = np.arange(5.0).reshape(-1, 1)
        ds = Dataset(y=5.0 + 2.0 * x[:, 0], x=x)
        proc = averaged_two_step_process(ds, 0.5)
        assert np.ptp(proc.values) < 1e-6

    def test_order_statistic_identity_exact(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, 30, 1)
        proc = averaged_two_step_process(ds, 0.5)
        for alpha in ALPHA_GRID:
            ts = two_step_quantile(ds, alpha, 0.5, slopes=proc.slopes)
            lhs = ts.intercept + float(ds.x_mean @ proc.slopes)
            assert lhs == proc(alpha)

    def test_monotone_with_n_breakpoints(self):
        rng = np.random.default_rng(20)
        ds = random_dataset(rng, 25, 2)
        proc = averaged_two_step_process(ds, 0.5)
        assert np.all(np.diff(proc.values) >= 0)
        assert proc.n == 25
        distinct = {proc(a) for a in np.linspace(0.01, 0.99, 200)}
        assert len(distinct) <= 25

    def test_is_a_read_only_step_process(self):
        rng = np.random.default_rng(27)
        ds = random_dataset(rng, 20, 2)
        proc = averaged_two_step_process(ds, 0.5)
        assert isinstance(proc, StepQuantileProcess)
        assert proc.sorted_adjusted is proc.values
        assert not proc.values.flags.writeable
        want = np.sort(ds.y - ds.x @ proc.slopes + ds.x_mean @ proc.slopes)
        assert proc.values.tobytes() == want.tobytes()

    def test_p0_process_holds_the_sorted_responses_plus_zero(self):
        # With no covariates x'b and x_bar'b are +0.0: the process is y + 0.0
        # sorted (so -0.0 reads +0.0), and each intercept an order statistic of y.
        y = np.array([0.5, -0.0, 0.0, -1.0, 0.5, -0.0, 2.0])
        ds = Dataset(y=y, x=np.zeros((7, 0)))
        proc = averaged_two_step_process(ds, 0.5, slopes=np.zeros(0))
        assert proc.values.tobytes() == np.sort(y + 0.0).tobytes()
        for a in ALPHA_GRID:
            got = two_step_quantile(ds, a, 0.5, slopes=np.zeros(0)).intercept
            assert got == np.sort(y)[order_index(a, 7) - 1]

    def test_overflowing_slopes_raise(self):
        # x'b overflows to inf: a process with a non-finite value is refused
        # like any other step process.
        ds = Dataset(y=np.arange(4.0), x=np.array([[0.0], [1.0], [2.0], [1e300]]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DataError, match="non-finite process values"):
            averaged_two_step_process(ds, 0.5, slopes=np.array([1e10]))


class TestCenteredProcess:
    def test_p0_mean_zero_sample(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal(10)
        y = y - y.mean()
        ds = Dataset(y=y, x=np.zeros((10, 0)))
        cp = centered_process(averaged_two_step_process(ds, 0.5))
        emp = empirical_quantile_process(y)
        assert cp.values == pytest.approx(emp.values, abs=1e-12)

    def test_constant_sample_is_zero(self):
        ds = Dataset(y=np.full(6, 3.5), x=np.zeros((6, 0)))
        cp = centered_process(averaged_two_step_process(ds, 0.5))
        assert np.all(cp.values == 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 20, 1)
        base = centered_process(averaged_two_step_process(ds, 0.5))
        shifted = centered_process(
            averaged_two_step_process(Dataset(y=ds.y + 9.0, x=ds.x), 0.5))
        assert shifted.values == pytest.approx(base.values, abs=1e-9)

    def test_regression_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ds = random_dataset(rng, 25, 2)
            gamma = rng.standard_normal(2)
            base = centered_process(averaged_two_step_process(ds, 0.5))
            moved = centered_process(averaged_two_step_process(
                Dataset(y=ds.y + ds.x @ gamma, x=ds.x), 0.5))
            assert moved.values == pytest.approx(base.values, abs=1e-6)

    def test_nondecreasing(self):
        rng = np.random.default_rng(25)
        ds = random_dataset(rng, 40, 3)
        cp = centered_process(averaged_two_step_process(ds, 0.5))
        assert np.all(np.diff(cp.values) >= 0)


class TestProcessCsv:
    def test_serialization_roundtrip(self, tmp_path):
        proc = StepQuantileProcess(values=np.array([1.0, 2.5, 4.0]))
        out = tmp_path / "proc.csv"
        proc.to_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha_breakpoint,value"
        assert len(lines) == 4
        alphas = [float(l.split(",")[0]) for l in lines[1:]]
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert alphas == pytest.approx([1 / 3, 2 / 3, 1.0])
        assert values == [1.0, 2.5, 4.0]

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(26)
        proc = StepQuantileProcess(values=np.sort(rng.standard_normal(9)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        proc.to_csv(p1)
        proc.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
