import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.stats import norm

from quantfunc import (DomainError, ErrorDistribution, SimulationConfig,
                       functional_consistency_study, generate,
                       rate_study_r_estimator, rate_study_two_step)
from quantfunc.simulation import reports_to_csv


def small_config(**overrides):
    base = dict(
        n_grid=(30, 60),
        p=1,
        beta0=0.5,
        beta=(1.5,),
        error_dist=ErrorDistribution("standard_normal"),
        design="equispaced",
        lam=0.5,
        replications=4,
        seed=123,
    )
    base.update(overrides)
    return SimulationConfig(**base)


# Each error law beside the same law in scipy.stats, the independent oracle.
CLOSED_FORM_CASES = [
    (ErrorDistribution("standard_normal"), stats.norm()),
    (ErrorDistribution("shifted_exponential", 2.0), stats.expon(loc=-0.5, scale=0.5)),
    (ErrorDistribution("shifted_exponential", 0.7), stats.expon(loc=-1 / 0.7, scale=1 / 0.7)),
    (ErrorDistribution("uniform_centered", 3.0), stats.uniform(loc=-1.5, scale=3.0)),
    (ErrorDistribution("uniform_centered", 1.0), stats.uniform(loc=-0.5, scale=1.0)),
]


class TestErrorDistribution:
    @pytest.mark.parametrize("dist", [
        ErrorDistribution("standard_normal"),
        ErrorDistribution("shifted_exponential", 2.0),
        ErrorDistribution("uniform_centered", 3.0),
    ])
    def test_mean_zero_quantiles(self, dist):
        # int_0^1 Q(u) du = E[Z] = 0
        integral, _ = quad(lambda u: dist.quantile(u), 1e-12, 1 - 1e-12, limit=500)
        assert integral == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("dist", [
        ErrorDistribution("standard_normal"),
        ErrorDistribution("shifted_exponential", 1.0),
        ErrorDistribution("uniform_centered", 2.0),
    ])
    def test_quantile_inverts_cdf(self, dist):
        for u in (0.1, 0.35, 0.6, 0.9):
            assert float(dist.cdf(dist.quantile(u))) == pytest.approx(u, abs=1e-10)

    def test_sample_moments(self):
        rng = np.random.default_rng(0)
        dist = ErrorDistribution("shifted_exponential", 2.0)
        z = dist.sample(rng, 200_000)
        assert z.mean() == pytest.approx(0.0, abs=0.01)
        assert z.var() == pytest.approx(0.25, rel=0.05)

    def test_normal_cvar_truth(self):
        # closed form phi(z_a) / (1 - a) against the quadrature path
        dist = ErrorDistribution("standard_normal")
        for a in (0.9, 0.95):
            closed = norm.pdf(norm.ppf(a)) / (1 - a)
            assert dist.true_functional("cvar", a) == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("dist,law", CLOSED_FORM_CASES)
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.99])
    def test_cvar_truth_matches_quadrature(self, dist, law, alpha):
        tail, _ = quad(law.ppf, alpha, 1.0, epsabs=0.0, epsrel=1e-12, limit=500)
        assert dist.true_functional("cvar", alpha) == pytest.approx(
            tail / (1.0 - alpha), rel=1e-9)

    @pytest.mark.parametrize("dist,law", CLOSED_FORM_CASES)
    @pytest.mark.parametrize("gamma", [-2.0, -0.6, -0.2, 0.0, 0.4, 1.2])
    def test_mean_excess_truth_matches_quadrature(self, dist, law, gamma):
        lo, hi = law.support()
        if gamma >= hi:
            with pytest.raises(DomainError):
                dist.true_functional("mean_excess", gamma)
            return
        start = max(gamma, lo)
        excess, _ = quad(lambda z: (z - gamma) * law.pdf(z), start, hi,
                         epsabs=0.0, epsrel=1e-12, limit=500)
        assert dist.true_functional("mean_excess", gamma) == pytest.approx(
            excess / law.sf(gamma), rel=1e-9)

    def test_mean_excess_far_threshold(self):
        with pytest.raises(DomainError):
            ErrorDistribution("standard_normal").true_functional("mean_excess", 40.0)
        with pytest.raises(DomainError):
            ErrorDistribution("uniform_centered", 2.0).true_functional("mean_excess", 1.0)

    def test_exponential_cdf_is_zero_below_support(self):
        dist = ErrorDistribution("shifted_exponential", 2.0)
        assert dist.cdf(np.array([-3.0, -0.5, 0.0])) == pytest.approx(
            [0.0, 0.0, 1.0 - np.exp(-1.0)], abs=1e-15)

    def test_normal_cdf_keeps_lower_tail_precision(self):
        z = np.array([-30.0, -10.0, 0.0, 3.0])
        assert ErrorDistribution("standard_normal").cdf(z) == pytest.approx(
            norm.cdf(z), rel=1e-13)

    def test_quantile_accepts_arrays_and_ends(self):
        q = ErrorDistribution("standard_normal").quantile(np.array([0.0, 0.5, 0.975, 1.0]))
        assert q[0] == -np.inf and q[1] == 0.0 and q[3] == np.inf
        assert q[2] == pytest.approx(norm.ppf(0.975), rel=1e-14)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            ErrorDistribution("cauchy")


class TestGenerate:
    def test_null_model_returns_errors(self):
        cfg = small_config(p=0, beta=(), beta0=0.0)
        ds, z = generate(cfg, 30, 0)
        assert np.array_equal(ds.y, z)

    def test_deterministic(self):
        cfg = small_config()
        ds1, z1 = generate(cfg, 30, 2)
        ds2, z2 = generate(cfg, 30, 2)
        assert np.array_equal(ds1.y, ds2.y)
        assert np.array_equal(ds1.x, ds2.x)
        assert np.array_equal(z1, z2)

    def test_distinct_replicates_differ(self):
        cfg = small_config()
        _, z1 = generate(cfg, 30, 0)
        _, z2 = generate(cfg, 30, 1)
        assert not np.array_equal(z1, z2)

    def test_equispaced_design(self):
        cfg = small_config()
        ds, _ = generate(cfg, 4, 0)
        assert ds.x[:, 0] == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])

    def test_model_equation_holds(self):
        cfg = small_config(design="iid_uniform_cube", p=2, beta=(1.0, -2.0))
        ds, z = generate(cfg, 25, 0)
        assert ds.y == pytest.approx(cfg.beta0 + ds.x @ np.array(cfg.beta) + z)


class TestRateStudies:
    def test_two_step_p0_is_exact(self):
        cfg = small_config(p=0, beta=(), design="iid_uniform_cube")
        reports = rate_study_two_step(cfg)
        by_metric = {r.metric: r for r in reports}
        # no slopes: the process is exactly the error order statistics + beta0
        assert max(by_metric["two_step_sup_dev_true_nuisance"].rmse) < 1e-12

    def test_two_step_smoke(self):
        reports = rate_study_two_step(small_config())
        assert len(reports) == 2
        for r in reports:
            assert len(r.rmse) == 2
            assert all(v >= 0 for v in r.rmse)
            assert np.isfinite(r.fitted_slope)

    def test_r_estimator_smoke(self):
        r = rate_study_r_estimator(small_config())
        assert r.metric == "r_estimator_norm_error"
        assert all(v >= 0 for v in r.rmse)

    def test_r_estimator_rejects_p0(self):
        with pytest.raises(DomainError):
            rate_study_r_estimator(small_config(p=0, beta=()))

    def test_functional_study_smoke(self):
        r = functional_consistency_study(small_config(), "cvar", 0.8)
        assert len(r.rmse) == 2
        assert len(r.mean_error) == 2

    def test_determinism_bit_for_bit(self):
        r1 = rate_study_r_estimator(small_config())
        r2 = rate_study_r_estimator(small_config())
        assert r1 == r2

    def test_needs_two_sizes(self):
        with pytest.raises(DomainError):
            rate_study_two_step(small_config(n_grid=(30,)))


class TestReportSerialization:
    def test_csv_rows(self, tmp_path):
        r = rate_study_r_estimator(small_config())
        out = tmp_path / "report.csv"
        reports_to_csv([r], out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "metric,n,rmse,coverage,fitted_slope"
        assert len(lines) == 3
        assert lines[1].startswith("r_estimator_norm_error,30,")

    def test_json_roundtrip(self):
        import json
        r = rate_study_r_estimator(small_config())
        payload = json.loads(r.to_json())
        assert payload["n_grid"] == [30, 60]
        assert payload["metric"] == "r_estimator_norm_error"


class TestConfigValidation:
    def test_beta_length_mismatch(self):
        with pytest.raises(DomainError):
            small_config(beta=(1.0, 2.0))

    def test_alpha_grid_bounds(self):
        with pytest.raises(DomainError):
            small_config(alphas=(0.5, 1.0))

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            small_config(seed=-1)

    def test_equispaced_needs_p1(self):
        cfg = small_config(p=2, beta=(1.0, 1.0), design="equispaced")
        with pytest.raises(DomainError):
            generate(cfg, 30, 0)
