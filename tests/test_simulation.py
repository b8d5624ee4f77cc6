import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.stats import norm

from quantfunc import (DomainError, ErrorDistribution, SimulationConfig, centered_process,
                       cvar, empirical_quantile_process, functional_consistency_study,
                       generate, rate_study_r_estimator, rate_study_two_step)
from quantfunc.simulation import ERROR_DISTS, _study, reports_to_csv


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
    def test_sample_moments(self):
        # Every law is mean zero, so its errors carry no intercept.
        rng = np.random.default_rng(0)
        for dist, variance in [(ErrorDistribution("standard_normal"), 1.0),
                               (ErrorDistribution("shifted_exponential", 2.0), 0.25),
                               (ErrorDistribution("uniform_centered", 3.0), 0.75)]:
            z = dist.sample(rng, 200_000)
            assert z.mean() == pytest.approx(0.0, abs=0.01)
            assert z.var() == pytest.approx(variance, rel=0.05)

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
    # At gamma = 8, Phi(-gamma) = 6.2e-16: through 1 + erf, in place of erfc,
    # it keeps two digits and the normal truth comes out 0.27 for 0.12.
    @pytest.mark.parametrize("gamma", [-2.0, -0.6, -0.2, 0.0, 0.4, 1.2, 8.0])
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

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            ErrorDistribution("cauchy")

    @pytest.mark.parametrize("kind", ["shifted_exponential", "uniform_centered"])
    def test_rejects_a_parameter_that_is_not_positive(self, kind):
        with pytest.raises(DomainError, match=f"{kind} needs a positive parameter"):
            ErrorDistribution(kind, 0)

    @pytest.mark.parametrize("kind", ERROR_DISTS)
    @pytest.mark.parametrize("param", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_a_parameter_that_is_not_finite(self, kind, param):
        # NaN once passed the positivity test, and the normal law's unused
        # parameter was never checked.
        with pytest.raises(DomainError, match=f"{kind} needs a finite parameter, got {param}"):
            ErrorDistribution(kind, param)

    @pytest.mark.parametrize("kind,level,message", [
        ("lorenz", 0.5, "no analytic truth for functional 'lorenz'"),
        ("cvar", 1.0, "cvar level must be in \\(0, 1\\), got 1.0"),
        ("cvar", 0.0, "cvar level must be in \\(0, 1\\), got 0.0"),
    ])
    def test_true_functional_refuses(self, kind, level, message):
        with pytest.raises(DomainError, match=message):
            ErrorDistribution("standard_normal").true_functional(kind, level)


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

    @pytest.mark.parametrize("law", [ErrorDistribution("standard_normal"),
                                     ErrorDistribution("shifted_exponential", 1.0)])
    def test_not_seeing_the_errors_costs_an_order_below_their_own_error(self, law):
        # The paper's premise: the errors are seen only through the response,
        # yet CVaR(0.9) of the centred process is within O(1/n) of its value
        # on the centred errors themselves, an order below their own n^-1/2
        # sampling error; and the process is within the Bahadur-Kiefer
        # n^-3/4 of the errors' order statistics.  At seed 33 the slopes are
        # -0.92 and -0.72 (normal), -0.96 and -0.73 (exponential).
        config = SimulationConfig(n_grid=(400, 1600, 6400), p=2, beta0=1.0, beta=(1.0, -0.5),
                                  error_dist=law, design="iid_uniform_cube", lam=0.5,
                                  replications=100, seed=33)
        beta = np.asarray(config.beta)
        oracle, sup = _study(config, {
            "cvar_oracle_distance": lambda rep: (
                cvar(centered_process(rep.process), 0.9).value
                - cvar(empirical_quantile_process(rep.z - rep.z.mean()), 0.9).value),
            "sup_dev_true_nuisance":
                lambda rep: rep.sup_deviation(config.beta0 + rep.ds.x_mean @ beta)})
        assert oracle.fitted_slope <= -0.75
        assert sup.fitted_slope <= -0.6

    def test_determinism_bit_for_bit(self):
        r1 = rate_study_r_estimator(small_config())
        r2 = rate_study_r_estimator(small_config())
        assert r1 == r2

    def test_needs_two_sizes(self):
        # A log-log slope across fewer than two distinct sizes is meaningless.
        for study in (rate_study_two_step, rate_study_r_estimator,
                      lambda config: functional_consistency_study(config, "cvar", 0.8)):
            for n_grid in ((30,), (40, 40)):
                with pytest.raises(DomainError, match="two distinct sample sizes"):
                    study(small_config(n_grid=n_grid))


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
        for alphas in ((0.5, 1.0), ()):
            with pytest.raises(DomainError, match="alpha grid"):
                small_config(alphas=alphas)

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            small_config(seed=-1)

    @pytest.mark.parametrize("overrides,message", [
        ({"design": "bogus"}, "unknown design 'bogus'"),
        ({"lam": 1.0}, "lambda must be in"),
        ({"replications": 0}, "invalid replications or n_grid"),
    ])
    def test_rejects_a_bad_field(self, overrides, message):
        with pytest.raises(DomainError, match=message):
            small_config(**overrides)

    @pytest.mark.parametrize("overrides,message", [
        ({"beta0": float("nan")}, "beta0 must be finite, got nan"),
        ({"beta0": -float("inf")}, "beta0 must be finite, got -inf"),
        ({"beta": (float("inf"),)}, "beta must be finite, got \\(inf,\\)"),
        ({"p": 2, "beta": (1.0, float("nan")), "design": "iid_normal"},
         "beta must be finite, got \\(1.0, nan\\)"),
    ])
    def test_rejects_a_coefficient_that_is_not_finite(self, overrides, message):
        # A NaN intercept once ran the study into "non-finite entries in y or
        # x", and an infinite slope warned of 0 * inf in generate's matmul.
        with pytest.raises(DomainError, match=message):
            small_config(**overrides)

    def test_equispaced_needs_p1(self):
        with pytest.raises(DomainError):
            small_config(p=2, beta=(1.0, 1.0), design="equispaced")
