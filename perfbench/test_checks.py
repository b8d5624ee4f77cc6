"""The benchmark's own tests: every check rejects a perturbed output.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each test takes a correct output of the program (or one built from its
definition), perturbs one value, and asserts that the matching check fails,
so that no check is vacuous.  The reference computations are also compared
with brute force.
"""

import itertools
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import workloads  # noqa: E402
import tracing  # noqa: E402
from workloads import (Cli, ExactQuantiles, FitLarge, KNOWN_FAULTS, MonteCarlo,  # noqa: E402
                       check_cli_report, check_lp_fit, check_mc_reports)


def ids(fails):
    return {f.split(":", 1)[0] for f in fails}


# ---------------------------------------------------------------------------
# reference computations


def test_rq_optimum_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (12, 1))
    y = 1.0 + 2.0 * x[:, 0] + rng.standard_normal(12)
    a_design = np.column_stack([np.ones(12), x])
    for tau in (0.25, 0.5, 0.75):
        best = min(oracles.check_loss_sum(y - a_design @ np.linalg.solve(a_design[list(h)], y[list(h)]), tau)
                   for h in itertools.combinations(range(12), 2))
        assert oracles.rq_optimum(y, x, tau)[0] == pytest.approx(best, rel=1e-12)


def test_dispersion_at_equals_the_programs_jaeckel_form():
    import quantfunc as qf
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (50, 2))
    y = x @ [1.0, -1.0] + rng.standard_normal(50)
    b = np.array([0.7, -0.4])
    ds = qf.Dataset(y=y, x=x)
    assert oracles.dispersion_at(y, x, b, 0.5) == pytest.approx(
        qf.jaeckel_dispersion(b, ds, 0.5), rel=1e-12)


def test_decimal_levels_and_references():
    assert oracles.order_rank(0.9, 20000) == 18000
    assert oracles.order_rank(0.55, 100) == 55
    assert oracles.upper_tail_mean(np.arange(1.0, 21.0), 0.9) == 19.5
    values = np.array([-1.0, 0.5, 2.0])
    assert oracles.step_integral(values)[0] == pytest.approx(
        sum(v * (oracles.weight_antiderivative(k / 3) - oracles.weight_antiderivative((k - 1) / 3))
            for k, v in enumerate(values, start=1)))
    assert oracles.normal_cvar(0.9) == pytest.approx(1.7549833193248685, rel=1e-12)


def test_certify_vertex_rejects_a_suboptimal_basis():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (30, 1))
    y = x[:, 0] + rng.standard_normal(30)
    a_design = np.column_stack([np.ones(30), x])
    _, coef = oracles.rq_optimum(y, x, 0.5)
    basis = np.argsort(np.abs(y - a_design @ coef))[:2]
    assert oracles.certify_vertex(y, a_design, coef, basis, 0.5)
    worst = np.argsort(y - a_design @ coef)[-2:]
    bad = np.linalg.solve(a_design[worst], y[worst])
    assert not oracles.certify_vertex(y, a_design, bad, worst, 0.5)


# ---------------------------------------------------------------------------
# fit_large


def fit_case(n):
    wl = FitLarge(seed=3, workdir=".")
    wl.N, wl.PS = n, (1,)
    wl.prepare()
    (y, x), = wl.data
    return wl, y, x, wl.references()[0], wl.pipeline(y, x)


@pytest.fixture(scope="module")
def small_fit():
    return fit_case(FitLarge.N)


def test_fit_output_passes_all_but_the_known_fault(small_fit):
    wl, y, x, ref, res = small_fit
    assert ids(wl.check_fit(y, x, ref, res)) <= KNOWN_FAULTS


def test_slope_off_the_optimum_is_rejected(small_fit):
    wl, y, x, ref, res = small_fit
    moved = dict(res, slopes=res["slopes"] + 1e-3 * (1.0 + np.abs(res["slopes"])))
    assert "slope_gap" in ids(wl.check_fit(y, x, ref, moved))


def test_reported_dispersion_is_checked(small_fit):
    wl, y, x, ref, res = small_fit
    assert "dispersion_field" in ids(wl.check_fit(y, x, ref, dict(res, dispersion=res["dispersion"] * (1 + 1e-8))))


def test_swapped_process_values_are_rejected(small_fit):
    wl, y, x, ref, res = small_fit
    proc = res["process"].copy()
    proc[[10, 200]] = proc[[200, 10]]
    assert {"process_sorted", "centered_shift"} <= ids(wl.check_fit(y, x, ref, dict(res, process=proc)))
    cen = res["centered"].copy()
    cen[[10, 200]] = cen[[200, 10]]
    assert "linear_functional" in ids(wl.check_fit(y, x, ref, dict(res, centered=cen)))


def test_intercept_off_by_rounding_size_is_rejected(small_fit):
    wl, y, x, ref, res = small_fit
    intercepts = list(res["intercepts"])
    intercepts[3] += 1e-12
    assert "intercept_identity" in ids(wl.check_fit(y, x, ref, dict(res, intercepts=intercepts)))


def test_centring_and_nuisance_are_checked(small_fit):
    wl, y, x, ref, res = small_fit
    shifted = dict(res, centered=res["centered"] + 1e-6)
    assert {"centered_shift", "centered_mean"} <= ids(wl.check_fit(y, x, ref, shifted))
    assert "nuisance" in ids(wl.check_fit(y, x, ref, dict(res, nuisance=res["nuisance"] + 1e-9)))


def test_tail_functionals_are_checked(small_fit):
    wl, y, x, ref, res = small_fit
    for key, check_id in (("mean_excess", "mean_excess"), ("staudte_r", "staudte_r"),
                          ("linear", "linear_functional")):
        bad = dict(res, **{key: res[key] + 1e-6})
        assert check_id in ids(wl.check_fit(y, x, ref, bad)), key


def test_cvar_check_accepts_the_true_tail_mean_and_flags_the_programs(small_fit):
    wl, y, x, ref, res = small_fit
    true_tail = oracles.upper_tail_mean(res["centered"], wl.CVAR_LEVEL)
    assert "cvar_tail_count" not in ids(wl.check_fit(y, x, ref, dict(res, cvar=true_tail)))
    # The program averages floor(20000 * (1 - 0.9)) = 1999 values, not 2000.
    assert "cvar_tail_count" in ids(wl.check_fit(y, x, ref, res))


@pytest.mark.parametrize("value", [0.0, float("nan"), "raised", "lowered"])
def test_cvar_other_than_the_known_fault_is_not_exempt(small_fit, value):
    wl, y, x, ref, res = small_fit
    if value == "raised":
        value = res["cvar"] + 1e-6
    elif value == "lowered":          # the mean of the top 2001 values
        top = np.sort(res["centered"])[-2001:]
        value = float(top.mean())
    found = ids(wl.check_fit(y, x, ref, dict(res, cvar=value)))
    assert "cvar" in found and not found & KNOWN_FAULTS


def test_intercept_check_sees_the_rank_rounding_at_level_055():
    # ceil(400 * 0.55) is 221 in binary floating point; the 0.55-quantile of
    # 400 values is the 220th.
    wl, y, x, ref, res = fit_case(400)
    fails = wl.check_fit(y, x, ref, res)
    assert ids(fails) == {"intercept_identity", "cvar_tail_count"}
    assert all("alpha 0.55" in f for f in fails if f.startswith("intercept_identity"))


# ---------------------------------------------------------------------------
# exact regression quantiles (part of fit_large)


@pytest.fixture(scope="module")
def small_lp():
    import quantfunc
    wl = ExactQuantiles(seed=4)
    fits = wl.run(quantfunc)
    optima = [oracles.rq_optimum(wl.y, wl.x, a)[0] for a in wl.ALPHAS]
    return wl, fits, optima


def lp_ids(wl, alpha, optimum, fit):
    return ids(check_lp_fit(wl.y, wl.x, alpha, optimum, fit, wl.OBJECTIVE_RTOL))


def test_lp_fits_pass(small_lp):
    wl, fits, optima = small_lp
    assert wl.check([fits]) == [[]]


def test_raised_lp_objective_is_rejected(small_lp):
    wl, fits, optima = small_lp
    fit = dict(fits[1], objective=fits[1]["objective"] * (1 + 1e-8))
    assert "objective_field" in lp_ids(wl, wl.ALPHAS[1], optima[1], fit)
    # A correct objective at coefficients that do not attain it.
    moved = dict(fits[1], beta0=fits[1]["beta0"] + 1e-3)
    assert "objective" in lp_ids(wl, wl.ALPHAS[1], optima[1], moved)


def test_lp_vertex_conditions_are_checked(small_lp):
    wl, fits, optima = small_lp
    assert "n_active" in lp_ids(wl, wl.ALPHAS[0], optima[0], dict(fits[0], n_active=2))
    shifted = dict(fits[0], beta0=fits[0]["beta0"] + 100.0)
    assert "residual_signs" in lp_ids(wl, wl.ALPHAS[0], optima[0], shifted)


# ---------------------------------------------------------------------------
# cli


@pytest.fixture(scope="module")
def cli_report(tmp_path_factory):
    from quantfunc.cli import main
    tmp = tmp_path_factory.mktemp("cli")
    y = np.random.default_rng(5).standard_normal(1000)
    csv, out = tmp / "in.csv", tmp / "out.json"
    csv.write_text("y\n" + "\n".join(map(repr, y.tolist())) + "\n")
    assert main(["--command", "fit", "--input", str(csv), "--response", "y",
                 "--alpha", ",".join(map(repr, Cli.ALPHAS)), "--output", str(out)]) == 0
    return json.loads(out.read_text()), sorted(y.tolist())


def test_cli_report_passes(cli_report):
    report, y_sorted = cli_report
    assert check_cli_report(report, y_sorted, Cli.ALPHAS) == []


def test_cli_report_perturbations_are_rejected(cli_report):
    report, y_sorted = cli_report
    swapped = dict(report, averaged_process=list(report["averaged_process"]))
    swapped["averaged_process"][3], swapped["averaged_process"][700] = \
        swapped["averaged_process"][700], swapped["averaged_process"][3]
    assert "averaged_process" in ids(check_cli_report(swapped, y_sorted, Cli.ALPHAS))
    intercepts = dict(report["two_step_intercepts"])
    intercepts["0.25"] = y_sorted[250]          # the next order statistic
    assert "intercept" in ids(check_cli_report(dict(report, two_step_intercepts=intercepts),
                                               y_sorted, Cli.ALPHAS))
    off = dict(report, nuisance_estimate=report["nuisance_estimate"] + 1e-9)
    assert "nuisance" in ids(check_cli_report(off, y_sorted, Cli.ALPHAS))


def test_cli_process_results_are_checked(cli_report, tmp_path):
    report, y_sorted = cli_report
    wl = Cli(seed=0, workdir=str(tmp_path))
    wl.y = np.array(y_sorted)
    body = json.dumps(report).encode()
    wl.bodies = {"a": body, "b": body}
    good = {"exit": 0, "stderr": "", "digest": "a"}
    outputs = [good, dict(good, digest="b"), dict(good, exit=2), dict(good, stderr="warning"),
               dict(good, digest=None)]
    verdicts = [ids(v) for v in wl.check(outputs)]
    assert verdicts == [set(), {"report_bytes"}, {"exit_code"}, {"stderr"}, {"report"}]


# ---------------------------------------------------------------------------
# monte_carlo


def mc_reports(slope=-0.5, mean_error=0.0):
    names = ["two_step_sup_dev_true_nuisance", "two_step_sup_dev_mean_centered",
             "r_estimator_norm_error", "functional_cvar_0.9"]
    return [{"metric": m, "n_grid": [100, 400, 1600], "fitted_slope": slope,
             "rmse": [0.4, 0.2, 0.1], "mean_error": [0.0, 0.0, mean_error]} for m in names]


def mc_ids(reports, truth=oracles.normal_cvar(0.9)):
    return ids(check_mc_reports(reports, truth, 40, 0.9, MonteCarlo.SLOPE_BAND,
                                MonteCarlo.CVAR_SE_LIMIT))


def test_mc_reports_pass_and_perturbations_are_rejected():
    assert mc_ids(mc_reports()) == set()
    assert mc_ids(mc_reports(slope=0.0)) == {"rate_band"}
    assert mc_ids(mc_reports(mean_error=0.1)) == {"cvar_mean"}
    assert "cvar_truth" in mc_ids(mc_reports(), truth=1.75)
    assert mc_ids(mc_reports()[::-1]) == {"report_metrics"}


def test_mc_reports_must_repeat():
    wl = MonteCarlo(seed=0, workdir=".")
    wl.prepare()
    first = [json.dumps(r) for r in mc_reports()]
    other = [json.dumps(r) for r in mc_reports(mean_error=1e-6)]
    verdicts = wl.check([first, other])
    assert verdicts[0] == [] and "reports_identical" in ids(verdicts[1])


# ---------------------------------------------------------------------------
# the worker's loop


class Raising(workloads.Workload):
    def run_op(self):
        raise RuntimeError("solver failed")

    def check(self, outputs):
        raise AssertionError("no output to check")


def test_every_operation_raising_is_reported_as_failed(tmp_path):
    import worker
    result = worker.run_ops(Raising(seed=0, workdir=str(tmp_path)), seconds=0.05)
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert not result["correct"] and result["failures"] == ["raised: see errors"]
    assert len(result["op_times_s"]) == result["attempted"]
    assert all("solver failed" in e for e in result["errors"])


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
        return sum(range(20000))

    wrapped = tracer.span("outer", outer)
    wrapped()                       # outside an operation: not recorded
    tracer.begin_op()
    wrapped()
    tracer.end_op()
    op, = tracer.per_op()
    assert op["calls"] == {"outer": 1, "inner": 2}
    spans = tracer.spans
    outer_total = spans[0][3] - spans[0][2]
    inner_total = sum(s[3] - s[2] for s in spans[1:])
    assert op["self_s"]["outer"] == pytest.approx(outer_total - inner_total)
    assert op["self_s"]["inner"] == pytest.approx(inner_total)


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1349 |     517531 |     scipy.stats\n"
            "import time:       593 |     654467 |     scipy.integrate\n"
            "import time:       784 |    1318601 | quantfunc\n")
    assert tracing.parse_importtime(text) == {"quantfunc": 1.318601, "scipy.stats": 0.517531,
                                              "scipy.integrate": 0.654467}


def test_every_binding_exists():
    import quantfunc  # noqa: F401
    for module, path, layer, kind in tracing.BINDINGS:
        owner = sys.modules[module]
        for name in path.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module, path)


def test_benchmark_json_names_every_metric_the_runs_print():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = {"import.quantfunc_s", "import.scipy_stats_s", "import.scipy_integrate_s",
              "import.modules", "trace.overhead_s",
              *tracing.layer_metrics({"self_s": {}, "calls": {}, "tableau_bytes": 0})}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "op_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
