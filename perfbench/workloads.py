"""The three workloads: inputs made from the seed, one operation, and its checks.

Every operation of a run repeats the same work on the same inputs, so its
wall times are samples of one quantity and its outputs must agree.  A
workload's ``run_op`` returns ``(seconds, output)``: the wall time of the
operation alone and what the program returned.  ``check`` runs after the
timed region and after peak RSS is read; it returns, per operation, the list
of failed checks as ``"check_id: detail"`` strings.

Workloads that run the program in-process import ``quantfunc`` in
``prepare``; the ``cli`` worker never loads it, so the CLI children's peak
RSS is their own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from time import perf_counter

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

# Checks that fail on every operation because of a fault in the program that
# CHANGES.md names.  Such an operation counts as failed; any other failing
# check also makes the run incorrect.  Each of these ids is given only to an
# output that equals the fault's exact signature; any other wrong output gets
# an id outside this set.
KNOWN_FAULTS = {
    # cvar() averages floor(n * (1 - alpha)) values; 1 - 0.9 rounds below 0.1,
    # so at n = 20000 it averages 1999 values instead of the 2000 above the
    # 0.9-quantile.  A cvar equal to that 1999-value mean gets this id.
    "cvar_tail_count",
}

CLI_ENTRY = "import sys; from quantfunc.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60.0


def maxrss_mb(who: int) -> float:
    """Peak resident set of this process or of its waited-for children, in MB (1e6 bytes)."""
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def near(a: float, b: float, rtol: float) -> bool:
    """Relative closeness; false when either side is NaN.  Every tolerance test
    here is written as ``not ... <= tol`` for the same reason."""
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """Base: subclasses set up inputs in ``prepare`` and time one operation in ``run_op``."""

    in_process = True      # the program runs inside the worker, where wrappers can reach it

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def prepare(self) -> None:
        """Build the inputs; untimed."""

    def run_op(self):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return maxrss_mb(resource.RUSAGE_SELF)

    def traced_ops(self) -> list[dict]:
        return self.tracer.per_op()

    def check(self, outputs: list) -> list[list[str]]:
        raise NotImplementedError

    def extra(self) -> dict:
        """Figures found while checking that the README reports."""
        return {}


# ---------------------------------------------------------------------------
# cli: one `quantfunc --command fit` subprocess on a p = 0 CSV


class Cli(Workload):
    in_process = False
    ROWS = 200_000
    ALPHAS = (0.05, 0.25, 0.5, 0.75, 0.95)

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.y = 1.0 + rng.standard_normal(self.ROWS)
        self.csv = os.path.join(self.workdir, "cli_input.csv")
        self.report = os.path.join(self.workdir, "cli_report.json")
        self.spans = os.path.join(self.workdir, "cli_spans.jsonl")
        with open(self.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("y\n")
            fh.write("\n".join(map(repr, self.y.tolist())))
            fh.write("\n")
        args = ["--command", "fit", "--input", self.csv, "--response", "y",
                "--alpha", ",".join(map(repr, self.ALPHAS)), "--output", self.report]
        if self.tracer is None:
            self.command = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            self.command = [sys.executable, os.path.join(HERE, "cli_child.py"), self.spans, *args]
        self.child_ops: list[dict] = []
        self.bodies: dict[str, bytes] = {}    # report bytes by digest

    def run_op(self):
        for path in (self.report, self.spans):
            if os.path.exists(path):
                os.remove(path)
        t0 = perf_counter()
        try:
            proc = subprocess.run(self.command, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - t0, {"exit": None, "stderr": "timeout", "digest": None}
        elapsed = perf_counter() - t0
        out = {"exit": proc.returncode, "stderr": proc.stderr.decode("utf-8", "replace"),
               "digest": None}
        if os.path.exists(self.report):
            with open(self.report, "rb") as fh:
                body = fh.read()
            out["digest"] = hashlib.sha256(body).hexdigest()
            self.bodies.setdefault(out["digest"], body)
        if self.tracer is not None and os.path.exists(self.spans):
            with open(self.spans, encoding="utf-8") as fh:
                self.child_ops.extend(json.loads(fh.readlines()[-1])["per_op"])
        return elapsed, out

    def peak_rss_mb(self):
        return maxrss_mb(resource.RUSAGE_CHILDREN)

    def traced_ops(self):
        return self.child_ops

    def check(self, outputs):
        y_sorted = sorted(self.y.tolist())
        first = next((o["digest"] for o in outputs if o["digest"]), None)
        content = {d: check_cli_report(json.loads(body), y_sorted, self.ALPHAS)
                   for d, body in self.bodies.items()}
        verdicts = []
        for out in outputs:
            fails = []
            if out["exit"] != 0:
                fails.append(f"exit_code: {out['exit']}")
            if out["stderr"]:
                fails.append(f"stderr: {out['stderr'][:200]!r}")
            if out["digest"] is None:
                fails.append("report: not written")
            else:
                if out["digest"] != first:
                    fails.append("report_bytes: differ from the run's first report")
                fails.extend(content[out["digest"]])
            verdicts.append(fails)
        return verdicts


def check_cli_report(report: dict, y_sorted: list, alphas) -> list[str]:
    """A p = 0 fit report against the benchmark's own sorted copy of y."""
    fails = []
    n = len(y_sorted)
    if (report.get("n"), report.get("p"), report.get("slopes")) != (n, 0, []):
        fails.append(f"shape: n, p, slopes = {report.get('n')}, {report.get('p')}, "
                     f"{report.get('slopes')}")
    if report.get("averaged_process") != y_sorted:
        fails.append("averaged_process: differs from sorted y")
    intercepts = report.get("two_step_intercepts", {})
    for a in alphas:
        want = y_sorted[oracles.order_rank(a, n) - 1]
        if intercepts.get(repr(a)) != want:
            fails.append(f"intercept: alpha {a} gives {intercepts.get(repr(a))}, "
                         f"order statistic is {want}")
    mean = math.fsum(y_sorted) / n
    if not near(report.get("nuisance_estimate", math.nan), mean, 1e-12):
        fails.append(f"nuisance: {report.get('nuisance_estimate')} vs mean {mean}")
    return fails


# ---------------------------------------------------------------------------
# fit_large: the library pipeline on one n = 20000 dataset for each p, then
# exact regression quantiles on n = 400


class FitLarge(Workload):
    N = 20_000
    PS = (1, 2, 5)
    LAM = 0.5
    ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 20))
    CVAR_LEVEL = 0.9
    EXCESS_THRESHOLD = 0.0
    STAUDTE_LEVEL = 0.5
    # The p = 5 fit takes 1.9k to 5.0k dispersion evaluations on freshly drawn
    # datasets, which would make op_s vary by the seed more than any bound.
    # The datasets are therefore drawn once from this fixed seed, and --seed
    # permutes their rows: the fit's work does not depend on row order.
    BASE_SEED = 0
    # Largest accepted excess of the dispersion at the returned slopes over the
    # dual-LP optimum, relative; the README gives the reasons.
    GAP_RTOL = 1e-7
    GAP_FLOOR = 1e-12    # rounding allowance below the optimum

    def prepare(self):
        import quantfunc
        self.qf = quantfunc
        self.gaps: list[float] = []
        self.data = []
        for p in self.PS:
            base = np.random.default_rng([self.BASE_SEED, p])
            x = base.uniform(0.0, 1.0, (self.N, p))
            y = 1.0 + x @ np.arange(1.0, p + 1.0) + base.standard_normal(self.N)
            perm = np.random.default_rng([self.seed, p]).permutation(self.N)
            self.data.append((np.ascontiguousarray(y[perm]), np.ascontiguousarray(x[perm])))
        self.exact = ExactQuantiles(self.seed)

    def run_op(self):
        t0 = perf_counter()
        fits = [self.pipeline(y, x) for y, x in self.data]
        exact = self.exact.run(self.qf)
        return perf_counter() - t0, {"fits": fits, "exact": exact}

    def pipeline(self, y, x) -> dict:
        qf = self.qf
        ds = qf.model.Dataset(y=y, x=x)
        est = qf.ranks.fit_r_estimator(ds, self.LAM)
        b = est.beta_tilde
        proc = qf.two_step.averaged_two_step_process(ds, self.LAM, slopes=b)
        cen = qf.two_step.centered_process(proc)
        intercepts = [qf.two_step.two_step_quantile(ds, a, self.LAM, slopes=b).intercept
                      for a in self.ALPHAS]
        return {
            "slopes": b,
            "dispersion": est.dispersion,
            "process": proc.sorted_adjusted,
            "nuisance": proc.nuisance_estimate,
            "centered": cen.values,
            "intercepts": intercepts,
            "cvar": qf.functionals.cvar(cen, self.CVAR_LEVEL).value,
            "mean_excess": qf.functionals.mean_excess(cen, self.EXCESS_THRESHOLD).value,
            "staudte_r": qf.functionals.staudte_r(cen, self.STAUDTE_LEVEL).value,
            "linear": qf.functionals.linear_functional(cen, oracles.weight),
        }

    def references(self) -> list[dict]:
        """Dual-LP optimum and the benchmark's own sums, once per dataset."""
        refs = []
        for y, x in self.data:
            optimum, _ = oracles.rq_optimum(y, x, self.LAM)
            refs.append({"optimum": optimum, "x_mean": x.mean(axis=0),
                         "y_mean": math.fsum(y) / y.size})
        return refs

    def check(self, outputs):
        refs = self.references()
        verdicts = self.exact.check([out["exact"] for out in outputs])
        for out, fails in zip(outputs, verdicts):
            for p, (y, x), ref, res in zip(self.PS, self.data, refs, out["fits"]):
                fails.extend(f"{f} (p={p})" for f in self.check_fit(y, x, ref, res))
        return verdicts

    def extra(self):
        return {"dispersion_gaps": self.gaps}

    def check_fit(self, y, x, ref, res) -> list[str]:
        fails = []
        dispersion = oracles.dispersion_at(y, x, res["slopes"], self.LAM)
        gap = (dispersion - ref["optimum"]) / ref["optimum"]
        self.gaps.append(gap)
        if not -self.GAP_FLOOR <= gap <= self.GAP_RTOL:
            fails.append(f"slope_gap: dispersion exceeds the LP optimum by {gap:.3e}, relative")
        if not near(res["dispersion"], dispersion, 1e-10):
            fails.append(f"dispersion_field: reported {res['dispersion']!r}, "
                         f"recomputed {dispersion!r}")
        fails.extend(check_process(res, ref, self.ALPHAS))
        fails.extend(check_tail_functionals(res["centered"], res, self.CVAR_LEVEL,
                                            self.EXCESS_THRESHOLD, self.STAUDTE_LEVEL))
        return fails


def check_process(res: dict, ref: dict, alphas) -> list[str]:
    """Two-step intercepts, the averaged process and its centring."""
    fails = []
    proc, cen = res["process"], res["centered"]
    n = proc.size
    if n < 2 or np.any(np.diff(proc) < 0):
        fails.append("process_sorted: process values are not nondecreasing")
    shift = float(ref["x_mean"] @ res["slopes"])
    for a, intercept in zip(alphas, res["intercepts"]):
        value = float(proc[oracles.order_rank(a, n) - 1])
        if intercept + shift != value:
            fails.append(f"intercept_identity: alpha {a}: {intercept!r} + {shift!r} "
                         f"!= process value {value!r}")
    if not near(res["nuisance"], ref["y_mean"], 1e-12):
        fails.append(f"nuisance: {res['nuisance']!r} vs mean of y {ref['y_mean']!r}")
    if not np.array_equal(cen, proc - res["nuisance"]):
        fails.append("centered_shift: centred process is not the process minus the nuisance")
    scale = float(np.max(np.abs(cen)))
    if not abs(math.fsum(cen) / n) <= 1e-12 * scale:
        fails.append(f"centered_mean: mean {math.fsum(cen) / n:.3e} is not 0")
    return fails


def check_tail_functionals(values, res, cvar_level, threshold, staudte_level) -> list[str]:
    """cvar, mean_excess, staudte_r and the polynomial-weight linear functional."""
    fails = []
    n = values.size
    scale = float(np.max(np.abs(values)))
    tail = oracles.upper_tail_mean(values, cvar_level)
    if not abs(res["cvar"] - tail) <= 1e-12 * scale:
        wrong_count = oracles.float_count_tail_mean(values, cvar_level)
        check_id = ("cvar_tail_count" if abs(res["cvar"] - wrong_count) <= 1e-12 * scale
                    else "cvar")
        fails.append(f"{check_id}: cvar {res['cvar']!r} vs mean of the "
                     f"{n - oracles.order_rank(cvar_level, n)} values above the "
                     f"{cvar_level}-quantile {tail!r}")
    exceed = values[values >= threshold]
    excess = math.fsum(exceed - threshold) / exceed.size
    if not abs(res["mean_excess"] - excess) <= 1e-12 * scale:
        fails.append(f"mean_excess: {res['mean_excess']!r} vs {excess!r}")
    lower = values[oracles.order_rank(staudte_level / 2, n) - 1]
    upper = values[oracles.order_rank(1 - staudte_level / 2, n) - 1]
    if res["staudte_r"] != float(lower / upper):
        fails.append(f"staudte_r: {res['staudte_r']!r} vs {float(lower / upper)!r}")
    integral, magnitude = oracles.step_integral(values)
    if not abs(res["linear"] - integral) <= 1e-9 * magnitude:
        fails.append(f"linear_functional: {res['linear']!r} vs antiderivative sum {integral!r}")
    return fails


# ---------------------------------------------------------------------------
# monte_carlo: the three simulation studies on one configuration


class MonteCarlo(Workload):
    REPLICATIONS = 40
    CVAR_LEVEL = 0.9
    # Log-RMSE slopes are near -0.5 (-0.7 for the true-nuisance sup-deviation);
    # at 40 replications their spread across seeds is about 0.08, so the band
    # edges sit more than five such spreads from every report's centre.
    SLOPE_BAND = (-1.2, -0.1)
    CVAR_SE_LIMIT = 6.0

    def prepare(self):
        import quantfunc.simulation
        self.sim = quantfunc.simulation
        self.config = self.sim.SimulationConfig(
            n_grid=(100, 400, 1600), p=1, beta0=1.0, beta=(2.0,),
            error_dist=self.sim.ErrorDistribution("standard_normal"),
            design="equispaced", lam=0.5, replications=self.REPLICATIONS, seed=self.seed)

    def run_op(self):
        sim, cfg = self.sim, self.config
        t0 = perf_counter()
        reports = [*sim.rate_study_two_step(cfg), sim.rate_study_r_estimator(cfg),
                   sim.functional_consistency_study(cfg, "cvar", self.CVAR_LEVEL)]
        elapsed = perf_counter() - t0
        return elapsed, [r.to_json() for r in reports]

    def check(self, outputs):
        truth_program = self.sim.ErrorDistribution("standard_normal").true_functional(
            "cvar", self.CVAR_LEVEL)
        verdicts = []
        for out in outputs:
            fails = [] if out == outputs[0] else ["reports_identical: differ from the first"]
            fails.extend(check_mc_reports([json.loads(r) for r in out], truth_program,
                                          self.REPLICATIONS, self.CVAR_LEVEL,
                                          self.SLOPE_BAND, self.CVAR_SE_LIMIT))
            verdicts.append(fails)
        return verdicts


def check_mc_reports(reports, truth_program, replications, level, band, se_limit) -> list[str]:
    fails = []
    metrics = [r["metric"] for r in reports]
    expected = ["two_step_sup_dev_true_nuisance", "two_step_sup_dev_mean_centered",
                "r_estimator_norm_error", f"functional_cvar_{level}"]
    if metrics != expected:
        return [f"report_metrics: {metrics}"]
    for r in reports:
        if not band[0] <= r["fitted_slope"] <= band[1]:
            fails.append(f"rate_band: {r['metric']} slope {r['fitted_slope']:.3f} "
                         f"outside {band}")
    truth = oracles.normal_cvar(level)
    if not near(truth_program, truth, 1e-9):
        fails.append(f"cvar_truth: program {truth_program!r} vs phi(z)/(1-a) {truth!r}")
    cv = reports[-1]
    mean_error, rmse = cv["mean_error"][-1], cv["rmse"][-1]
    sd = math.sqrt(max(rmse * rmse - mean_error * mean_error, 0.0)
                   * replications / (replications - 1))
    se = sd / math.sqrt(replications)
    estimate = mean_error + truth_program
    if not abs(estimate - truth) <= se_limit * se:
        z = abs(estimate - truth) / se if se else math.inf
        fails.append(f"cvar_mean: mean estimate {estimate:.4f} at n={cv['n_grid'][-1]} is "
                     f"{z:.1f} standard errors from {truth:.4f}")
    return fails


# ---------------------------------------------------------------------------
# exact regression quantiles: the part of fit_large that runs the dense simplex


class ExactQuantiles:
    """``fit_regression_quantile`` at three levels on one n = 400, p = 2 dataset."""

    N = 400
    P = 2
    ALPHAS = (0.25, 0.5, 0.75)
    # The simplex's pivot count differs between freshly drawn datasets (2.7 s
    # to 4.2 s for the three fits).  One base dataset is drawn from this fixed
    # seed; the seed rescales y and each covariate by factors in [0.5, 2],
    # which leaves the LP's pivot sequence, and so the work, unchanged.
    BASE_SEED = 0
    OBJECTIVE_RTOL = 1e-9

    def __init__(self, seed: int):
        base = np.random.default_rng([self.BASE_SEED, self.N])
        x = base.uniform(0.0, 1.0, (self.N, self.P))
        y = 1.0 + x @ np.arange(1.0, self.P + 1.0) + base.standard_normal(self.N)
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, self.P + 1)
        self.y = y * scale[0]
        self.x = np.ascontiguousarray(x * scale[1:])

    def run(self, qf) -> list[dict]:
        ds = qf.model.Dataset(y=self.y, x=self.x)
        fits = [qf.regression.fit_regression_quantile(ds, a) for a in self.ALPHAS]
        return [{"beta0": f.beta0_hat, "beta": f.beta_hat, "objective": f.objective,
                 "n_active": f.n_active} for f in fits]

    def check(self, outputs) -> list[list[str]]:
        optima = [oracles.rq_optimum(self.y, self.x, a)[0] for a in self.ALPHAS]
        return [[f for a, opt, fit in zip(self.ALPHAS, optima, out)
                 for f in check_lp_fit(self.y, self.x, a, opt, fit, self.OBJECTIVE_RTOL)]
                for out in outputs]


def check_lp_fit(y, x, alpha, optimum, fit, rtol) -> list[str]:
    fails = []
    residuals = y - fit["beta0"] - x @ fit["beta"]
    own = oracles.check_loss_sum(residuals, alpha)
    if not near(own, optimum, rtol):
        fails.append(f"objective: alpha {alpha}: check loss {own!r} at the returned "
                     f"coefficients vs LP optimum {optimum!r}")
    if not near(fit["objective"], own, 1e-12):
        fails.append(f"objective_field: alpha {alpha}: reported {fit['objective']!r} "
                     f"vs {own!r}")
    p = x.shape[1]
    if fit["n_active"] < p + 1:
        fails.append(f"n_active: alpha {alpha}: {fit['n_active']} < p + 1")
    tol = 1e-9 * (1.0 + float(np.max(np.abs(residuals))))
    neg = int(np.sum(residuals < -tol))
    pos = int(np.sum(residuals > tol))
    n_alpha = oracles.decimal_product(y.size, alpha)
    if not neg <= n_alpha <= y.size - pos:
        fails.append(f"residual_signs: alpha {alpha}: {neg} negative, {pos} positive, "
                     f"n alpha = {n_alpha}")
    return fails


WORKLOADS = {
    "cli": Cli,
    "fit_large": FitLarge,
    "monte_carlo": MonteCarlo,
}
