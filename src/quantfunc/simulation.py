"""Monte Carlo harness for the consistency and rate claims of the estimators.

Generates linear-model data with known ground truth, runs the rank-based
slope estimator and the averaged two-step process on each replication, and
summarizes errors as per-sample-size RMSEs with a fitted log-log slope.

Reproducibility: the generator is the counter-based Philox engine keyed by
``SeedSequence([seed, n, replicate])``, so every (replicate, n) pair owns an
independent substream and execution order cannot change results.  The
replicates of one n are drawn straight into one batch's arrays and fitted
there, and a batch's size and members cannot change results either: each
replicate's data are the bits :func:`generate` draws, and its slopes are
bitwise the ones it gets when fitted alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError
from .model import Dataset, _write_csv, order_index
from .ranks import _fit_slopes
from .two_step import averaged_two_step_process, centered_process
from . import functionals as fn

ERROR_DISTS = ("standard_normal", "shifted_exponential", "uniform_centered")
DESIGNS = ("iid_uniform_cube", "equispaced", "iid_normal")
# Functionals whose population value ErrorDistribution.true_functional knows,
# the ones functional_consistency_study can run.
STUDY_FUNCTIONALS = fn.FUNCTIONALS[:2]

# Sup-deviation threshold c in the coverage fraction P(sup-deviation < c / sqrt(n)).
COVERAGE_C = 5.0

# Most responses (replicates times n) whose slopes are fitted in one batch.
# A batch is drawn once into its response and design arrays and fitted there;
# a study peaks at about 12 float64 arrays of this size (tracemalloc, p = 1,
# n = 100 to 1600), about 1.2 MB.  Paired 20 s runs of perfbench's
# monte_carlo workload against the previous tree, which copied each batch
# three times, held 7168 and imported numpy.polynomial (2-core host, 3 to 11
# pairs each; medians of the paired changes):
#   budget    op_s   peak RSS
#     7168   +5.6 %   -1.23 %   (in-process timings read its op_s unchanged)
#    10240  -11.9 %   -0.65 %
#    12288  -21.0 %   -0.28 %
#    14336  -18.9 %   +0.41 %
#    15360  -14.1 %   +0.68 %
#    16384  -27.4 %   +1.12 %
# 12288 is the largest budget whose every pair stayed within 1 % of the
# previous peak RSS (at most +0.10 %); 14336 and 15360 each had a pair past
# 1 % and were no faster.
_BATCH_ELEMENTS = 12288

# The view constructor is bound here once: perfbench's tracer replaces the
# module's Dataset name with a function.
_dataset_of_rows = Dataset._of_rows

_STD_NORMAL = NormalDist()


def _normal_ppf(u: float) -> float:
    if 0.0 < u < 1.0:
        return _STD_NORMAL.inv_cdf(u)
    return -math.inf if u == 0.0 else math.inf if u == 1.0 else math.nan


def _normal_cdf(z: float) -> float:
    # erfc keeps full relative precision in the lower tail, where 1 + erf cancels
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


_normal_ppf_vec = np.vectorize(_normal_ppf, otypes=[float])
_normal_cdf_vec = np.vectorize(_normal_cdf, otypes=[float])


@dataclass(frozen=True)
class ErrorDistribution:
    """Mean-zero error law with an analytic quantile function.

    Kinds: ``standard_normal``; ``shifted_exponential`` (Exp(rate) minus its
    mean 1/rate, param = rate); ``uniform_centered`` (uniform on
    (-width/2, width/2), param = width).  All have continuous positive
    density on their support and finite variance.
    """

    kind: str
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in ERROR_DISTS:
            raise DomainError(f"unknown error distribution {self.kind!r}")
        if self.kind != "standard_normal" and self.param <= 0:
            raise DomainError(f"{self.kind} needs a positive parameter")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "standard_normal":
            return rng.standard_normal(n)
        if self.kind == "shifted_exponential":
            return rng.exponential(1.0 / self.param, n) - 1.0 / self.param
        half = self.param / 2.0
        return rng.uniform(-half, half, n)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "standard_normal":
            return _normal_ppf_vec(u)
        if self.kind == "shifted_exponential":
            return -np.log1p(-u) / self.param - 1.0 / self.param
        return self.param * (u - 0.5)

    def cdf(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "standard_normal":
            return _normal_cdf_vec(z)
        if self.kind == "shifted_exponential":
            return 1.0 - np.exp(-self.param * np.maximum(z + 1.0 / self.param, 0.0))
        half = self.param / 2.0
        return np.clip((z + half) / self.param, 0.0, 1.0)

    def true_functional(self, kind: str, level: float) -> float:
        """Population value of a functional, in closed form.

        With rate r (``shifted_exponential``) and width w
        (``uniform_centered``):

        - ``cvar`` at alpha, the mean of Q(u) over (alpha, 1):
          phi(z_alpha) / (1 - alpha), -log1p(-alpha) / r and w alpha / 2;
        - ``mean_excess`` at gamma, E[Z - gamma | Z >= gamma]:
          phi(gamma) / Phi(-gamma) - gamma; 1/r above the support's lower
          end -1/r and -gamma below it; (w/2 - gamma) / 2 inside the
          support and -gamma below it.  A threshold at or above the upper
          end of the support (or where Phi(-gamma) underflows) raises
          :class:`DomainError`.
        """
        if kind == "cvar":
            if not 0.0 < level < 1.0:
                raise DomainError(f"cvar level must be in (0, 1), got {level}")
            if self.kind == "standard_normal":
                return _STD_NORMAL.pdf(_STD_NORMAL.inv_cdf(level)) / (1.0 - level)
            if self.kind == "shifted_exponential":
                return -math.log1p(-level) / self.param
            return self.param * level / 2.0
        if kind == "mean_excess":
            gamma = float(level)
            if self.kind == "standard_normal":
                upper = _normal_cdf(-gamma)
                if upper == 0.0:
                    raise DomainError("threshold beyond the support")
                return _STD_NORMAL.pdf(gamma) / upper - gamma
            if self.kind == "shifted_exponential":
                return 1.0 / self.param if gamma >= -1.0 / self.param else -gamma
            half = self.param / 2.0
            if gamma >= half:
                raise DomainError("threshold beyond the support")
            return (half - gamma) / 2.0 if gamma > -half else -gamma
        raise DomainError(f"no analytic truth for functional {kind!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one Monte Carlo study; identical configs give
    bit-identical results."""

    n_grid: tuple[int, ...]
    p: int
    beta0: float
    beta: tuple[float, ...]
    error_dist: ErrorDistribution
    design: str
    lam: float = 0.5
    alphas: tuple[float, ...] = tuple(round(0.05 * k, 3) for k in range(1, 20))
    replications: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise DomainError(f"unknown design {self.design!r}")
        if len(self.beta) != self.p:
            raise DomainError(f"beta must have length p={self.p}")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise DomainError("alpha grid must lie inside (0, 1)")
        if not 0.0 < self.lam < 1.0:
            raise DomainError("lambda must be in (0, 1)")
        if self.replications < 1 or min(self.n_grid, default=0) < self.p + 2:
            raise DomainError("invalid replications or n_grid")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RateReport:
    """Per-n RMSE summary of one error metric with its log-log slope."""

    metric: str
    n_grid: tuple[int, ...]
    rmse: tuple[float, ...]
    fitted_slope: float
    coverage: tuple[float, ...]
    mean_error: tuple[float, ...] = ()

    def to_json(self) -> str:
        return json.dumps({
            "metric": self.metric,
            "n_grid": list(self.n_grid),
            "rmse": list(self.rmse),
            "fitted_slope": self.fitted_slope,
            "coverage": list(self.coverage),
            "mean_error": list(self.mean_error),
        }, sort_keys=True)


def reports_to_csv(reports, path) -> None:
    """One CSV row per (metric, n), deterministic ordering."""
    _write_csv(path, {
        "metric": [r.metric for r in reports for _ in r.n_grid],
        "n": [n for r in reports for n in r.n_grid],
        "rmse": [v for r in reports for v in r.rmse],
        "coverage": [v for r in reports for v in r.coverage],
        "fitted_slope": [r.fitted_slope for r in reports for _ in r.n_grid],
    })


def _substream(seed: int, n: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, n, replicate])))


def _design_matrix(config: SimulationConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    p = config.p
    if p == 0:
        return np.zeros((n, 0))
    if config.design == "equispaced":
        if p != 1:
            raise DomainError("equispaced design is defined for p = 1")
        return (np.arange(n) / (n - 1)).reshape(-1, 1)
    if config.design == "iid_uniform_cube":
        return rng.uniform(0.0, 1.0, (n, p))
    return rng.standard_normal((n, p))


def _draw(config: SimulationConfig, n: int, replicate: int, y: np.ndarray,
          x: np.ndarray) -> np.ndarray:
    """Draw one replication into y (n,) and x (n, p) and return its hidden
    errors.

    Deterministic in (seed, n, replicate).  The design substream is drawn
    before the error substream, both from the same Philox key.
    """
    rng = _substream(config.seed, n, replicate)
    design = _design_matrix(config, n, rng)
    z = config.error_dist.sample(rng, n)
    np.add(config.beta0 + design @ np.asarray(config.beta, dtype=float), z, out=y)
    x[...] = design
    return z


def generate(config: SimulationConfig, n: int, replicate: int) -> tuple[Dataset, np.ndarray]:
    """One replication: observable dataset plus the hidden errors.

    Deterministic in (seed, n, replicate); a study draws the same bits.
    """
    y, x = np.empty(n), np.empty((n, config.p))
    z = _draw(config, n, replicate, y, x)
    return Dataset(y=y, x=x), z


def _replicates(config: SimulationConfig, n: int, measure, errors=None) -> list:
    """``measure(ds, e, slopes)`` of each replicate at sample size n, in
    replicate order, with ``e = errors(z)`` of its hidden errors z, or None.

    The replicates are drawn a batch at a time, straight into one frozen
    response array (B, n) and one design array (B, n, p).  Each dataset is a
    read-only view of its rows, and the slopes are fitted on the arrays
    themselves, each the bits of a lone :func:`fit_r_estimator`.  ``errors``
    reads z as it is drawn, so that a batch holds no errors while it is
    fitted.  ``measure`` keeps no dataset, so one batch's arrays are freed
    before the next batch is fitted.  The studies read only the slopes, so no
    dispersion is computed.
    """
    size, measured = max(1, _BATCH_ELEMENTS // n), []
    for start in range(0, config.replications, size):
        reps = range(start, min(start + size, config.replications))
        y, x = np.empty((len(reps), n)), np.empty((len(reps), n, config.p))
        hidden = []
        for k, rep in enumerate(reps):
            z = _draw(config, n, rep, y[k], x[k])
            hidden.append(None if errors is None else errors(z))
        y.setflags(write=False)
        x.setflags(write=False)
        datasets = [_dataset_of_rows(y_k, x_k) for y_k, x_k in zip(y, x)]
        if config.p:
            slopes = [b for b, _ in _fit_slopes(y, x, config.lam)]
        else:
            slopes = [np.zeros(0)] * len(reps)
        measured.extend(map(measure, datasets, hidden, slopes))
    return measured


def _fit_slope(n_grid, rmse) -> float:
    logs_n = np.log(np.asarray(n_grid, dtype=float))
    logs_r = np.log(np.maximum(np.asarray(rmse, dtype=float), 1e-300))
    a = np.vstack([logs_n, np.ones_like(logs_n)]).T
    slope, _ = np.linalg.lstsq(a, logs_r, rcond=None)[0]
    return float(slope)


def _summarize(metric, n_grid, errors_by_n) -> RateReport:
    rmse, coverage, mean_err = [], [], []
    for n, errs in zip(n_grid, errors_by_n):
        errs = np.asarray(errs, dtype=float)
        rmse.append(float(np.sqrt(np.mean(errs ** 2))))
        coverage.append(float(np.mean(np.abs(errs) < COVERAGE_C / math.sqrt(n))))
        mean_err.append(float(np.mean(errs)))
    return RateReport(metric=metric, n_grid=tuple(n_grid), rmse=tuple(rmse),
                      fitted_slope=_fit_slope(n_grid, rmse),
                      coverage=tuple(coverage), mean_error=tuple(mean_err))


def rate_study_two_step(config: SimulationConfig) -> list[RateReport]:
    """Sup-over-alpha closeness of the averaged two-step process to the error
    order statistics.

    Returns two reports: deviations after removing the true nuisance
    ``beta0 + x_bar'beta`` and after removing the response-mean estimate.
    """
    if len(config.n_grid) < 2:
        raise DomainError("need at least two sample sizes for a rate study")
    beta = np.asarray(config.beta, dtype=float)
    sup_true, sup_mean = [], []
    for n in config.n_grid:
        idx = np.array([order_index(a, n) for a in config.alphas])

        def deviations(ds, z_sorted, slopes):
            proc = averaged_two_step_process(ds, config.lam, slopes=slopes)
            b_vals = proc.values[idx - 1]
            nuisance_true = config.beta0 + ds.x_mean @ beta
            return (np.max(np.abs(b_vals - nuisance_true - z_sorted)),
                    np.max(np.abs(b_vals - ds.y_mean - z_sorted)))

        d_true, d_mean = zip(*_replicates(config, n, deviations,
                                          lambda z: np.sort(z)[idx - 1]))
        sup_true.append(d_true)
        sup_mean.append(d_mean)
    return [
        _summarize("two_step_sup_dev_true_nuisance", config.n_grid, sup_true),
        _summarize("two_step_sup_dev_mean_centered", config.n_grid, sup_mean),
    ]


def rate_study_r_estimator(config: SimulationConfig) -> RateReport:
    """RMSE of the slope-estimate error norm across the sample-size grid."""
    if config.p < 1:
        raise DomainError("slope rate study needs p >= 1")
    beta = np.asarray(config.beta, dtype=float)

    def error(ds, e, slopes):
        return float(np.linalg.norm(slopes - beta))

    errors_by_n = [_replicates(config, n, error) for n in config.n_grid]
    return _summarize("r_estimator_norm_error", config.n_grid, errors_by_n)


def functional_consistency_study(config: SimulationConfig, kind: str,
                                 level: float) -> RateReport:
    """Error of a functional of the centered two-step process against its
    population value for the configured error law."""
    truth = config.error_dist.true_functional(kind, level)  # refuses any other kind

    def error(ds, e, slopes):
        proc = centered_process(averaged_two_step_process(ds, config.lam, slopes=slopes))
        return getattr(fn, kind)(proc, level).value - truth

    errors_by_n = [_replicates(config, n, error) for n in config.n_grid]
    return _summarize(f"functional_{kind}_{level}", config.n_grid, errors_by_n)
