"""Monte Carlo harness for the consistency and rate claims of the estimators.

Generates linear-model data with known ground truth and summarizes errors
as per-sample-size RMSEs with a log-log slope.  A study is a table of named
metrics, read in one pass that draws and fits each replicate once.

Reproducibility: the generator is the counter-based Philox engine keyed by
``SeedSequence([seed, n, replicate])``, so every (replicate, n) pair owns an
independent substream and execution order cannot change results.  Every
replicate is drawn by :func:`generate`, with its hidden errors held in its
batch, and the batches' size and members cannot change results either: each
replicate's slopes are bitwise the ones it gets when fitted alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DomainError
from .model import Dataset, _write_csv, order_index
from .ranks import _fit_slopes
from .regression import _batch_size
from .two_step import averaged_two_step_process, centered_process
from . import functionals as fn

ERROR_DISTS = ("standard_normal", "shifted_exponential", "uniform_centered")
DESIGNS = ("iid_uniform_cube", "equispaced", "iid_normal")
# Functionals whose population value ErrorDistribution.true_functional knows,
# the ones functional_consistency_study can run.
STUDY_FUNCTIONALS = fn.FUNCTIONALS[:2]

# Sup-deviation threshold c in the coverage fraction P(sup-deviation < c / sqrt(n)).
COVERAGE_C = 5.0

# The most rows one interior point of a study solves, and half the most
# responses a batch of replicates holds (see _replicates): 163 replicates at
# n = 100, 40 at n = 400 and 20 at n = 1600, whose fits solve a band of 436
# rows and its two glob rows each.  rate_study_two_step on perfbench's
# monte_carlo configuration peaks at 1.76 MB (13.4 float64 arrays of this
# size, tracemalloc, numpy 2.4) at n = 1600, where a batch holds its errors.
# In-process, over 20 interleaved rounds of that operation, batches of 20 at
# n = 1600 took 0.85 of the time of batches of 10; batches of 40 took 0.77
# but peaked at 2.86 MB.  No batch of two or more solves over 8192 rows,
# numpy's einsum buffer, past which a problem is solved alone.
_BATCH_ELEMENTS = 16384

_STD_NORMAL = NormalDist()


def _normal_cdf(z: float) -> float:
    # erfc keeps full relative precision in the lower tail, where 1 + erf cancels
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class ErrorDistribution:
    """Mean-zero error law with closed-form population functionals.

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
        if not math.isfinite(self.param):
            raise DomainError(f"{self.kind} needs a finite parameter, got {self.param}")
        if self.kind != "standard_normal" and self.param <= 0:
            raise DomainError(f"{self.kind} needs a positive parameter")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "standard_normal":
            return rng.standard_normal(n)
        if self.kind == "shifted_exponential":
            return rng.exponential(1.0 / self.param, n) - 1.0 / self.param
        half = self.param / 2.0
        return rng.uniform(-half, half, n)

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
        if self.design == "equispaced" and self.p > 1:
            raise DomainError(f"equispaced design is defined for p <= 1, got p = {self.p}")
        if len(self.beta) != self.p:
            raise DomainError(f"beta must have length p={self.p}")
        if not math.isfinite(self.beta0):
            raise DomainError(f"beta0 must be finite, got {self.beta0}")
        if not all(math.isfinite(b) for b in self.beta):
            raise DomainError(f"beta must be finite, got {self.beta}")
        if not self.alphas or not all(0.0 < a < 1.0 for a in self.alphas):
            raise DomainError("alpha grid must be nonempty and lie inside (0, 1)")
        if not 0.0 < self.lam < 1.0:
            raise DomainError("lambda must be in (0, 1)")
        if self.replications < 1 or min(self.n_grid, default=0) < self.p + 2:
            raise DomainError("invalid replications or n_grid")
        if len(set(self.n_grid)) < 2:
            raise DomainError("need at least two distinct sample sizes for a rate study")
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
        return (np.arange(n) / (n - 1)).reshape(-1, 1)
    if config.design == "iid_uniform_cube":
        return rng.uniform(0.0, 1.0, (n, p))
    return rng.standard_normal((n, p))


def generate(config: SimulationConfig, n: int, replicate: int) -> tuple[Dataset, np.ndarray]:
    """One replication: observable dataset plus the hidden errors.

    Deterministic in (seed, n, replicate).  The design substream is drawn
    before the error substream, both from the same Philox key.
    """
    rng = _substream(config.seed, n, replicate)
    x = _design_matrix(config, n, rng)
    z = config.error_dist.sample(rng, n)
    return Dataset(y=(config.beta0 + x @ np.asarray(config.beta, dtype=float)) + z, x=x), z


@dataclass(frozen=True)
class _Replicate:
    """One replicate as a metric reads it (see :func:`_replicates`); its
    process and error order statistics are formed on first read, once."""

    config: SimulationConfig
    ds: Dataset
    z: np.ndarray
    slopes: np.ndarray
    ranks: np.ndarray

    @functools.cached_property
    def process(self):
        return averaged_two_step_process(self.ds, self.config.lam, slopes=self.slopes)

    @functools.cached_property
    def order_statistics(self) -> np.ndarray:
        return np.sort(self.z)[self.ranks]

    def sup_deviation(self, nuisance) -> float:
        return np.max(np.abs(self.process.values[self.ranks] - nuisance - self.order_statistics))


def _replicates(config: SimulationConfig, n: int, metrics: dict) -> list:
    """``[metric(rep) for metric in metrics.values()]`` of each replicate at
    n, in order: ``rep`` holds its dataset, hidden errors z, fitted slopes and
    the 0-based ranks of the alpha grid at n.

    Each replicate is drawn once by :func:`generate` into its batch's
    responses (B, n), designs (B, n, p) and errors (B, n), whose slopes are
    fitted together, each the bits of a lone :func:`fit_r_estimator`.  A
    batch holds at most twice ``_BATCH_ELEMENTS`` responses and its interior
    point solves at most ``_BATCH_ELEMENTS`` rows (see
    :func:`regression._batch_size`).  Each metric reads a :class:`Dataset` of
    one replicate's rows, so a batch is held once; no dispersion is computed.
    """
    size = min(_batch_size(n, config.p + 1, _BATCH_ELEMENTS), config.replications)
    y, x, z = np.empty((size, n)), np.empty((size, n, config.p)), np.empty((size, n))
    ranks, measured = np.array([order_index(a, n) for a in config.alphas]) - 1, []
    for start in range(0, config.replications, size):
        count = min(size, config.replications - start)
        for k in range(count):
            ds, z[k] = generate(config, n, start + k)
            y[k], x[k] = ds.y, ds.x
        del ds
        slopes = ([b for b, _ in _fit_slopes(y[:count], x[:count], config.lam)] if config.p
                  else [np.zeros(0)] * count)
        reps = (_Replicate(config, Dataset(y=y[k], x=x[k]), z[k], b, ranks)
                for k, b in enumerate(slopes))
        measured.extend([metric(rep) for metric in metrics.values()] for rep in reps)
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


def _study(config: SimulationConfig, metrics: dict) -> list[RateReport]:
    """One report per named metric, each replicate drawn and fitted once for all."""
    by_n = [zip(*_replicates(config, n, metrics)) for n in config.n_grid]
    return [_summarize(name, config.n_grid, errors) for name, *errors in zip(metrics, *by_n)]


def rate_study_two_step(config: SimulationConfig) -> list[RateReport]:
    """Sup-over-alpha closeness of the averaged two-step process to the error
    order statistics, in two reports: after removing the true nuisance
    ``beta0 + x_bar'beta``, and after removing the response-mean estimate."""
    beta = np.asarray(config.beta, dtype=float)
    return _study(config, {
        "two_step_sup_dev_true_nuisance":
            lambda rep: rep.sup_deviation(config.beta0 + rep.ds.x_mean @ beta),
        "two_step_sup_dev_mean_centered": lambda rep: rep.sup_deviation(rep.ds.y_mean)})


def rate_study_r_estimator(config: SimulationConfig) -> RateReport:
    """RMSE of the slope-estimate error norm across the sample-size grid."""
    if config.p < 1:
        raise DomainError("slope rate study needs p >= 1")
    beta = np.asarray(config.beta, dtype=float)
    return _study(config, {"r_estimator_norm_error":
                           lambda rep: float(np.linalg.norm(rep.slopes - beta))})[0]


def functional_consistency_study(config: SimulationConfig, kind: str,
                                 level: float) -> RateReport:
    """Error of a functional of the centered two-step process against its
    population value for the configured error law."""
    truth = config.error_dist.true_functional(kind, level)  # refuses any other kind
    return _study(config, {f"functional_{kind}_{level}": lambda rep: getattr(fn, kind)(
        centered_process(rep.process), level).value - truth})[0]
