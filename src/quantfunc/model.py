"""Linear-model data containers, check loss, order statistics and design diagnostics.

The estimand is the quantile function of the error variable in the model

    y_i = beta0 + x_i' beta + z_i,    i = 1, ..., n

where the errors z_i are i.i.d. with mean zero and finite variance.  All
estimators in the other modules consume the :class:`Dataset` defined here and
emit nondecreasing step functions on (0, 1) represented by
:class:`StepQuantileProcess`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DataError, DomainError

# Scale-free threshold below which the centered scatter matrix is treated as
# singular (smallest eigenvalue relative to the largest).
SINGULARITY_RTOL = 1e-10

_CSV_ROWS = 4096  # rows per write of _write_csv


@dataclass(frozen=True)
class Dataset:
    """Immutable response vector and covariate matrix.

    Parameters
    ----------
    y : array_like, shape (n,)
        Responses.
    x : array_like, shape (n, p)
        Covariates; ``p`` may be zero (pass an ``(n, 0)`` array).
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float, copy=True)
        x = np.array(self.x, dtype=float, copy=True)
        if y.ndim != 1:
            raise DataError("y must be one-dimensional")
        if x.ndim != 2:
            raise DataError("x must be two-dimensional (use shape (n, 0) for p = 0)")
        if x.shape[0] != y.shape[0]:
            raise DataError(f"row mismatch: y has {y.shape[0]} rows, x has {x.shape[0]}")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise DataError("non-finite entries in y or x")
        n, p = x.shape
        if n < p + 2:
            raise DataError(f"need n >= p + 2 observations, got n={n}, p={p}")
        y.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def x_mean(self) -> np.ndarray:
        """Covariate column means, shape (p,)."""
        return self.x.mean(axis=0)

    @property
    def y_mean(self) -> float:
        return float(self.y.mean())


@dataclass(frozen=True)
class DesignDiagnostics:
    """Regularity diagnostics of the centered design.

    ``max_leverage`` is ``None`` when the centered scatter matrix is
    numerically singular.  ``x1_suspect`` is advisory only and never blocks
    fitting.
    """

    v_n: np.ndarray
    max_centered_norm: float
    max_leverage: float | None
    v_n_over_n_spectral_norm: float
    x1_suspect: bool


def check_loss_vec(u: np.ndarray, alpha: float) -> np.ndarray:
    """Asymmetric absolute loss ``u * (alpha - 1{u < 0})``, elementwise.

    Its minimizer over constants is the alpha-quantile.
    """
    u = np.asarray(u, dtype=float)
    return u * (alpha - (u < 0.0))


def scaled_level(alpha: float, n: int) -> Fraction:
    """``n * alpha`` exactly, with alpha read as the decimal it prints as.

    Every count or rank taken from a level goes through here.  In binary
    ``100 * 0.55`` is 55.00000000000001 and ``1 - 0.9`` is below 0.1, so a
    ceiling or floor taken in float can land one rank off.
    """
    return n * Fraction(repr(float(alpha)))


def order_index(alpha: float, n: int) -> int:
    """1-based rank of the alpha-quantile order statistic in a sample of size n.

    Uses the lower-empirical-quantile convention ``max(1, ceil(n * alpha))``,
    with ``n * alpha`` taken exactly by :func:`scaled_level`, which makes
    every quantile process in this library left-continuous with exactly n
    steps.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return min(max(1, math.ceil(scaled_level(alpha, n))), n)


@dataclass(frozen=True)
class StepQuantileProcess:
    """Nondecreasing step function on (0, 1) with exactly n breakpoints.

    Evaluation at ``alpha`` returns the ``order_index(alpha, n)``-th sorted
    value; breakpoints sit at k/n, k = 1, ..., n-1 (left-continuous steps).
    """

    values: np.ndarray  # sorted ascending, shape (n,)

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.size == 0:
            raise DataError("process needs a nonempty one-dimensional value vector")
        if not np.all(np.isfinite(v)):
            raise DataError("non-finite process values")
        if np.any(v[1:] < v[:-1]):
            raise DataError("process values must be sorted ascending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __call__(self, alpha: float) -> float:
        return float(self.values[order_index(alpha, self.n) - 1])

    def breakpoints(self) -> np.ndarray:
        """Grid k/n, k = 1, ..., n (upper ends of the constancy intervals)."""
        n = self.n
        return np.arange(1, n + 1) / n

    def to_csv(self, path) -> None:
        """Write (alpha_breakpoint, value) rows, one per step, in step order."""
        _write_csv(path, {"alpha_breakpoint": self.breakpoints(), "value": self.values})


def _write_csv(path, columns: dict) -> None:
    """Write a CSV file of the header line ``columns``' keys, then one row per
    index of its values, equal-length lists or 1-D arrays, each value as
    ``str`` prints it, ``_CSV_ROWS`` rows per write."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(next(iter(columns.values()))), _CSV_ROWS):
            chunk = [np.asarray(c[start:start + _CSV_ROWS]).tolist() for c in columns.values()]
            fh.write("".join(",".join(map(str, row)) + "\n" for row in zip(*chunk)))


def empirical_quantile_process(values) -> StepQuantileProcess:
    """Empirical quantile function of a sample, as a step process."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise DataError("need a one-dimensional sample")
    return StepQuantileProcess(values=np.sort(v))


def _centered_scatters(x: np.ndarray):
    """Centered designs, V_n, their ascending eigenvalues and whether each V_n
    is singular, of a batch of designs x of shape (B, n, p), p >= 1: singular
    when its smallest eigenvalue is at most :data:`SINGULARITY_RTOL` times its
    largest, or its largest is not positive.  One eigvalsh call takes the
    whole batch, and each design's arrays are the bits it gets alone."""
    xc = x - x.mean(axis=1, keepdims=True)
    v_n = np.matmul(xc.transpose(0, 2, 1), xc)
    v_n = (v_n + v_n.transpose(0, 2, 1)) / 2.0
    eigvals = np.linalg.eigvalsh(v_n)
    lowest, highest = eigvals[:, 0], eigvals[:, -1]
    singular = (lowest <= SINGULARITY_RTOL * np.maximum(highest, 0.0)) | (highest <= 0.0)
    return xc, v_n, eigvals, singular


def design_diagnostics(ds: Dataset) -> DesignDiagnostics:
    """Centered-scatter diagnostics for the Noether-type design condition.

    Reports the centered scatter matrix V_n, the largest centered covariate
    norm, the largest leverage w.r.t. V_n and the spectral norm of V_n / n.
    The advisory flag trips when max leverage exceeds 0.5 or the largest
    centered norm exceeds n**(1/4).
    """
    n, p = ds.n, ds.p
    if p == 0:
        return DesignDiagnostics(
            v_n=np.zeros((0, 0)),
            max_centered_norm=0.0,
            max_leverage=0.0,
            v_n_over_n_spectral_norm=0.0,
            x1_suspect=False,
        )
    xc, v_n, eigvals, singular = (a[0] for a in _centered_scatters(ds.x[None]))
    max_centered_norm = float(np.max(np.linalg.norm(xc, axis=1)))
    spectral = float(eigvals[-1] / n)
    if singular:
        max_leverage = None
    else:
        sol = np.linalg.solve(v_n, xc.T)
        max_leverage = float(np.max(np.einsum("ij,ji->i", xc, sol)))
        max_leverage = min(max(max_leverage, 0.0), 1.0)
    suspect = (max_leverage is not None and max_leverage > 0.5) or (
        max_centered_norm > n ** 0.25
    )
    return DesignDiagnostics(
        v_n=v_n,
        max_centered_norm=max_centered_norm,
        max_leverage=max_leverage,
        v_n_over_n_spectral_norm=spectral,
        x1_suspect=bool(suspect),
    )
