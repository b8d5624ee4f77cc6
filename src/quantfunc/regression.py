"""Ordinary alpha-regression quantile via an exact check-loss LP.

The fit minimizes ``sum_i rho_alpha(y_i - b0 - x_i'b)`` exactly.  The LP uses
the standard split of residuals into positive and negative parts and a
deterministic Bland-rule simplex, so repeated fits return the same vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError, SolverFailure
from .model import Dataset, check_loss_vec
from .simplex import solve_simplex

OBJECTIVE_RTOL = 1e-8
RESIDUAL_ZERO_TOL = 1e-9

_IPM_STEP = 0.99995     # fraction of the step to the boundary of the box
_IPM_RTOL = 1e-11       # the interior point stops at this gap, relative to the loss
_IPM_MAX_ITER = 100
_VERTEX_RTOL = 1e-9     # a vertex is certified within this of the dual bound


@dataclass(frozen=True)
class QuantileFit:
    """Regression quantile at a single level.

    ``beta0_hat`` is the intercept, ``beta_hat`` the p slope estimates,
    ``objective`` the attained check-loss sum and ``n_active`` the number of
    exactly-fit observations at the returned vertex.
    """

    alpha: float
    beta0_hat: float
    beta_hat: np.ndarray
    objective: float
    n_active: int


def _augmented_design(ds: Dataset) -> np.ndarray:
    return np.hstack([np.ones((ds.n, 1)), ds.x])


def fit_regression_quantile(ds: Dataset, alpha: float) -> QuantileFit:
    """Global minimizer of the check-loss objective over intercept and slopes.

    Raises :class:`IdentifiabilityError` when the augmented design (1, X) is
    rank deficient.  With non-unique optima the deterministic pivoting rule
    selects a reproducible vertex.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    a_design = _augmented_design(ds)
    n, q = a_design.shape
    if np.linalg.matrix_rank(a_design) < q:
        raise IdentifiabilityError("augmented design (1, X) is rank deficient")

    # Variables: [b+ (q), b- (q), u (n), v (n)]; constraints A b + u - v = y.
    nvars = 2 * q + 2 * n
    amat = np.zeros((n, nvars))
    amat[:, :q] = a_design
    amat[:, q:2 * q] = -a_design
    rows = np.arange(n)
    amat[rows, 2 * q + rows] = 1.0
    amat[rows, 2 * q + n + rows] = -1.0
    c = np.concatenate([np.zeros(2 * q), np.full(n, alpha), np.full(n, 1.0 - alpha)])

    b = ds.y.copy()
    basis = []
    for i in range(n):
        if b[i] >= 0.0:
            basis.append(2 * q + i)          # u_i basic
        else:
            basis.append(2 * q + n + i)      # v_i basic; normalize the row
            amat[i] = -amat[i]
            b[i] = -b[i]

    x, _ = solve_simplex(c, amat, b, basis)
    coef = x[:q] - x[q:2 * q]
    coef = _polish_vertex(ds, alpha, a_design, coef)
    residuals = ds.y - a_design @ coef
    objective = float(np.sum(check_loss_vec(residuals, alpha)))
    scale = float(np.max(np.abs(residuals))) if n else 1.0
    n_active = int(np.sum(np.abs(residuals) <= RESIDUAL_ZERO_TOL * (1.0 + scale)))
    return QuantileFit(
        alpha=alpha,
        beta0_hat=float(coef[0]),
        beta_hat=coef[1:].copy(),
        objective=objective,
        n_active=n_active,
    )


def _polish_vertex(ds: Dataset, alpha: float, a_design: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """Re-solve the vertex from the original data to remove pivoting roundoff.

    An optimal vertex interpolates p + 1 observations; solving that
    interpolation system directly recovers the coefficients to machine
    precision (for p = 0, the exact order statistic).  The polished point is
    kept only when it does not worsen the objective.
    """
    q = a_design.shape[1]
    residuals = ds.y - a_design @ coef
    active = np.argsort(np.abs(residuals), kind="stable")[:q]
    sub = a_design[active]
    if np.linalg.matrix_rank(sub) < q:
        return coef
    polished = np.linalg.solve(sub, ds.y[active])
    obj_old = float(np.sum(check_loss_vec(residuals, alpha)))
    obj_new = float(np.sum(check_loss_vec(ds.y - a_design @ polished, alpha)))
    if obj_new <= obj_old + OBJECTIVE_RTOL * (1.0 + abs(obj_old)):
        return polished
    return coef


def check_loss_objective(ds: Dataset, alpha: float, beta0: float, beta) -> float:
    """Check-loss sum at an arbitrary coefficient vector."""
    beta = np.asarray(beta, dtype=float)
    residuals = ds.y - beta0 - (ds.x @ beta if ds.p else 0.0)
    return float(np.sum(check_loss_vec(residuals, alpha)))


def averaged_regression_quantile(fit: QuantileFit, ds: Dataset) -> float:
    """Mean-design evaluation ``beta0_hat + x_mean' beta_hat`` of a fit."""
    if fit.beta_hat.shape != (ds.p,):
        raise DataError("fit and dataset dimensions do not match")
    return float(fit.beta0_hat + ds.x_mean @ fit.beta_hat)


def _at(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(1, X_b)'v_b`` of each problem b of a batch, x of shape (B, n, p) and v
    of shape (B, n).  The sums run in numpy, not BLAS, and each over one
    problem's row, so neither the thread count nor the batch moves a bit."""
    return np.concatenate((v.sum(axis=1)[:, None], np.einsum("bij,bi->bj", x, v)), axis=1)


def _a(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(1, X_b) u_b`` of each problem b; X is read in place and never augmented."""
    return np.einsum("bij,bj->bi", x, u[:, 1:]) + u[:, :1]


def _normal_solver(x: np.ndarray, d: np.ndarray):
    """Solver of ``(1, X_b)' diag(d_b) (1, X_b) u_b = rhs_b`` for each problem b,
    scaled to a unit diagonal.

    A matrix singular to working precision, as when the weights of tied data
    pile onto fewer than q distinct rows, gets the least-squares solution.
    Then every problem is solved on its own, by the same LAPACK call as in
    the batch, so the others' solutions keep their bits.
    """
    q = x.shape[2] + 1
    m = np.empty((x.shape[0], q, q))
    for j in range(q):
        m[:, j, j:] = m[:, j:, j] = _at(x, d if j == 0 else d * x[:, :, j - 1])[:, j:]
    scale = 1.0 / np.sqrt(m.diagonal(axis1=1, axis2=2))
    m *= scale[:, :, None] * scale[:, None, :]

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = (rhs * scale)[:, :, None]
        try:
            return np.linalg.solve(m, rhs)[:, :, 0] * scale
        except np.linalg.LinAlgError:
            return np.array([_solve_or_lstsq(mb, rb) for mb, rb in zip(m, rhs)]) * scale
    return solve


def _solve_or_lstsq(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(m, rhs)[:, 0]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(m, rhs[:, 0], rcond=None)[0]


def _step(u, du, v, dv) -> np.ndarray:
    """``_IPM_STEP`` of each problem's longest step keeping ``u + t du, v + t dv
    >= 0``, at most 1."""
    return -_IPM_STEP / np.minimum(np.minimum((du / u).min(axis=1), (dv / v).min(axis=1)),
                                   -_IPM_STEP)


def _newton(x, d, solve, rp, a, s, z, w, mu=0.0, pz=0.0, pw=0.0):
    """Direction (da, dz, dw) toward ``a z = (1 - a) w = mu``, keeping dual
    feasibility and closing the primal residual ``rp``.  ``pz = da dz`` and
    ``pw = da dw`` are Mehrotra's second-order terms of the predictor."""
    g = z - w + (mu + pw) / s - (mu - pz) / a
    da = d * (_a(x, solve(rp + _at(x, d * g))) - g)
    del g
    return da, (mu - pz - z * (a + da)) / a, (mu + pw - w * (s - da)) / s


def _interior_point(y: np.ndarray, x: np.ndarray, tau: float, floor: np.ndarray) -> list:
    """Frisch-Newton interior point (Koenker and Portnoy 1997, Stat. Sci.) on
    a batch of B problems of one shape, y of shape (B, n) and x (B, n, p).

    Mehrotra's predictor-corrector for ``max y_b'a`` subject to
    ``(1, X_b)'a = (1 - tau)(1, X_b)'1``, ``0 <= a <= 1``.  With z, w the bound
    multipliers, ``w - z`` is the residual and ``tau sum w + (1 - tau) sum z``
    its check loss; the gap ``a'z + (1 - a)'w`` stops at ``_IPM_RTOL`` of that
    loss (unmoved by a shift of y) plus the problem's ``floor``.  Each problem
    has its own step lengths, centring and stopping test, and leaves the
    batch when it stops.  Every operation reads one problem's row alone, so
    a problem's iterates are the bits it reaches when solved alone.  Returns
    ``(a, w - z, iterations)`` of each problem, in batch order.
    """
    n = y.shape[1]
    b = (1.0 - tau) * _at(x, np.ones(y.shape))
    a, s = np.full(y.shape, 1.0 - tau), np.full(y.shape, tau)
    r = y - _a(x, _normal_solver(x, np.ones(y.shape))(_at(x, y)))
    shift = np.abs(r).mean(axis=1)
    shift[shift == 0.0] = 1.0
    z, w = np.maximum(-r, 0.0) + shift[:, None], np.maximum(r, 0.0) + shift[:, None]
    del r
    live, found = np.arange(y.shape[0]), [None] * y.shape[0]
    for iterations in itertools.count():
        gap = np.einsum("bi,bi->b", a, z) + np.einsum("bi,bi->b", s, w)
        loss = tau * w.sum(axis=1) + (1.0 - tau) * z.sum(axis=1)
        stop = (gap <= _IPM_RTOL * loss + floor) | (iterations == _IPM_MAX_ITER)
        if stop.any():
            last = stop.all()
            for j in np.flatnonzero(stop):  # a row view would keep the batch alive
                found[live[j]] = (a[j] if last else a[j].copy(), w[j] - z[j], iterations)
            if last:
                return found
            go = ~stop
            live, x, b, floor, gap = live[go], x[go], b[go], floor[go], gap[go]
            a, s, z, w = a[go], s[go], z[go], w[go]
        d = 1.0 / (z / a + w / s)
        solve, rp = _normal_solver(x, d), b - _at(x, a)
        da, dz, dw = _newton(x, d, solve, rp, a, s, z, w)
        ap, ad = _step(a, da, s, -da), _step(z, dz, w, dw)
        centre = np.minimum(ap, ad) < 1.0
        if centre.any():
            g_aff = (np.einsum("bi,bi->b", a + ap[:, None] * da, z + ad[:, None] * dz)
                     + np.einsum("bi,bi->b", s - ap[:, None] * da, w + ad[:, None] * dw))
            # A problem that takes the full predictor step keeps mu = pz = pw
            # = 0, which makes its corrector the predictor again, bit for bit.
            mu = np.array([[g * (g_a / g) ** 3 / (2 * n) if c else 0.0]
                           for g, g_a, c in zip(gap, g_aff, centre)])
            pz, pw = da * dz, da * dw
            pz[~centre] = pw[~centre] = 0.0
            del da, dz, dw
            da, dz, dw = _newton(x, d, solve, rp, a, s, z, w, mu, pz, pw)
            del pz, pw
            ap, ad = _step(a, da, s, -da), _step(z, dz, w, dw)
        a += ap[:, None] * da
        s -= ap[:, None] * da
        z += ad[:, None] * dz
        w += ad[:, None] * dw


def _certified_vertices(datasets: list[Dataset], tau: float):
    """Exact minimizer ``(b0, b)`` of ``sum rho_tau(y - b0 - X b)``, a vertex,
    of each dataset of a list of one n and p, their interior points run as one
    batch.

    A vertex interpolates q independent observations ranked by how far the
    interior point's ``a_i`` lie from {0, 1}, then by ``|residual|``, then by
    index.  It is certified once its check loss is within ``_VERTEX_RTOL`` of
    the dual bound ``d'r``, ``d = clip(a, 0, 1) - (1 - tau)``, or within the
    rounding of an exact fit.  Until then the basis point of smallest index
    whose Koenker-Bassett multiplier lies outside ``[tau - 1, tau]`` leaves,
    and the point where the loss stops falling along that edge enters.
    Each ``(1, X)`` must have full rank.  Yields, in list order, the
    coefficients and the iterations plus pivots of each dataset, or raises
    :class:`SolverFailure` at the first dataset with no certified vertex.
    """
    q = datasets[0].p + 1
    if len(datasets) == 1:  # views: a lone fit copies no data
        y, x = datasets[0].y[None], datasets[0].x[None]
    else:
        y, x = np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])
    floor = q * np.finfo(float).eps * np.abs(y).sum(axis=1)
    found = _interior_point(y, x, tau, floor)
    del y, x
    for k, ds in enumerate(datasets):
        a, r, iterations = found[k]
        found[k] = None
        yield _vertex(ds, tau, a, r, floor[k], iterations)


def _vertex(ds: Dataset, tau: float, a: np.ndarray, r: np.ndarray, floor,
            iterations: int) -> tuple[np.ndarray, int]:
    """The certified vertex of one dataset from its interior point ``a`` and
    residual ``r`` (see :func:`_certified_vertices`)."""
    y, x, q = ds.y, ds.x[None], ds.p + 1
    order = np.lexsort((np.abs(r), -np.minimum(a, 1.0 - a)))
    d = np.clip(a, 0.0, 1.0) - (1.0 - tau)
    basis: list[int] = []
    for i in order:
        if np.linalg.matrix_rank(np.c_[np.ones(len(basis) + 1), ds.x[basis + [i]]]) > len(basis):
            basis.append(int(i))
            if len(basis) == q:
                break
    for pivots in range(ds.n + 1):
        sub = np.c_[np.ones(q), ds.x[basis]]
        coef = np.linalg.solve(sub, y[basis])
        r = y - _a(x, coef[None])[0]
        if pivots == 0:  # the bound of each point off the basis, tracked from
            # here on so that a degenerate pivot cannot undo the one before
            above = (r > 0.0) | ((r == 0.0) & (a >= 0.5))
        loss = float(check_loss_vec(r, tau).sum())
        gap = loss - float(np.einsum("i,i", d, r))
        if gap <= _VERTEX_RTOL * loss + floor:
            return coef, iterations + pivots
        psi = np.where(above, tau, tau - 1.0)
        psi[basis] = 0.0
        v = -np.linalg.solve(sub.T, _at(x, psi[None])[0])
        outside = [k for k in range(q) if not tau - 1.0 <= v[k] <= tau]
        if not outside:
            break
        k = min(outside, key=basis.__getitem__)
        sign = 1.0 if v[k] < tau - 1.0 else -1.0
        # Freeing basis[k], the loss falls at slope0 < 0 until a weighted
        # median of the residual ratios: each crossing adds |c_i| to the slope.
        slope0 = sign * v[k] + (1.0 - tau if sign > 0 else tau)
        c = _a(x, np.linalg.solve(sub, sign * np.eye(q)[k])[None])[0]
        c[basis] = 0.0
        kinks = np.flatnonzero(np.where(above, c > 0.0, c < 0.0))
        rank = np.argsort(np.maximum(r[kinks] / c[kinks], 0.0), kind="stable")
        cross = np.flatnonzero(slope0 + np.cumsum(np.abs(c[kinks[rank]])) >= 0.0)
        if cross.size == 0:
            break
        above[kinks[rank[:cross[0]]]] ^= True
        above[basis[k]] = sign < 0
        basis[k] = int(kinks[rank[cross[0]]])
    # No pivot raises the loss, so the last vertex is the best one seen.
    raise SolverFailure(f"no vertex certified: its check loss {loss!r} exceeds "
                        f"the dual bound by {gap:.3e}", best=coef)
