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


def _a(x: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(1, X_b) u_b`` of each problem b, into ``out`` if given; X is read in
    place and never augmented."""
    out = np.einsum("bij,bj->bi", x, u[:, 1:], out=out)
    out += u[:, :1]
    return out


def _normal_solver(x: np.ndarray, d: np.ndarray, work: np.ndarray | None = None):
    """Solver of ``(1, X_b)' diag(d_b) (1, X_b) u_b = rhs_b`` for each problem b,
    scaled to a unit diagonal; ``work``, of the shape of d, is scratch.

    A matrix singular to working precision, as when the weights of tied data
    pile onto fewer than q distinct rows, gets the least-squares solution.
    Then every problem is solved on its own, by the same LAPACK call as in
    the batch, so the others' solutions keep their bits.
    """
    q = x.shape[2] + 1
    m = np.empty((x.shape[0], q, q))
    m[:, 0] = m[:, :, 0] = _at(x, d)
    for j in range(1, q):  # the columns of (1, X)' D X_j from j on
        work = np.multiply(d, x[:, :, j - 1], out=work)
        m[:, j, j:] = m[:, j:, j] = np.einsum("bij,bi->bj", x, work)[:, j - 1:]
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


def _step(lowest: np.ndarray) -> np.ndarray:
    """``_IPM_STEP`` of each problem's longest step keeping ``u + t du >= 0``,
    at most 1, from ``lowest``, its least ratio ``du / u``."""
    return -_IPM_STEP / np.minimum(lowest, -_IPM_STEP)


def _weights(box: np.ndarray, zw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``d = 1 / (z / a + w / s)``, in ``out[1]``; out, of shape (2, B, n), is
    overwritten."""
    np.divide(zw, box, out=out)
    np.add(out[0], out[1], out=out[1])
    return np.divide(1.0, out[1], out=out[1])


def _newton(x, d, solve, rp, g, work):
    """Primal direction ``da = d ((1, X) u - g)`` toward ``a z = (1 - a) w =
    mu``, keeping dual feasibility and closing the primal residual ``rp``,
    where u solves ``(1, X)' D (1, X) u = rp + (1, X)' D g``.  The predictor
    has ``g = z - w``; with Mehrotra's second-order terms ``pz = da dz`` and
    ``pw = da dw`` of the predictor, ``mpz = mu - pz`` and ``mpw = mu + pw``,
    the corrector has ``g = z - w + mpw / s - mpz / a``.  Written over g;
    ``work``, of the shape of g, is scratch."""
    np.multiply(d, g, out=work)
    _a(x, solve(rp + _at(x, work)), out=work)
    np.subtract(work, g, out=g)
    g *= d
    return g


def _dual(box, zw, da, mp, work, out):
    """Dual directions ``[dz, dw] = (mp - [a + da, s - da] [z, w]) / [a, s]``
    into ``out``, with ``mp = [mpz, mpw]`` of :func:`_newton`, or 0 for the
    predictor; mp may be out.  ``work``, of the shape of box, is
    overwritten."""
    np.add(box[0], da, out=work[0])
    np.subtract(box[1], da, out=work[1])
    work *= zw
    np.subtract(mp, work, out=out)
    out /= box


def _steps(box, zw, da, dzw, work):
    """Step lengths of the primal ``(a, s)`` and dual ``(z, w)`` along
    ``(da, -da)`` and ``dzw = [dz, dw]``; ``work``, of the shape of box, is
    overwritten by the four ratio passes."""
    np.divide(da, box[0], out=work[0])
    np.divide(da, box[1], out=work[1])
    ap = _step(np.minimum(work[0].min(axis=1), -work[1].max(axis=1)))
    np.divide(dzw, zw, out=work)
    lowest = work.min(axis=2)
    return ap, _step(np.minimum(lowest[0], lowest[1]))


def _predictor_corrector(x, b, gap, state, work):
    """One Mehrotra predictor-corrector step of each problem of a batch, in
    place on ``state = [a, s, z, w]``, of shape (4, B, n).  ``work``, of shape
    (5, B, n), holds ``[dz, dw]``, a pair of scratch rows and ``g``, which
    becomes ``da``.  d lives in the second scratch row while it is read; the
    corrector computes it again, and g too, instead of keeping rows for
    them."""
    box, zw = state[:2], state[2:]
    a, s, z, w = state
    dzw, pair, g = work[:2], work[2:4], work[4]
    dz, dw = dzw
    d = _weights(box, zw, pair)
    solve, rp = _normal_solver(x, d, g), b - _at(x, a)
    np.subtract(z, w, out=g)
    da = _newton(x, d, solve, rp, g, pair[0])
    _dual(box, zw, da, 0.0, pair, dzw)
    ap, ad = _steps(box, zw, da, dzw, pair)
    centre = np.minimum(ap, ad) < 1.0
    if centre.any():
        # The affine gap (a + ap da)'(z + ad dz) + (s - ap da)'(w + ad dw).
        move, to = pair
        ap_, ad_ = ap[:, None], ad[:, None]
        np.multiply(ap_, da, out=move)
        move += a
        np.multiply(ad_, dz, out=to)
        to += z
        g_aff = np.einsum("bi,bi->b", move, to)
        np.multiply(ap_, da, out=move)
        np.subtract(s, move, out=move)
        np.multiply(ad_, dw, out=to)
        to += w
        g_aff += np.einsum("bi,bi->b", move, to)
        # mu is cubed by libm's pow, one Python float at a time, as a
        # numpy scalar is; numpy's array power may take another pow.
        cube = np.array([ratio ** 3 for ratio in (g_aff / gap).tolist()])
        mu = (gap * cube / (2 * a.shape[1]))[:, None]
        dz *= da  # [mpz, mpw] = [mu - da dz, mu + da dw], over [dz, dw]
        dw *= da
        np.subtract(mu, dz, out=dz)
        np.add(mu, dw, out=dw)
        # A problem that takes the full predictor step keeps mu = pz = pw
        # = 0, which makes its corrector the predictor again, bit for bit.
        dzw[:, ~centre] = 0.0
        np.divide(dzw, box, out=pair)
        np.subtract(z, w, out=g)
        g += pair[1]
        g -= pair[0]
        d = _weights(box, zw, pair)
        da = _newton(x, d, solve, rp, g, pair[0])
        _dual(box, zw, da, dzw, pair, dzw)
        ap, ad = _steps(box, zw, da, dzw, pair)
    da *= ap[:, None]
    a += da
    s -= da
    dz *= ad[:, None]
    dw *= ad[:, None]
    zw += dzw


def _stacked(datasets: list[Dataset]):
    """The responses (B, n), designs (B, n, p) and gap floors ``q eps sum |y|``
    (B,) of a list of datasets of one n and p; views of a lone dataset."""
    if len(datasets) == 1:  # a lone fit copies no data
        y, x = datasets[0].y[None], datasets[0].x[None]
    else:
        y, x = np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])
    return y, x, (x.shape[2] + 1) * np.finfo(float).eps * np.abs(y).sum(axis=1)


def _interior_point(datasets: list[Dataset], tau: float):
    """Frisch-Newton interior point (Koenker and Portnoy 1997, Stat. Sci.) on
    the check-loss LPs of a list of datasets of one n and p, as one batch of
    B problems with y of shape (B, n) and x (B, n, p).

    Mehrotra's predictor-corrector for ``max y_b'a`` subject to
    ``(1, X_b)'a = (1 - tau)(1, X_b)'1``, ``0 <= a <= 1``.  With z, w the bound
    multipliers, ``w - z`` is the residual and ``tau sum w + (1 - tau) sum z``
    its check loss; the gap ``a'z + (1 - a)'w`` stops at ``_IPM_RTOL`` of that
    loss (unmoved by a shift of y) plus the problem's floor (see
    :func:`_stacked`).  The start is the least-squares fit, so an exact fit,
    a zero response among them, stops at once with gap 0.  Each problem has
    its own step lengths, centring and stopping test, and leaves the batch
    when it stops.  Every operation reads one problem's row alone, so a
    problem's iterates are the bits it reaches when solved alone, for n up
    to numpy's 8192-element einsum buffer (a study batch of two or more has
    n <= ``simulation._BATCH_ELEMENTS`` / 2).

    The batch's arrays are stacked here and y is dropped after the start, so
    that no caller holds a second copy while the loop runs.  The loop holds
    nine (B, n) float64 arrays, the state ``[a, 1 - a, z, w]`` and the work
    rows of :func:`_predictor_corrector`, plus x; a study batch's fit at
    p = 1 peaks at about 11 (B, n) arrays (tracemalloc, n = 100 to 1600).
    Returns ``a`` and ``w - z``, of shape (B, n), and the iterations, of
    shape (B,).
    """
    y, x, floor = _stacked(datasets)
    shape = y.shape
    ones = np.ones(shape)
    b = (1.0 - tau) * _at(x, ones)
    state = np.empty((4,) + shape)
    state[0], state[1] = 1.0 - tau, tau
    r = _a(x, _normal_solver(x, ones)(_at(x, y)), out=state[2])
    np.subtract(y, r, out=r)
    del y, ones
    shift = np.abs(r, out=state[3]).mean(axis=1)[:, None]
    np.maximum(r, 0.0, out=state[3])
    np.maximum(np.negative(r, out=r), 0.0, out=r)
    r += shift
    state[3] += shift
    del r, shift
    live, found, work = np.arange(shape[0]), [], np.empty((5,) + shape)
    for iterations in itertools.count():
        gap = (np.einsum("bi,bi->b", state[0], state[2])
               + np.einsum("bi,bi->b", state[1], state[3]))
        sums = state[2:].sum(axis=2)
        loss = tau * sums[1] + (1.0 - tau) * sums[0]
        stop = (gap <= _IPM_RTOL * loss + floor) | (iterations == _IPM_MAX_ITER)
        if stop.any():
            work = None  # freed before the rows that stop are copied out
            found.append((live[stop], state[0][stop], state[3][stop] - state[2][stop],
                          iterations))
            if stop.all():
                break
            go = ~stop
            live, x, b, floor, gap = live[go], x[go], b[go], floor[go], gap[go]
            state = np.compress(go, state, axis=1)  # C order, unlike state[:, go]
            work = np.empty((5,) + state.shape[1:])
        _predictor_corrector(x, b, gap, state, work)
    del state, x
    a, r, counts = np.empty(shape), np.empty(shape), np.empty(shape[0], dtype=int)
    for done, a_done, r_done, k in found:
        a[done], r[done], counts[done] = a_done, r_done, k
    return a, r, counts


def _certified_vertices(datasets: list[Dataset], tau: float):
    """Exact minimizer ``(b0, b)`` of ``sum rho_tau(y - b0 - X b)``, a vertex,
    of each dataset of a list of one n and p, solved as one batch.

    A vertex interpolates q independent observations ranked by how far the
    interior point's ``a_i`` lie from {0, 1}, then by ``|residual|``, then by
    index.  It is certified once its check loss is within ``_VERTEX_RTOL`` of
    the dual bound ``d'r``, ``d = clip(a, 0, 1) - (1 - tau)``, or within the
    rounding of an exact fit.  The batch ranks every problem's observations,
    tests the rank of its q lead rows and solves, prices and certifies its
    first vertex in stacked calls.  Only a problem whose lead rows are
    dependent or whose first vertex is not certified goes on alone, to
    :func:`_vertex`.  Each ``(1, X)`` must have full rank.  Yields, in list
    order, the coefficients and the iterations plus pivots of each dataset,
    or raises :class:`SolverFailure` at the first dataset with no certified
    vertex.
    """
    q = datasets[0].p + 1
    a, r_ipm, iterations = _interior_point(datasets, tau)
    y, x, floor = _stacked(datasets)
    d = np.clip(a, 0.0, 1.0) - (1.0 - tau)
    rows, lead = np.arange(len(datasets))[:, None], _lead(a, r_ipm, q)
    sub = np.concatenate((np.ones((len(datasets), q, 1)), x[rows, lead]), axis=2)
    independent = np.linalg.matrix_rank(sub) == q
    sub[~independent] = np.eye(q)  # placeholders: these problems go on alone
    coef = np.linalg.solve(sub, y[rows, lead][:, :, None])[:, :, 0]
    r = y - _a(x, coef)
    loss = check_loss_vec(r, tau).sum(axis=1)
    certified = independent & (loss - np.einsum("bi,bi->b", d, r) <= _VERTEX_RTOL * loss + floor)
    del y, x, r, sub
    for k, ds in enumerate(datasets):
        if certified[k]:
            yield coef[k], int(iterations[k])
        else:
            basis = lead[k].tolist() if independent[k] else None
            yield _vertex(ds, tau, a[k], d[k], _order(a[k], r_ipm[k]), basis, floor[k],
                          int(iterations[k]))


def _order(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The observations ranked by how far the interior point's ``a`` lies from
    {0, 1}, then by ``|r|``, then by index, along the last axis."""
    return np.lexsort((np.abs(r), -np.minimum(a, 1.0 - a)), axis=-1)


def _lead(a: np.ndarray, r: np.ndarray, q: int) -> np.ndarray:
    """The first q columns of :func:`_order` of each problem of a batch, by
    selection: only the observations whose first key is at most the q-th
    least are ranked, so a batch is not sorted whole."""
    key = -np.minimum(a, 1.0 - a)
    chosen = key <= np.partition(key, q - 1, axis=1)[:, q - 1:q]
    counts = chosen.sum(axis=1)
    if (counts < q).any():  # a NaN among the q least keys
        return _order(a, r)[:, :q]
    rows, cols = np.nonzero(chosen)  # row by row, in index order
    ranked = cols[np.lexsort((cols, np.abs(r[rows, cols]), key[rows, cols], rows))]
    return ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(q)]


def _vertex(ds: Dataset, tau: float, a: np.ndarray, d: np.ndarray, order: np.ndarray,
            basis: list[int] | None, floor, iterations: int) -> tuple[np.ndarray, int]:
    """The certified vertex of one dataset from its interior point ``a``, dual
    weights ``d`` and observation ``order`` (see :func:`_certified_vertices`),
    starting at ``basis``, or with no basis at the first q independent
    observations in that order.  Until a vertex is certified, the basis point
    of smallest index whose Koenker-Bassett multiplier lies outside
    ``[tau - 1, tau]`` leaves, and the point where the loss stops falling
    along that edge enters."""
    y, x, q = ds.y, ds.x[None], ds.p + 1
    if basis is None:
        basis = []
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
