"""Exact check-loss LPs: regression quantiles and their certified vertices.

Two solvers minimize ``sum_i rho_alpha(y_i - b0 - x_i'b)``; both end in
:func:`_vertex`'s certified vertex.

- :func:`fit_regression_quantile` splits the residuals into positive and
  negative parts and pivots a dense tableau by Bland's rule, so repeated fits
  return the same vertex.
- :func:`_certified_vertices`, which the R-estimator uses, runs the
  Frisch-Newton interior point :func:`_interior_point` over a batch of
  problems of one n and p.

Either solver's duals ``d`` in ``[alpha - 1, alpha]`` give the lower bound
``d'r`` on the check loss.  The vertex is solved from the raw data through q
observations, and returned only when :func:`_certify` finds its check loss
at that bound; otherwise it pivots, or raises :class:`SolverFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError, SolverFailure
from .model import Dataset, check_loss_vec
from .simplex import solve_simplex

RESIDUAL_ZERO_TOL = 1e-9

_IPM_STEP = 0.99995     # fraction of the step to the boundary of the box
_IPM_RTOL = 1e-11       # the interior point stops at this gap, relative to the loss
_IPM_MAX_ITER = 100
_VERTEX_RTOL = 1e-9     # a vertex is certified within this of the dual bound
_EINSUM_BUFFER = 8192   # numpy's einsum buffer: past it a sum depends on the batch


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


def _augmented(x: np.ndarray) -> np.ndarray:
    """The rows ``(1, x_i)`` of the rows ``x_i`` of x, of shape (..., m, p)."""
    return np.concatenate((np.ones(x.shape[:-1] + (1,)), x), axis=-1)


def fit_regression_quantile(ds: Dataset, alpha: float) -> QuantileFit:
    """Global minimizer of the check-loss objective over intercept and slopes.

    Raises :class:`IdentifiabilityError` when the augmented design (1, X) is
    rank deficient.  With non-unique optima the deterministic pivoting rule
    selects a reproducible vertex.  The simplex's row duals
    ``alpha - red[u_i]`` certify it through :func:`_vertex`, which solves it
    from the raw data; :class:`SolverFailure` is raised when no vertex is
    certified.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    a_design = _augmented(ds.x)
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

    x, red = solve_simplex(c, amat, b, basis)
    coef = x[:q] - x[q:2 * q]
    d = np.clip(alpha - red[2 * q:2 * q + n], alpha - 1.0, alpha)
    a = d + (1.0 - alpha)
    coef, _ = _vertex(ds.y, ds.x, alpha, a, d, _order(a, ds.y - a_design @ coef), None, 0)
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
    scaled to a unit diagonal, and which problems' matrices have a zero on
    the diagonal, as when every weight of a problem underflows; the solver
    is None when there is one.  ``work``, of the shape of d, is scratch.

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
    diagonal = m.diagonal(axis1=1, axis2=2)
    broken = ~diagonal.all(axis=1)
    if broken.any():
        return None, broken
    scale = 1.0 / np.sqrt(diagonal)
    m *= scale[:, :, None] * scale[:, None, :]

    def solve(rhs: np.ndarray) -> np.ndarray:
        rhs = (rhs * scale)[:, :, None]
        try:
            return np.linalg.solve(m, rhs)[:, :, 0] * scale
        except np.linalg.LinAlgError:
            return np.array([_solve_or_lstsq(mb, rb) for mb, rb in zip(m, rhs)]) * scale
    return solve, broken


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
    place on ``state = [a, s, z, w]``, of shape (4, B, n), or of none when a
    problem's normal matrix has a zero on its diagonal (see
    :func:`_normal_solver`).  Returns which problems have one.  ``work``, of
    shape (5, B, n), holds ``[dz, dw]``, a pair of scratch rows and ``g``,
    which becomes ``da``.  d lives in the second scratch row while it is
    read; the corrector computes it again, and g too, instead of keeping rows
    for them."""
    box, zw = state[:2], state[2:]
    a, s, z, w = state
    dzw, pair, g = work[:2], work[2:4], work[4]
    dz, dw = dzw
    d = _weights(box, zw, pair)
    solve, broken = _normal_solver(x, d, g)
    if broken.any():
        return broken
    rp = b - _at(x, a)
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
    return broken


def _floor(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The gap floors ``q eps sum |y_b|`` (B,) of a batch, q = p + 1."""
    return (x.shape[2] + 1) * np.finfo(float).eps * np.abs(y).sum(axis=1)


def _certify(y: np.ndarray, x: np.ndarray, tau: float, d: np.ndarray, coef: np.ndarray):
    """The residuals ``r = y - (1, X) b`` (B, n), check losses (B,) and dual
    gaps ``loss - d'r`` (B,) of the vertices ``b``, coef of shape (B, q), of a
    batch, and whether each is certified: its gap is within ``_VERTEX_RTOL``
    of its loss plus the floor (see :func:`_floor`) of
    ``|y| + |(1, X)| |b|``, which bounds the rounding of r."""
    r = y - _a(x, coef)
    loss = check_loss_vec(r, tau).sum(axis=1)
    gap = loss - np.einsum("bi,bi->b", d, r)
    floor = _floor(np.abs(y) + _a(np.abs(x), np.abs(coef)), x)
    return r, loss, gap, gap <= _VERTEX_RTOL * loss + floor


def _interior_point(y: np.ndarray, x: np.ndarray, tau: float):
    """Frisch-Newton interior point (Koenker and Portnoy 1997, Stat. Sci.) on
    the check-loss LPs of a batch of B problems of one n and p, the responses
    y of shape (B, n) and the designs x (B, n, p).

    Mehrotra's predictor-corrector for ``max y_b'a`` subject to
    ``(1, X_b)'a = (1 - tau)(1, X_b)'1``, ``0 <= a <= 1``.  With z, w the bound
    multipliers, ``w - z`` is the residual and ``tau sum w + (1 - tau) sum z``
    its check loss; the gap ``a'z + (1 - a)'w`` stops at ``_IPM_RTOL`` of that
    loss (unmoved by a shift of y) plus the problem's floor (see
    :func:`_floor`).  The start is the least-squares fit, so an exact fit,
    a zero response among them, stops at once with gap 0.  Each problem has
    its own step lengths, centring and stopping test, and leaves the batch
    when it stops, or with iterations -1 when its normal matrix has a zero on
    its diagonal (see :func:`_normal_solver`).  At a tiny tau, ``w / s`` may
    overflow: its weight is then 0, its limit.  Every operation reads one
    problem's row alone, so a problem's iterates are the bits it reaches when
    solved alone; past numpy's einsum buffer, where a sum over a row depends
    on the batch, each problem is solved alone.

    y and x are read in place and not copied: a study draws its batch once
    into them.  Besides them the loop holds nine (B, n) float64 arrays, the
    state ``[a, 1 - a, z, w]`` and the work rows of
    :func:`_predictor_corrector`, and once some problems have stopped, the
    live problems' rows of x; it peaks at about ten (B, n) arrays beyond y
    and x (tracemalloc, p = 1, n = 100 to 1600).  Returns ``a`` and
    ``w - z``, of shape (B, n), and the iterations, of shape (B,).
    """
    if y.shape[0] > 1 and y.shape[1] > _EINSUM_BUFFER:
        alone = [_interior_point(y[k:k + 1], x[k:k + 1], tau) for k in range(y.shape[0])]
        return tuple(map(np.concatenate, zip(*alone)))
    floor, shape = _floor(y, x), y.shape
    ones = np.ones(shape)
    b = (1.0 - tau) * _at(x, ones)
    state = np.empty((4,) + shape)
    state[0], state[1] = 1.0 - tau, tau
    r = _a(x, _normal_solver(x, ones)[0](_at(x, y)), out=state[2])
    np.subtract(y, r, out=r)
    del ones
    shift = np.abs(r, out=state[3]).mean(axis=1)[:, None]
    np.maximum(r, 0.0, out=state[3])
    np.maximum(np.negative(r, out=r), 0.0, out=r)
    r += shift
    state[3] += shift
    del r, shift
    live, found, work = np.arange(shape[0]), [], np.empty((5,) + shape)
    iterations, broken = 0, np.zeros(shape[0], dtype=bool)
    with np.errstate(over="ignore"):
        while True:
            gap = (np.einsum("bi,bi->b", state[0], state[2])
                   + np.einsum("bi,bi->b", state[1], state[3]))
            sums = state[2:].sum(axis=2)
            loss = tau * sums[1] + (1.0 - tau) * sums[0]
            stop = broken | (gap <= _IPM_RTOL * loss + floor) | (iterations == _IPM_MAX_ITER)
            if stop.any():
                work = None  # freed before the rows that stop are copied out
                found.append((live[stop], state[0][stop], state[3][stop] - state[2][stop],
                              np.where(broken[stop], -1, iterations)))
                if stop.all():
                    break
                go = ~stop
                live, x, b, floor, gap = live[go], x[go], b[go], floor[go], gap[go]
                state = np.compress(go, state, axis=1)  # C order, unlike state[:, go]
                work = np.empty((5,) + state.shape[1:])
            broken = _predictor_corrector(x, b, gap, state, work)
            iterations += not broken.any()  # else none stepped, and those leave
    del state, x
    a, r, counts = np.empty(shape), np.empty(shape), np.empty(shape[0], dtype=int)
    for done, a_done, r_done, k in found:
        a[done], r[done], counts[done] = a_done, r_done, k
    return a, r, counts


def _certified_vertices(y: np.ndarray, x: np.ndarray, tau: float):
    """Exact minimizer ``(b0, b)`` of ``sum rho_tau(y - b0 - X b)``, a vertex,
    of each problem of a batch of one n and p, the responses y of shape (B, n)
    and the designs x (B, n, p), solved as one batch.

    A vertex interpolates q independent observations ranked by how far the
    interior point's ``a_i`` lie from {0, 1}, then by ``|residual|``, then by
    index.  It is certified by :func:`_certify` against the dual bound
    ``d'r``, ``d = clip(a, 0, 1) - (1 - tau)``.  The batch ranks every
    problem's observations, tests the rank of its q lead rows and solves,
    prices and certifies its first vertex in stacked calls.  Only a problem
    whose lead rows are dependent or whose first vertex is not certified goes
    on alone, to :func:`_vertex`.  Each ``(1, X)`` must have full rank.
    Yields, in batch order, the coefficients and the iterations plus pivots
    of each problem, or raises :class:`SolverFailure` at the first problem
    with no certified vertex or whose interior point broke down.

    y and x are read in place and not copied, so a study batch is held once.
    After the interior point, the batch holds ``a``, ``w - z``, d and, while
    the first vertices are priced, their residuals, check losses and
    rounding bounds, |X| among them: about 6 + p (B, n) float64 arrays
    beyond y and x at the peak, below the interior point's for p <= 3
    (tracemalloc).
    """
    batch, q = y.shape[0], x.shape[2] + 1
    a, r_ipm, iterations = _interior_point(y, x, tau)
    d = np.clip(a, 0.0, 1.0) - (1.0 - tau)
    rows, lead = np.arange(batch)[:, None], _lead(a, r_ipm, q)
    sub = _augmented(x[rows, lead])
    independent = np.linalg.matrix_rank(sub) == q
    sub[~independent] = np.eye(q)  # placeholders: these problems go on alone
    coef = np.linalg.solve(sub, y[rows, lead][:, :, None])[:, :, 0]
    certified = independent & _certify(y, x, tau, d, coef)[3]
    for k in range(batch):
        if iterations[k] < 0:
            raise SolverFailure(f"the interior point broke down at level {tau!r}: its "
                                f"weights underflowed to a zero on the normal diagonal")
        if certified[k]:
            yield coef[k], int(iterations[k])
        else:
            basis = lead[k].tolist() if independent[k] else None
            yield _vertex(y[k], x[k], tau, a[k], d[k], _order(a[k], r_ipm[k]), basis,
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


def _vertex(y: np.ndarray, x: np.ndarray, tau: float, a: np.ndarray, d: np.ndarray,
            order: np.ndarray, basis: list[int] | None,
            iterations: int) -> tuple[np.ndarray, int]:
    """The certified vertex of one problem, responses y (n,) and design x
    (n, p), from its solver's ``a``, dual weights ``d`` and observation
    ``order`` (see :func:`_certified_vertices`), starting at ``basis``, or
    with no basis at the first q independent observations in that order.
    Until a vertex is certified, the basis point of smallest index whose
    Koenker-Bassett multiplier lies outside ``[tau - 1, tau]`` leaves, and
    the point where the loss stops falling along that edge enters.  The
    pivots also end when the entering point makes the basis singular, as a
    copy of a basis row does; then :class:`SolverFailure` carries the last
    vertex as ``best``."""
    xb, q = x[None], x.shape[1] + 1
    if basis is None:
        basis = []
        for i in order:
            if np.linalg.matrix_rank(_augmented(x[basis + [i]])) > len(basis):
                basis.append(int(i))
                if len(basis) == q:
                    break
    for pivots in range(y.shape[0] + 1):
        sub = _augmented(x[basis])
        try:
            coef = np.linalg.solve(sub, y[basis])
        except np.linalg.LinAlgError:  # the point that entered made it singular
            break
        (r,), (loss,), (gap,), (certified,) = _certify(y[None], xb, tau, d[None], coef[None])
        if pivots == 0:  # the bound of each point off the basis, tracked from
            # here on so that a degenerate pivot cannot undo the one before
            above = (r > 0.0) | ((r == 0.0) & (a >= 0.5))
        if certified:
            return coef, iterations + pivots
        psi = np.where(above, tau, tau - 1.0)
        psi[basis] = 0.0
        v = -np.linalg.solve(sub.T, _at(xb, psi[None])[0])
        outside = [k for k in range(q) if not tau - 1.0 <= v[k] <= tau]
        if not outside:
            break
        k = min(outside, key=basis.__getitem__)
        sign = 1.0 if v[k] < tau - 1.0 else -1.0
        # Freeing basis[k], the loss falls at slope0 < 0 until a weighted
        # median of the residual ratios: each crossing adds |c_i| to the slope.
        slope0 = sign * v[k] + (1.0 - tau if sign > 0 else tau)
        c = _a(xb, np.linalg.solve(sub, sign * np.eye(q)[k])[None])[0]
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
    raise SolverFailure(f"no vertex certified: its check loss {float(loss)!r} exceeds "
                        f"the dual bound by {gap:.3e}", best=coef)
