"""Exact check-loss LPs: regression quantiles and their certified vertices.

Two solvers minimize ``sum_i rho_alpha(y_i - b0 - x_i'b)``; both end in
:func:`_vertex`'s certified vertex.

- :func:`fit_regression_quantile` splits the residuals into positive and
  negative parts and pivots a dense tableau by Bland's rule, so repeated fits
  return the same vertex.
- :func:`_certified_vertices`, which the R-estimator uses, runs the
  Frisch-Newton interior point :func:`_interior_point` over a batch of
  problems of one n and p.  From ``_BAND_ROWS`` rows on it first solves a
  subsample, then a band of rows around the quantile with the rows on
  either side of it summed into one weighted glob row each (Portnoy and
  Koenker 1997, Stat. Sci., section 5), certified on all rows, and solves
  all rows only for a problem that stage does not certify.

Either solver's duals ``d`` in ``[alpha - 1, alpha]`` give the lower bound
``d'r`` on the check loss.  The vertex is solved from the raw data through q
observations, and returned only when :func:`_certify` finds its check loss
at that bound; otherwise it pivots, or raises :class:`SolverFailure`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IdentifiabilityError, SolverFailure
from .model import Dataset, check_loss_vec
from .simplex import solve_simplex

RESIDUAL_ZERO_TOL = 1e-9

_IPM_STEP = 0.99995     # fraction of the step to the boundary of the box
_IPM_RTOL = 1e-11       # the interior point stops at this gap, relative to the loss
_IPM_MAX_ITER = 100
# The subsample's interior point only places the band: stopped at 1e-2 of its
# loss, the study batches' banded fits took 0.85 of the time they took at
# _IPM_RTOL (in-process, interleaved, n = 1000 and 1600), and no more of
# 1392 problems fell back (17 against 16; 25 at 1e-1).
_SUBSAMPLE_RTOL = 1e-2
_VERTEX_RTOL = 1e-9     # a vertex is certified within this of the dual bound
_EINSUM_BUFFER = 8192   # numpy's einsum buffer: past it a sum depends on the batch
# R-fits of this many rows or more first solve a subsample and a band (see
# _banded_vertices).  In two in-process sweeps of study batches, interleaved
# with the full solve, that stage took 1.10 times as long at 80 x 200 rows,
# 0.95 to 0.98 at 40 x 400 and 0.90 to 1.02 at 20 x 800, but 0.81 to 0.86 at
# 20 x 1000 and 0.66 to 0.71 at 20 x 1600: 1000 is the least size at which
# it gained in every sweep.  Lone fits, whose interior points at these sizes
# are bound by numpy's per-call cost, gain later: in two interleaved sweeps,
# medians of 1.39-1.52, 1.20-1.25, 0.95-0.98 and 0.82-0.87 at 1000, 2000,
# 4000 and 8000 rows, p = 1, and 1.30-1.33, 1.10-1.17, 0.86-0.91 and
# 0.66-0.70 at p = 3 (a few ms each).
# The threshold still does not depend on the batch: a problem's path, so its
# iterations and its vertex at a non-unique optimum, are its lone fit's.
_BAND_ROWS = 1000


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


def _level(tau: float, n: int) -> float:
    """tau moved into [1/(2n), 1 - 1/(2n)], where n observations' LP is solved.
    Below 1/n the check loss at the best intercept is ``tau sum (r_i - min r)``
    and above 1 - 1/n ``(1 - tau) sum (max r - r_i)``, so one solve serves all
    such levels; solved as written, a tiny level's loss is below the rounding
    floor of its certificate, and any vertex certifies."""
    return min(max(tau, 0.5 / n), 1.0 - 0.5 / n)


def fit_regression_quantile(ds: Dataset, alpha: float) -> QuantileFit:
    """Global minimizer of the check-loss objective over intercept and slopes.

    Raises :class:`IdentifiabilityError` when the augmented design (1, X) is
    rank deficient.  With non-unique optima the deterministic pivoting rule
    selects a reproducible vertex.  The LP is solved at :func:`_level`, and
    its row duals ``level - red[u_i]`` certify the vertex through
    :func:`_vertex`, which solves it from the raw data; :class:`SolverFailure`
    is raised when no vertex is certified.  ``objective`` is at alpha.
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
    level = _level(alpha, n)
    c = np.concatenate([np.zeros(2 * q), np.full(n, level), np.full(n, 1.0 - level)])

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
    d = np.clip(level - red[2 * q:2 * q + n], level - 1.0, level)
    a = d + (1.0 - level)
    coef, _ = _vertex(ds.y, ds.x, level, a, d, ds.y - a_design @ coef, None, 0)
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


def _predictor_corrector(x, b, gap, state, work):
    """One Mehrotra predictor-corrector step of each problem of a batch, in
    place on ``state = [a, s, z, w]``, of shape (4, B, n), ``s = u - a``.
    ``work``, of shape (5, B, n), holds ``[dz, dw]``, the weights ``d = 1 /
    (z / a + w / s)``, a scratch row and ``g``, which becomes ``da``.  d is
    kept for the corrector; the corrector's primal ratios ``[da / a, da /
    s]`` then take its row and the scratch row.

    The dual directions are formed from the primal ratios.  The predictor's
    are ``[dz, dw] = [-1 - da / a, da / s - 1] [z, w]``, so its dual step is
    read from the extremes of the ratios, and the corrector's are ``[mpz /
    a, mpw / s]`` plus the same terms of its own da.  Every step centres: a
    full predictor dual step needs ``da > 0`` and ``da < 0`` everywhere."""
    box, zw = state[:2], state[2:]
    a, s, z, w = state
    dzw, d, spare, g = work[:2], work[2], work[3], work[4]
    dz, dw = dzw
    np.divide(zw, box, out=dzw)
    np.add(dz, dw, out=d)
    np.divide(1.0, d, out=d)
    solve, rp = _normal_solver(x, d, spare), b - _at(x, a)
    np.subtract(z, w, out=g)
    da = _newton(x, d, solve, rp, g, spare)
    ratios = np.divide(da, box, out=dzw)
    # ap takes the least of da / a and -da / s, ad of dw / w = da / s - 1 and
    # dz / z = -da / a - 1; fl(u - 1) rises with u, so 1 comes off the least.
    lowest = np.minimum(ratios.min(axis=2), -ratios.max(axis=2)[::-1])
    lowest[1] -= 1.0
    ap, ad = _step(lowest)[:, :, None]
    np.subtract(-1.0, dz, out=dz)
    dz *= z
    # The affine gap (a + ap da)'(z + ad dz) + (s - ap da)'(w + ad dw),
    # in five rows: dw is formed after the first term, from da / s again,
    # and da is spent on the last.
    np.multiply(ad, dz, out=spare)
    spare += z
    dz *= da
    np.multiply(ap, da, out=dw)
    dw += a
    g_aff = np.einsum("bi,bi->b", dw, spare)
    np.divide(da, s, out=dw)
    dw -= 1.0
    dw *= w
    np.multiply(ad, dw, out=spare)
    spare += w
    dw *= da
    da *= ap
    np.subtract(s, da, out=da)
    g_aff += np.einsum("bi,bi->b", da, spare)
    # mu is cubed by libm's pow, one Python float at a time, as a
    # numpy scalar is; numpy's array power may take another pow.
    cube = np.array([ratio ** 3 for ratio in (g_aff / gap).tolist()])
    mu = (gap * cube / (2 * a.shape[1]))[:, None]
    np.subtract(mu, dz, out=dz)  # [mpz, mpw] = [mu - pz, mu + pw], over [dz, dw]
    np.add(mu, dw, out=dw)
    dzw /= box
    np.subtract(z, w, out=g)
    g += dw
    g -= dz
    da = _newton(x, d, solve, rp, g, spare)
    ratios = np.divide(da, box, out=work[2:4])
    ap = _step(np.minimum(ratios[0].min(axis=1), -ratios[1].max(axis=1)))
    np.subtract(-1.0, ratios[0], out=ratios[0])
    ratios[1] -= 1.0
    ratios *= zw
    dzw += ratios  # [mpz / a, mpw / s] + [-1 - da / a, da / s - 1] [z, w]
    ad = _step(np.divide(dzw, zw, out=ratios).min(axis=(0, 2)))
    da *= ap[:, None]
    a += da
    s -= da
    dzw *= ad[:, None]
    zw += dzw


def _floor(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The gap floors ``q eps sum |y_b|`` (B,) of a batch, q = p + 1."""
    return (x.shape[2] + 1) * np.finfo(float).eps * np.abs(y).sum(axis=1)


def _certify(y: np.ndarray, x: np.ndarray, tau: float, d: np.ndarray, coef: np.ndarray):
    """The residuals ``r = y - (1, X) b`` (B, n), check losses (B,) and dual
    gaps ``loss - d'r`` (B,) of the vertices ``b``, coef of shape (B, q), of a
    batch, whether each is certified: its gap is within ``_VERTEX_RTOL`` of
    its loss plus the floor (see :func:`_floor`) of ``|y| + |(1, X)| |b|``,
    which bounds the rounding of r, and that floor (B,)."""
    r = y - _a(x, coef)
    loss = check_loss_vec(r, tau).sum(axis=1)
    gap = loss - (d * r).sum(axis=1)
    floor = _floor(np.abs(y) + _a(np.abs(x), np.abs(coef)), x)
    return r, loss, gap, gap <= _VERTEX_RTOL * loss + floor, floor


def _interior_point(y: np.ndarray, x: np.ndarray, tau: float, u: np.ndarray | None = None,
                    rtol: float = _IPM_RTOL):
    """Frisch-Newton interior point (Koenker and Portnoy 1997, Stat. Sci.) on
    the check-loss LPs of a batch of B problems of one n and p, the responses
    y of shape (B, n) and the designs x (B, n, p).

    Mehrotra's predictor-corrector for ``max y_b'a`` subject to ``(1, X_b)'a
    = (1 - tau)(1, X_b)'u``, ``0 <= a <= u``, where the row weights ``u``,
    one (n,) row shared by the batch, are 1 unless given: a row of weight c
    stands for c rows that equal it.  With z, w the bound multipliers, ``w -
    z`` is the residual and ``tau sum w + (1 - tau) sum z`` its check loss,
    unweighted, since a heavy row's loss weighted by u loosens the test; the
    gap ``a'z + (u - a)'w`` stops at ``rtol`` of that loss (unmoved by a
    shift of y) plus the problem's floor (see :func:`_floor`).  The start is
    the feasible ``a = (1 - tau) u`` and the least-squares fit, so an exact
    fit, a zero response among them, stops at once with gap 0.  Each problem
    has its own step lengths, centring and stopping test, and leaves the
    batch when it stops.  With a |y| near the top of the float range, ``w /
    s`` may overflow: its weight is then 0, its limit.  Every operation reads
    one problem's row alone, so a problem's iterates are the bits it reaches
    when solved alone; past numpy's einsum buffer, where a sum over a row
    depends on the batch, each problem is solved alone.

    y, x and u are read in place and not copied.  Besides them the loop holds
    nine (B, n) float64 arrays, the state ``[a, u - a, z, w]`` and the five
    work rows of :func:`_predictor_corrector`, and once some problems have
    stopped, the live problems' rows of x.  It peaks at 9.6 to 9.8 (B, n)
    arrays beyond y and x for the study batch at n = 400, and at 11.7 at
    n = 100, where numpy's fixed 64 KB ufunc buffers weigh more (tracemalloc,
    p = 1).  Returns ``a`` and ``w - z``, of shape (B, n), and the
    iterations, of shape (B,).
    """
    if y.shape[0] > 1 and y.shape[1] > _EINSUM_BUFFER:
        alone = [_interior_point(y[k:k + 1], x[k:k + 1], tau, u, rtol)
                 for k in range(y.shape[0])]
        return tuple(map(np.concatenate, zip(*alone)))
    floor, shape = _floor(y, x), y.shape
    ones = np.ones(shape)
    u = ones if u is None else np.broadcast_to(u, shape)
    b = (1.0 - tau) * _at(x, u)
    state = np.empty((4,) + shape)
    np.multiply(1.0 - tau, u, out=state[0])
    np.multiply(tau, u, out=state[1])
    r = _a(x, _normal_solver(x, ones)(_at(x, y)), out=state[2])
    np.subtract(y, r, out=r)
    del ones, u
    shift = np.abs(r, out=state[3]).mean(axis=1)[:, None]
    np.maximum(r, 0.0, out=state[3])
    np.maximum(np.negative(r, out=r), 0.0, out=r)
    r += shift
    state[3] += shift
    del r, shift
    live, found, work = np.arange(shape[0]), [], np.empty((5,) + shape)
    with np.errstate(over="ignore"):
        for iterations in itertools.count():
            gap = (np.einsum("bi,bi->b", state[0], state[2])
                   + np.einsum("bi,bi->b", state[1], state[3]))
            sums = state[2:].sum(axis=2)
            loss = tau * sums[1] + (1.0 - tau) * sums[0]
            stop = (gap <= rtol * loss + floor) | (iterations == _IPM_MAX_ITER)
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


def _certified_vertices(y: np.ndarray, x: np.ndarray, tau: float):
    """Exact minimizer ``(b0, b)`` of ``sum rho_tau(y - b0 - X b)``, a vertex,
    of each problem of a batch of one n and p, the responses y of shape (B, n)
    and the designs x (B, n, p), solved as one batch.

    From n = ``_BAND_ROWS`` on, while the band of :func:`_solved_rows` is
    narrower than n, each problem is first solved on a subsample and a band
    of its rows (:func:`_banded_vertices`).  A problem that stage does not
    certify goes on to :func:`_full_vertices`, unchanged, in chunks of no
    more rows than the band solve held.  Yields, in batch order, the
    coefficients and the iterations plus pivots of each problem, of every
    solve it went through, or raises :class:`SolverFailure` at the first
    problem with no certified vertex.
    """
    batch, n, tau = y.shape[0], y.shape[1], _level(tau, y.shape[1])
    rows = _solved_rows(n, x.shape[2] + 1)
    if rows == n:
        yield from _full_vertices(y, x, tau)
        return
    with np.errstate(all="ignore"):  # a singular band's iterates may overflow
        # or turn to NaN; such a band is not certified
        coef, certified, iterations = _banded_vertices(y, x, tau, rows // 2)
    rest, size = np.flatnonzero(~certified), _chunk(batch, rows, n)
    chunks = (rest[k:k + size] for k in range(0, rest.size, size))
    full = (fit for chunk in chunks for fit in _full_vertices(y[chunk], x[chunk], tau))
    for k in range(batch):
        b, more = (coef[k], 0) if certified[k] else next(full)
        yield b, more + int(iterations[k])


def _solved_rows(n: int, q: int) -> int:
    """The rows of the largest LP a fit of n rows and q coefficients solves:
    n, or from n = ``_BAND_ROWS`` on the band of 2m rows around rank n tau,
    m = ceil((q n)^(2/3)) (Portnoy and Koenker 1997, Stat. Sci., section 5),
    while it is narrower than n."""
    band = 2 * math.ceil((q * n) ** (2.0 / 3.0))
    return band if n >= _BAND_ROWS and band < n else n


def _batch_size(n: int, q: int, rows: int) -> int:
    """The problems of n rows and q coefficients to fit as one batch so that
    it holds at most ``2 rows`` responses and its interior point solves at
    most ``rows`` rows (see :func:`_solved_rows`); at least one."""
    return max(1, min(2 * rows // n, rows // _solved_rows(n, q)))


def _chunk(batch: int, rows: int, n: int) -> int:
    """The problems of n rows taken at once so that they hold no more rows
    than a batch's solves of ``rows`` rows each; one past numpy's einsum
    buffer, where a sum over a row depends on the batch."""
    return 1 if n > _EINSUM_BUFFER else max(1, batch * rows // n)


def _banded_vertices(y: np.ndarray, x: np.ndarray, tau: float, m: int):
    """Portnoy and Koenker's preprocessing of each problem of a batch at level
    tau: the coefficients (B, q), whether each is certified, and the
    iterations (B,) of its two interior points.

    The fit of a subsample of m rows (:func:`_subsample_fit`) ranks every
    row's residual.  The rows of the 2m ranks around n tau form the band.
    The rows below it are summed into one glob row, their mean of weight
    their count, and those above it into another; a side with no rows has
    no glob.  The band and its globs form an ordinary weighted check-loss LP
    (see :func:`_interior_point`), whose vertex is solved through lead rows
    of the band alone.  It is certified on all n rows by :func:`_certify`,
    with each fixed row priced at its glob's ``d = clip(a_g / u_g, 0, 1) -
    (1 - tau)``: the globs carry the fixed rows' ``(1, X)'1``, so that d is
    dual feasible, and a fixed row on the wrong side of the vertex fails the
    certificate.  A problem is not certified when its subsample's ``(1, X)``
    is rank deficient (no band is solved), its band's lead rows are
    dependent, or its vertex fails the certificate or has a check loss at or
    below the certificate's rounding floor, where any vertex of a near-exact
    fit would pass.

    Every step reads one problem's rows alone, so a problem gets the bits it
    gets when solved alone.  The ranks, glob sums and certificates are taken
    in chunks of no more rows than the band, so beyond y and x the stage
    holds a (B, n) mask of the rows above the band, the band's rows and its
    interior point.
    """
    batch, n = y.shape
    coef, iterations, placed = _subsample_fit(y, x, tau, m)
    lo = min(max(int(n * tau) - m, 0), n - 2 * m)
    hi, size = lo + 2 * m, _chunk(batch, 2 * m, n)
    chunks = [slice(k, k + size) for k in range(0, batch, size)]
    sides = [(start, stop) for start, stop in ((0, lo), (hi, n)) if stop > start]
    band, above = np.empty((batch, 2 * m), dtype=np.intp), np.zeros((batch, n), dtype=bool)
    shape = (batch, 2 * m + len(sides))
    yb, xb, u = np.empty(shape), np.empty(shape + x.shape[2:]), np.ones(shape[1])
    u[2 * m:] = [stop - start for start, stop in sides]
    for k in chunks:
        ranked = np.argpartition(y[k] - _a(x[k], coef[k]), (lo, hi - 1), axis=1)
        band[k] = np.sort(ranked[:, lo:hi], axis=1)
        yb[k, :2 * m] = np.take_along_axis(y[k], band[k], axis=1)
        xb[k, :2 * m] = np.take_along_axis(x[k], band[k][:, :, None], axis=1)
        np.put_along_axis(above[k], ranked[:, hi:], True, axis=1)
        for g, (start, stop) in enumerate(sides, 2 * m):
            mask = np.zeros(y[k].shape)
            np.put_along_axis(mask, ranked[:, start:stop], 1.0, axis=1)
            yb[k, g] = np.einsum("bi,bi->b", y[k], mask) / (stop - start)
            xb[k, g] = np.einsum("bij,bi->bj", x[k], mask) / (stop - start)
    del ranked, mask
    if placed.all():
        a, r, more = _interior_point(yb, xb, tau, u)
    else:
        a, r, more = np.zeros(yb.shape), np.zeros(yb.shape), np.zeros(batch, int)
        if placed.any():
            a[placed], r[placed], more[placed] = _interior_point(yb[placed], xb[placed], tau, u)
    coef, _, independent = _lead_vertices(yb[:, :2 * m], xb[:, :2 * m], a[:, :2 * m],
                                          r[:, :2 * m])
    certified = placed & independent
    fixed = np.clip(a[:, 2 * m:] / u[2 * m:], 0.0, 1.0) - (1.0 - tau)
    for k in chunks:  # one glob: every fixed row's; two: below and above
        d = np.where(above[k], fixed[k, -1:], fixed[k, :1])
        np.put_along_axis(d, band[k], np.clip(a[k, :2 * m], 0.0, 1.0) - (1.0 - tau), axis=1)
        _, loss, _, passed, floor = _certify(y[k], x[k], tau, d, coef[k])
        certified[k] &= passed & (loss > floor)
    return coef, certified, iterations + more


def _subsample_fit(y: np.ndarray, x: np.ndarray, tau: float, m: int):
    """The coefficients (B, q) of each problem of a batch fitted on its m rows
    ``(arange(m) n) // m``, the interior point's iterations (B,), and
    whether each subsample's ``(1, X)`` has full rank; a problem whose
    subsample does not is not solved, and gets 0 coefficients and 0
    iterations.  The coefficients are the least-squares solve of ``(1, X) u
    = y - (w - z)``, the interior point's dual iterate at a gap within
    ``_SUBSAMPLE_RTOL`` of its loss, which needs no rank test of lead rows."""
    sub = (np.arange(m) * y.shape[1]) // m
    ys, xs = y[:, sub], x[:, sub]
    placed = np.linalg.matrix_rank(_augmented(xs)) == xs.shape[2] + 1
    coef, iterations = np.zeros((y.shape[0], xs.shape[2] + 1)), np.zeros(y.shape[0], int)
    if placed.any():
        ys, xs = ys[placed], xs[placed]
        _, r, iterations[placed] = _interior_point(ys, xs, tau, rtol=_SUBSAMPLE_RTOL)
        coef[placed] = _normal_solver(xs, np.ones(ys.shape))(_at(xs, ys - r))
    return coef, iterations, placed


def _lead_vertices(y: np.ndarray, x: np.ndarray, a: np.ndarray, r: np.ndarray):
    """The first vertex (B, q) of each problem of a batch, solved through the
    q lead rows (B, q) of :func:`_lead`, those rows, and whether they are
    independent; a problem whose rows are dependent gets a placeholder
    vertex."""
    q = x.shape[2] + 1
    rows, lead = np.arange(y.shape[0])[:, None], _lead(a, r, q)
    sub = _augmented(x[rows, lead])
    independent = np.linalg.matrix_rank(sub) == q
    sub[~independent] = np.eye(q)
    return np.linalg.solve(sub, y[rows, lead][:, :, None])[:, :, 0], lead, independent


def _full_vertices(y: np.ndarray, x: np.ndarray, tau: float):
    """The certified vertices of a batch at level tau (see
    :func:`_certified_vertices`), every problem's LP solved on all its rows.

    A vertex interpolates q independent observations in the order of
    :func:`_lead`.  It is certified by :func:`_certify` against the dual bound
    ``d'r``, ``d = clip(a, 0, 1) - (1 - tau)``.  The batch selects each
    problem's q lead rows, tests their rank and solves, prices and certifies
    its first vertex in stacked calls.  Only a problem whose lead rows are
    dependent or whose first vertex is not certified goes on alone, to
    :func:`_vertex`, with those rows as its basis when they are independent.
    Each ``(1, X)`` must have full rank.

    y and x are read in place and not copied, so a study batch is held once.
    After the interior point, the batch holds ``a``, ``w - z``, d and, while
    the first vertices are priced, their residuals, check losses and
    rounding bounds, |X| among them: about 6 + p (B, n) float64 arrays
    beyond y and x at the peak, below the interior point's for p <= 3
    (tracemalloc).
    """
    a, r_ipm, iterations = _interior_point(y, x, tau)
    d = np.clip(a, 0.0, 1.0) - (1.0 - tau)
    coef, lead, independent = _lead_vertices(y, x, a, r_ipm)
    certified = independent & _certify(y, x, tau, d, coef)[3]
    for k in range(y.shape[0]):
        if certified[k]:
            yield coef[k], int(iterations[k])
        else:
            basis = lead[k].tolist() if independent[k] else None
            yield _vertex(y[k], x[k], tau, a[k], d[k], r_ipm[k], basis, int(iterations[k]))


def _lead(a: np.ndarray, r: np.ndarray, q: int) -> np.ndarray:
    """The q lead observations (B, q) of each problem of a batch: ranked by how
    far the solver's ``a`` lies from {0, 1}, then by ``|r|``, then by index,
    NaN keys last, so ``q = n`` gives the full order.  Only the observations
    whose key is not above the q-th least, NaN among them, are sorted."""
    key = -np.minimum(a, 1.0 - a)
    chosen = ~(key > np.partition(key, q - 1, axis=1)[:, q - 1:q])
    counts = chosen.sum(axis=1)
    rows, cols = np.nonzero(chosen)  # row by row, in index order
    ranked = cols[np.lexsort((cols, np.abs(r[rows, cols]), key[rows, cols], rows))]
    return ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(q)]


def _vertex(y: np.ndarray, x: np.ndarray, tau: float, a: np.ndarray, d: np.ndarray,
            r: np.ndarray, basis: list[int] | None, iterations: int) -> tuple[np.ndarray, int]:
    """The certified vertex of one problem, responses y (n,) and design x
    (n, p), from its solver's ``a``, dual weights ``d`` and residuals r,
    starting at ``basis``, or with no basis at the first q independent
    observations in the order of ``_lead(a, r, n)`` (see :func:`_lead`).
    Until a vertex is certified, the basis point of smallest index whose
    Koenker-Bassett multiplier lies outside ``[tau - 1, tau]`` leaves, and
    the point where the loss stops falling along that edge enters.  The
    pivots also end when the entering point makes the basis singular, as a
    copy of a basis row does; then :class:`SolverFailure` carries the last
    vertex as ``best``."""
    xb, q = x[None], x.shape[1] + 1
    if basis is None:
        basis = []
        for i in _lead(a[None], r[None], y.shape[0])[0]:
            if np.linalg.matrix_rank(_augmented(x[basis + [i]])) > len(basis):
                basis.append(int(i))
                if len(basis) == q:
                    break
        else:  # V_n may be regular while its rows are not, to working precision
            raise SolverFailure(f"no vertex: only {len(basis)} of the {q} rows (1, x_i) a "
                                f"vertex needs are independent to working precision")
    for pivots in range(y.shape[0] + 1):
        sub = _augmented(x[basis])
        try:
            coef = np.linalg.solve(sub, y[basis])
        except np.linalg.LinAlgError:  # the point that entered made it singular
            break
        (r,), (loss,), (gap,), (certified,), _ = _certify(y[None], xb, tau, d[None], coef[None])
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
