"""The R-fit's preprocessing: a subsample, a band of residual ranks, and a
certificate on all rows.

From ``regression._BAND_ROWS`` rows on, ``_certified_vertices`` first solves
each problem on the band of rows around rank n tau that a subsample's fit
picks, the rows outside it summed into glob rows, and certifies that vertex
on all n rows.
A problem it does not certify goes on to the full solve.  Either way the
slopes must be an optimum of the full LP, and on continuous data, where the
optimum is unique, the full solve's bits.
"""

import math
import warnings

import numpy as np
import pytest

import quantfunc.regression as regression
from quantfunc import Dataset, fit_r_estimator
from quantfunc.model import check_loss_vec
from quantfunc.ranks import _fit_slopes


def continuous_set(rng, n, p):
    x = rng.uniform(0.0, 1.0, (n, p))
    return Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(n), x=x)


def full_fit(ds, lam, monkeypatch):
    """``fit_r_estimator`` with every LP solved on all its rows."""
    with monkeypatch.context() as patch:
        patch.setattr(regression, "_BAND_ROWS", math.inf)
        return fit_r_estimator(ds, lam)


def record(monkeypatch):
    """The problems each full solve takes, and each interior point's
    iterations, by whether it had row weights (a band and its globs)."""
    full, solves = [], {False: [], True: []}
    full_vertices, interior_point = regression._full_vertices, regression._interior_point

    def fully(y, x, tau):
        full.append(y.shape[0])
        return full_vertices(y, x, tau)

    def solving(y, x, tau, u=None, **kwargs):
        a, r, iterations = interior_point(y, x, tau, u, **kwargs)
        solves[u is not None].append(iterations.tolist())
        return a, r, iterations

    monkeypatch.setattr(regression, "_full_vertices", fully)
    monkeypatch.setattr(regression, "_interior_point", solving)
    return full, solves


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n", [1000, 1600, 20000])
def test_continuous_data_get_the_full_fits_bits(n, p, monkeypatch):
    ds = continuous_set(np.random.default_rng([n, p]), n, p)
    want = full_fit(ds, 0.5, monkeypatch)
    full, solves = record(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_r_estimator(ds, 0.5)
    assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
    assert got.dispersion == want.dispersion
    # The band's vertex was certified: no full solve, and the iterations are
    # the subsample's plus the band's.
    assert full == []
    assert got.iterations == solves[False][0][0] + solves[True][0][0]


def test_a_band_too_narrow_falls_back_to_the_full_fit(monkeypatch):
    # A band of m / 2 ranks on either side of n tau, around a subsample of
    # m / 2 rows: all 12 of these reduced LPs are solved, and three of their
    # vertices are not certified.
    rng = np.random.default_rng(25)
    datasets = [continuous_set(rng, 1600, 1) for _ in range(12)]
    want = [full_fit(ds, 0.5, monkeypatch) for ds in datasets]
    solved_rows = regression._solved_rows
    monkeypatch.setattr(regression, "_solved_rows",
                        lambda n, q: solved_rows(n, q) // 2)
    full, solves = record(monkeypatch)
    y, x = np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = list(_fit_slopes(y, x, 0.5))
    assert [[v.hex() for v in b] for b, _ in got] == [[v.hex() for v in est.beta_tilde]
                                                      for est in want]
    assert full == [1, 1, 1]  # one at a time: no more rows than the band solve held
    [sub], [band], rest = solves[False][:1], solves[True], solves[False][1:]
    assert len(band) == 12 and max(band) < regression._IPM_MAX_ITER
    # Each member counts its subsample's and its band's iterations, plus
    # those of its full solve.
    more = [iterations - s - b for (_, iterations), s, b in zip(got, sub, band)]
    assert [k for k in more if k] == [k for chunk in rest for k in chunk]


def test_a_band_of_exact_rows_gets_the_full_fits_optimum(monkeypatch):
    # 1400 rows at y = 0, x in [0, 1], among them every subsample row, and
    # 600 rows at y = 10, x near 100.  The subsample's fit is 0, so the band
    # is 504 rows at y = 0, which slope 0 fits exactly; the full LP's
    # optimum has a slope near 0.1, which only the globs carry.
    n, rng = 2000, np.random.default_rng(7)
    m = math.ceil((2 * n) ** (2.0 / 3.0))
    low = np.zeros(n, dtype=bool)
    low[(np.arange(m) * n) // m] = True
    low[rng.choice(np.flatnonzero(~low), 1400 - m, replace=False)] = True
    x = np.where(low, rng.uniform(0.0, 1.0, n), 100.0 + rng.uniform(-0.5, 0.5, n))
    ds = Dataset(y=np.where(low, 0.0, 10.0), x=x[:, None])
    want = full_fit(ds, 0.5, monkeypatch)
    assert 0.05 < want.beta_tilde[0] < 0.15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_r_estimator(ds, 0.5)
    assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
    assert got.dispersion == want.dispersion


def singular_subsample_set():
    """A 0/1 column that is 1 on five rows, none of them subsample rows: the
    subsample's (1, X) is rank deficient."""
    rng = np.random.default_rng(4)
    x = np.zeros((3000, 2))
    x[:, 0] = rng.uniform(0.0, 1.0, 3000)
    x[[1, 3, 5, 7, 9], 1] = 1.0
    return Dataset(y=x[:, 0] + rng.standard_normal(3000), x=x)


def test_a_singular_subsample_goes_straight_to_the_full_fit(monkeypatch):
    # No subsample or band is solved.
    ds = singular_subsample_set()
    want = full_fit(ds, 0.5, monkeypatch)
    full, solves = record(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_r_estimator(ds, 0.5)
    assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
    assert got.iterations == want.iterations
    assert full == [1] and solves[True] == [] and len(solves[False]) == 1


def test_a_batch_with_one_singular_subsample_keeps_each_lone_fit(monkeypatch):
    # The middle set's subsample is rank deficient: the other two sets'
    # subsamples and bands are solved without it, and it alone is solved in
    # full.
    rng = np.random.default_rng(11)
    datasets = [continuous_set(rng, 3000, 2), singular_subsample_set(),
                continuous_set(rng, 3000, 2)]
    want = [fit_r_estimator(ds, 0.5) for ds in datasets]
    full, solves = record(monkeypatch)
    y, x = np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = list(_fit_slopes(y, x, 0.5))
    assert [([v.hex() for v in b], k) for b, k in got] == [
        ([v.hex() for v in est.beta_tilde], est.iterations) for est in want]
    assert full == [1]
    assert [len(k) for k in solves[False]] == [2, 1] and [len(k) for k in solves[True]] == [2]


@pytest.mark.parametrize("seed", range(8))
def test_an_exact_fit_falls_back_at_once(seed, monkeypatch):
    # Every residual of y = 1 + x1 + x2 rounds to about 0, so the check loss
    # of the band's vertex, as of any vertex near the fit, is at most the
    # certificate's rounding floor.  Such a vertex is not certified: the
    # full solve picks the vertex.
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (3000, 2))
    ds = Dataset(y=1.0 + x[:, 0] + x[:, 1], x=x)
    want = full_fit(ds, 0.5, monkeypatch)
    full, solves = record(monkeypatch)
    got = fit_r_estimator(ds, 0.5)
    assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
    [[sub], [again]], [[band]] = solves[False], solves[True]
    assert full == [1] and again == want.iterations
    assert got.iterations == want.iterations + sub + band


@pytest.mark.parametrize("copies", [2, 40])
def test_a_row_of_weight_c_counts_as_c_copies_of_it(copies):
    # The interior point's optimal check loss with row 0 of weight c is that
    # of the same LP with c - 1 more copies of row 0.
    rng = np.random.default_rng(copies)
    x = rng.uniform(0.0, 1.0, (1, 300, 2))
    y = 1.0 + x.sum(axis=2) + rng.standard_normal((1, 300))
    u = np.ones(y.shape[1])
    u[0] = copies
    _, r, _ = regression._interior_point(y, x, 0.3, u=u)
    weighted = (u * check_loss_vec(r, 0.3)).sum()
    more = np.zeros(copies - 1, dtype=int)
    _, r, _ = regression._interior_point(np.concatenate((y, y[:, more]), axis=1),
                                         np.concatenate((x, x[:, more]), axis=1), 0.3)
    assert weighted == pytest.approx(check_loss_vec(r, 0.3).sum(), rel=regression._IPM_RTOL)


def test_tied_integer_data_get_an_optimum_of_the_full_fit(monkeypatch):
    # The optimum of tied data is not unique: the vertex may differ from the
    # full fit's, but not its check loss.
    for seed in range(3):
        rng = np.random.default_rng([2000, seed])
        ds = Dataset(y=rng.integers(0, 5, 2000).astype(float),
                     x=rng.integers(0, 4, (2000, 3)).astype(float))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_r_estimator(ds, 0.5)
        assert got.dispersion == pytest.approx(full_fit(ds, 0.5, monkeypatch).dispersion,
                                               rel=1e-12)
