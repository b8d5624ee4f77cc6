"""The R-fit's preprocessing: a subsample, a band of residual ranks, and a
certificate on all rows.

From ``regression._BAND_ROWS`` rows on, ``_certified_vertices`` first solves
each problem on the band of rows around rank n tau that a subsample's fit
picks, the rows outside it fixed, and certifies that vertex on all n rows.
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
    """The problems each full solve takes, each interior point's iterations,
    by whether it had a right-hand side, and each band LP that
    ``_infeasible`` refused, by batch."""
    full, solves, refused = [], {False: [], True: []}, []
    full_vertices, interior_point = regression._full_vertices, regression._interior_point
    infeasible = regression._infeasible

    def fully(y, x, tau):
        full.append(y.shape[0])
        return full_vertices(y, x, tau)

    def solving(y, x, tau, rhs=None, **kwargs):
        a, r, iterations = interior_point(y, x, tau, rhs, **kwargs)
        solves[rhs is not None].append(iterations.tolist())
        return a, r, iterations

    def refusing(x, tau, rhs):
        refused.append(infeasible(x, tau, rhs).tolist())
        return np.array(refused[-1])

    monkeypatch.setattr(regression, "_full_vertices", fully)
    monkeypatch.setattr(regression, "_interior_point", solving)
    monkeypatch.setattr(regression, "_infeasible", refusing)
    return full, solves, refused


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("n", [1000, 1600, 20000])
def test_continuous_data_get_the_full_fits_bits(n, p, monkeypatch):
    ds = continuous_set(np.random.default_rng([n, p]), n, p)
    want = full_fit(ds, 0.5, monkeypatch)
    full, solves, _ = record(monkeypatch)
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
    # m / 2 rows: one of these reduced LPs is proven infeasible and not
    # solved, and two of their vertices are not certified.
    rng = np.random.default_rng(25)
    datasets = [continuous_set(rng, 1600, 1) for _ in range(12)]
    want = [full_fit(ds, 0.5, monkeypatch) for ds in datasets]
    solved_rows = regression._solved_rows
    monkeypatch.setattr(regression, "_solved_rows",
                        lambda n, q: solved_rows(n, q) // 2)
    full, solves, refused = record(monkeypatch)
    y, x = np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = list(_fit_slopes(y, x, 0.5))
    assert [[v.hex() for v in b] for b, _ in got] == [[v.hex() for v in est.beta_tilde]
                                                      for est in want]
    assert full == [1, 1, 1]  # one at a time: no more rows than the band solve held
    [refused] = refused
    assert sum(refused) == 1
    # The band LPs solved all converge; without the infeasibility test the
    # refused one runs to _IPM_MAX_ITER.
    [sub], [band], rest = solves[False][:1], solves[True], solves[False][1:]
    assert len(band) == 11 and max(band) < regression._IPM_MAX_ITER
    # Each member counts its subsample's and its band's iterations, plus
    # those of its full solve.
    band = iter(band)
    band = [0 if skip else next(band) for skip in refused]
    more = [iterations - s - b for (_, iterations), s, b in zip(got, sub, band)]
    assert [k for k in more if k] == [k for chunk in rest for k in chunk]


def test_a_band_whose_residual_stays_open_is_not_certified(monkeypatch):
    # 1400 rows at y = 0, x in [0, 1], among them every subsample row, and
    # 600 rows at y = 10, x near 100.  The subsample's fit is 0, so the band
    # is 504 rows at y = 0, whose least-squares start is exact: its gap is 0
    # while its primal residual is open.  Its first vertex, 0, meets the
    # all-row bound d'r only because that d is not dual feasible; the full
    # LP's optimum has a slope near 0.1.
    n, rng = 2000, np.random.default_rng(7)
    m = math.ceil((2 * n) ** (2.0 / 3.0))
    low = np.zeros(n, dtype=bool)
    low[(np.arange(m) * n) // m] = True
    low[rng.choice(np.flatnonzero(~low), 1400 - m, replace=False)] = True
    x = np.where(low, rng.uniform(0.0, 1.0, n), 100.0 + rng.uniform(-0.5, 0.5, n))
    ds = Dataset(y=np.where(low, 0.0, 10.0), x=x[:, None])
    want = full_fit(ds, 0.5, monkeypatch)
    assert 0.05 < want.beta_tilde[0] < 0.15
    for refuse in (True, False):  # with and without the Farkas test
        with monkeypatch.context() as patch:
            if not refuse:
                patch.setattr(regression, "_infeasible", lambda x, tau, rhs: np.zeros(len(x), bool))
            full, solves, _ = record(patch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fit_r_estimator(ds, 0.5)
        assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
        assert got.dispersion == want.dispersion
        assert full == [1]
        assert solves[True] == ([] if refuse else [[0]])


def test_a_singular_subsample_goes_straight_to_the_full_fit(monkeypatch):
    # A 0/1 column that is 1 on five rows, none of them subsample rows: the
    # subsample's (1, X) is rank deficient, so no subsample or band is solved.
    rng = np.random.default_rng(4)
    x = np.zeros((3000, 2))
    x[:, 0] = rng.uniform(0.0, 1.0, 3000)
    x[[1, 3, 5, 7, 9], 1] = 1.0
    ds = Dataset(y=x[:, 0] + rng.standard_normal(3000), x=x)
    want = full_fit(ds, 0.5, monkeypatch)
    full, solves, _ = record(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_r_estimator(ds, 0.5)
    assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
    assert got.iterations == want.iterations
    assert full == [1] and solves[True] == [] and len(solves[False]) == 1


def test_an_exact_fit_falls_back_at_once(monkeypatch):
    # Every residual of y = 1 + x1 + x2 rounds to about 0, so the band's
    # ranks are arbitrary and its LP infeasible.  Without the infeasibility
    # test, 100 band iterations come before the fallback.
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, (3000, 2))
    ds = Dataset(y=1.0 + x[:, 0] + x[:, 1], x=x)
    want = full_fit(ds, 0.5, monkeypatch)
    full, solves, refused = record(monkeypatch)
    got = fit_r_estimator(ds, 0.5)
    assert [v.hex() for v in got.beta_tilde] == [v.hex() for v in want.beta_tilde]
    assert refused == [[True]] and solves[True] == [] and full == [1]
    assert got.iterations == want.iterations + solves[False][0][0]
    assert got.iterations <= want.iterations + 2


@pytest.mark.parametrize("p", [1, 3])
def test_the_farkas_test_never_refuses_a_feasible_band(p):
    # Right-hand sides (1, X)'a of a in [0, 1], some of it at the bounds,
    # are feasible: none may be refused.  Moving one term past the most any
    # a reaches makes them infeasible; the least-squares u proves it of most.
    rng = np.random.default_rng(p)
    x = rng.uniform(-1.0, 2.0, (200, 300, p))
    a = rng.uniform(0.0, 1.0, (200, 300))
    a[:, :50] = np.round(a[:, :50])
    rhs = regression._at(x, a)
    assert not regression._infeasible(x, 0.3, rhs).any()
    rhs[:, 0] = 301.0
    assert regression._infeasible(x, 0.3, rhs).all()
    rhs = regression._at(x, a)
    rhs[:, 1] = np.maximum(x[:, :, 0], 0.0).sum(axis=1) + 1.0
    assert regression._infeasible(x, 0.3, rhs).mean() > 0.8


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
