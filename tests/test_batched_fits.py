"""Fitting the replicates of a Monte Carlo study in stacked batches.

The simulation draws each batch of replicates once into arrays of shape
(B, n) and (B, n, p), tests their designs in one call and fits them with one
interior point.  Every estimate must be bitwise the one
``fit_r_estimator`` returns for its dataset alone, whatever the batch's size
or other members, and a failing batch must raise what a loop of single fits
raises first.  The batches must also keep the study's memory bounded by the
batch size, not by the number of replications.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import quantfunc.model as model
import quantfunc.ranks as ranks
import quantfunc.regression as regression
import quantfunc.simulation as simulation
from quantfunc import (DataError, Dataset, ErrorDistribution, IdentifiabilityError,
                       SimulationConfig, SolverFailure, design_diagnostics, fit_r_estimator,
                       generate, jaeckel_dispersion, rate_study_r_estimator,
                       rate_study_two_step)
from quantfunc.ranks import _fit_slopes
from test_acceptance import MC_CONFIG

# The configuration of perfbench's monte_carlo workload, at seed 0.
BENCH_CONFIG = SimulationConfig(
    n_grid=(100, 400, 1600), p=1, beta0=1.0, beta=(2.0,),
    error_dist=ErrorDistribution("standard_normal"), design="equispaced",
    lam=0.5, replications=40, seed=0)

P3_CONFIG = SimulationConfig(
    n_grid=(50, 200, 800), p=3, beta0=1.0, beta=(1.0, -2.0, 0.5),
    error_dist=ErrorDistribution("shifted_exponential"), design="iid_uniform_cube",
    lam=0.37, replications=30, seed=5)


def bits(est):
    return [v.hex() for v in est.beta_tilde], est.dispersion.hex(), est.iterations


def stacked(datasets):
    """The responses (B, n) and designs (B, n, p) of a list of datasets."""
    return np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])


def batch_bits(datasets, lam):
    """:func:`bits` of each dataset's fit, their LPs solved as one batch."""
    return [([v.hex() for v in b], jaeckel_dispersion(b, ds, lam).hex(), iterations)
            for ds, (b, iterations) in zip(datasets, _fit_slopes(*stacked(datasets), lam))]


def continuous_set(rng, n=40, p=2):
    x = rng.uniform(0.0, 1.0, (n, p))
    return Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(n), x=x)


def tied_set():
    # Integer data whose normal matrix goes singular during the interior point.
    rng = np.random.default_rng(4)
    return Dataset(y=rng.integers(0, 5, 40).astype(float),
                   x=rng.integers(0, 4, (40, 2)).astype(float))


def pivoting_set():
    # Tied integer data whose first vertex, on independent lead rows, is not
    # certified: it takes 3 pivots.
    rng = np.random.default_rng(105)
    return Dataset(y=rng.integers(0, 5, 40).astype(float),
                   x=rng.integers(0, 4, (40, 2)).astype(float))


def duplicated_set():
    # Every observation twice: the q lead rows repeat one, so the basis
    # needs the greedy repair.
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (20, 2))
    y = 1.0 + x.sum(axis=1) + rng.standard_normal(20)
    return Dataset(y=np.repeat(y, 2), x=np.repeat(x, 2, axis=0))


@pytest.mark.parametrize("config", [MC_CONFIG, BENCH_CONFIG, P3_CONFIG],
                         ids=["criteria_6_to_8", "bench_monte_carlo", "p3_cube_lam037"])
def test_each_replicate_is_its_lone_fit_bit_for_bit(config, monkeypatch):
    batches, sizes = [], []

    def recording(y, x, lam):
        fits = list(_fit_slopes(y, x, lam))
        batches.append(fits)
        sizes.append(y.size)
        return fits

    monkeypatch.setattr(simulation, "_fit_slopes", recording)
    rate_study_r_estimator(config)
    got = [([v.hex() for v in b], iterations) for batch in batches for b, iterations in batch]
    want = [bits(fit_r_estimator(generate(config, n, rep)[0], config.lam))
            for n in config.n_grid for rep in range(config.replications)]
    want = [(slopes, iterations) for slopes, _, iterations in want]
    assert len(batches) > len(config.n_grid)  # the study did fit in batches
    assert max(len(batch) for batch in batches) > 1
    assert max(sizes) <= simulation._BATCH_ELEMENTS
    assert got == want


def test_two_datasets_at_the_einsum_buffer_size_fit_as_their_lone_fits():
    # n = 8192 is the largest n solved as one batch; a study batch with
    # B >= 2 has n <= _BATCH_ELEMENTS / 2, so it is never split.
    assert simulation._BATCH_ELEMENTS // 2 <= 8192
    datasets = [generate(BENCH_CONFIG, 8192, rep)[0] for rep in range(2)]
    assert batch_bits(datasets, 0.5) == [bits(fit_r_estimator(ds, 0.5)) for ds in datasets]


def interior_points(datasets, tau):
    """The interior point's (a, w - z, iterations) of each dataset, as bytes."""
    return [(a.tobytes(), r.tobytes(), iterations)
            for a, r, iterations in zip(*regression._interior_point(*stacked(datasets), tau))]


@pytest.mark.parametrize("n,p", [(8192, 1), (8193, 1), (20000, 2)])
def test_a_batch_past_the_einsum_buffer_keeps_each_lone_solve(n, p):
    # Past numpy's 8192-element einsum buffer a sum over a row depends on
    # the batch, so such a batch is solved one problem at a time.
    rng = np.random.default_rng(n)
    datasets = [continuous_set(rng, n, p) for _ in range(3)]
    alone = [point for ds in datasets for point in interior_points([ds], 0.5)]
    assert interior_points(datasets, 0.5) == alone


@pytest.mark.parametrize("size", [5, 40])
def test_interior_point_iterates_do_not_depend_on_the_batch(size):
    datasets = [generate(BENCH_CONFIG, 100, rep)[0] for rep in range(40)]
    alone = [point for ds in datasets for point in interior_points([ds], 0.5)]
    batched = [point for start in range(0, 40, size)
               for point in interior_points(datasets[start:start + size], 0.5)]
    assert batched == alone


def test_a_tied_member_leaves_the_others_unchanged(monkeypatch):
    fallbacks = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    rng = np.random.default_rng(21)
    continuous = [continuous_set(rng) for _ in range(4)]
    alone = [bits(fit_r_estimator(ds, 0.5)) for ds in continuous]
    together = batch_bits(continuous, 0.5)
    monkeypatch.setattr(np.linalg, "lstsq", counting)
    batch = continuous[:2] + [tied_set()] + continuous[2:]
    mixed = batch_bits(batch, 0.5)
    assert fallbacks  # the tied member did take the least-squares solve
    assert together == alone
    assert mixed[:2] + mixed[3:] == alone
    assert mixed[2] == bits(fit_r_estimator(tied_set(), 0.5))
    # The iterates too, not only the vertices solved from them.
    assert interior_points(batch, 0.5) == [point for ds in batch
                                           for point in interior_points([ds], 0.5)]


def test_a_batch_mixing_first_vertices_pivots_and_repairs(monkeypatch):
    rng = np.random.default_rng(23)
    batch = [continuous_set(rng), tied_set(), continuous_set(rng), pivoting_set(),
             duplicated_set(), continuous_set(rng)]
    alone = [bits(fit_r_estimator(ds, 0.5)) for ds in batch]
    went_on, fallbacks = [], []
    vertex, lstsq = regression._vertex, np.linalg.lstsq

    def recording(y, x, tau, a, d, order, basis, iterations):
        coef, total = vertex(y, x, tau, a, d, order, basis, iterations)
        went_on.append((next(k for k, member in enumerate(batch)
                             if np.array_equal(member.y, y) and np.array_equal(member.x, x)),
                        "repair" if basis is None else "lead", total - iterations))
        return coef, total

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(regression, "_vertex", recording)
    monkeypatch.setattr(np.linalg, "lstsq", counting)
    assert batch_bits(batch, 0.5) == alone
    # The continuous members are certified in the batch; the others go on
    # alone: the tied set and the duplicated one to the repair, the
    # pivoting one from its lead rows.
    assert went_on == [(1, "repair", 0), (3, "lead", 3), (4, "repair", 0)]
    assert fallbacks  # a tied member took the least-squares solve


def test_studies_compute_no_dispersion(monkeypatch):
    calls = []
    dispersion = ranks.jaeckel_dispersion

    def counting(*args):
        calls.append(1)
        return dispersion(*args)

    monkeypatch.setattr(ranks, "jaeckel_dispersion", counting)
    config = replace(BENCH_CONFIG, replications=4)
    rate_study_r_estimator(config)
    rate_study_two_step(config)
    assert calls == []
    ds = generate(config, 100, 0)[0]
    est = fit_r_estimator(ds, config.lam)
    assert calls == [1]
    assert est.dispersion == dispersion(est.beta_tilde, ds, config.lam)


def test_a_failing_study_raises_what_the_first_lone_fit_raises(monkeypatch):
    monkeypatch.setattr(regression, "_IPM_MAX_ITER", 0)
    config = replace(BENCH_CONFIG, replications=6)
    expected = None
    for rep in range(config.replications):
        try:
            fit_r_estimator(generate(config, config.n_grid[0], rep)[0], config.lam)
        except SolverFailure as exc:
            expected = exc
            break
    assert expected is not None
    with pytest.raises(SolverFailure) as info:
        rate_study_r_estimator(config)
    assert str(info.value) == str(expected)
    assert [v.hex() for v in info.value.best] == [v.hex() for v in expected.best]


def test_errors_are_raised_in_dataset_order(monkeypatch):
    rng = np.random.default_rng(22)
    ok = [continuous_set(rng) for _ in range(3)]
    flat = Dataset(y=rng.standard_normal(40), x=np.column_stack([np.ones(40), rng.uniform(size=40)]))
    with pytest.raises(IdentifiabilityError):
        batch_bits(ok[:2] + [flat] + ok[2:], 0.5)
    monkeypatch.setattr(regression, "_IPM_MAX_ITER", 0)
    with pytest.raises(SolverFailure):  # the first dataset fails before the flat one
        batch_bits([ok[0], flat], 0.5)


@pytest.mark.parametrize("design,p", [("equispaced", 1), ("iid_uniform_cube", 3),
                                      ("iid_normal", 2), ("iid_normal", 0)])
@pytest.mark.parametrize("law", ["standard_normal", "shifted_exponential", "uniform_centered"])
def test_a_study_batch_holds_the_bits_of_generate(design, p, law, monkeypatch):
    n = 30
    config = SimulationConfig(
        n_grid=(n, 2 * n), p=p, beta0=1.0, beta=(2.0, -1.0, 0.5)[:p],
        error_dist=ErrorDistribution(law), design=design, replications=7, seed=9)
    monkeypatch.setattr(simulation, "_BATCH_ELEMENTS", 3 * n)  # batches of 3, 3 and 1
    rows = []

    def read(ds, z, slopes):
        for array in (ds.y, ds.x):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array.setflags(write=True)
        rows.append((ds.y.tobytes(), ds.x.tobytes(), z))

    simulation._replicates(config, n, read, lambda z: z.tobytes())
    want = []
    for rep in range(config.replications):
        ds, z = generate(config, n, rep)
        want.append((ds.y.tobytes(), ds.x.tobytes(), z.tobytes()))
    assert rows == want


def test_a_study_refuses_non_finite_draws_as_generate_does():
    config = replace(BENCH_CONFIG, beta0=1.5e308, beta=(1.5e308,), replications=3)
    with np.errstate(over="ignore"):
        with pytest.raises(DataError, match="non-finite"):
            generate(config, 100, 0)
        with pytest.raises(DataError, match="non-finite"):
            rate_study_r_estimator(config)


def singularity_batch():
    """Designs of p = 3 on both sides of ``SINGULARITY_RTOL``, and whether each
    is singular.  The first five are those of
    ``test_the_fit_rejects_exactly_the_singular_designs``, a uniform column
    appended to the four of p = 2.  Two more perturb a collinear column by
    1e-4 less and 1e-4 more, relatively, than the scale at which V_n's
    eigenvalue ratio meets the threshold, so they lie just on either side."""
    rng = np.random.default_rng(7)
    x1, extra = rng.uniform(size=30), rng.uniform(size=(30, 1))
    designs = [np.column_stack([x1, 2.0 * x1, extra]),
               np.column_stack([x1, np.full(30, 3.0), extra]),
               np.column_stack([x1, 2.0 * x1 + 1e-7 * rng.standard_normal(30), extra]),
               np.column_stack([x1, 2.0 * x1 + 1e-3 * rng.standard_normal(30), extra]),
               rng.uniform(size=(30, 3))]
    # The eigenvalue ratio grows as the square of a small perturbation's scale.
    e = rng.standard_normal(30)
    ref = np.column_stack([x1, 2.0 * x1 + 1e-4 * e, extra])
    eigvals = model._centered_scatter(Dataset(y=e, x=ref))[2]
    scale = 1e-4 * np.sqrt(model.SINGULARITY_RTOL * eigvals[-1] / eigvals[0])
    designs += [np.column_stack([x1, 2.0 * x1 + scale * (1.0 + side) * e, extra])
                for side in (-1e-4, 1e-4)]
    return designs, [True, True, True, False, False, True, False]


def test_one_eigvalsh_call_decides_each_design_as_alone(monkeypatch):
    rng = np.random.default_rng(8)
    designs, expected = singularity_batch()
    regular = [rng.uniform(size=(30, 3)) for _ in range(3)]
    batch = [Dataset(y=rng.standard_normal(30), x=x)
             for x in regular[:2] + designs[:4] + regular[2:] + designs[4:]]
    y, x = stacked(batch)
    alone = [model._centered_scatter(ds)[3] for ds in batch]
    assert alone == [False, False] + expected[:4] + [False] + expected[4:]
    assert model._centered_scatters(x)[3].tolist() == alone
    # The two regular designs before the first singular one are yielded, each
    # as fitted alone, and then the error is raised.
    want = [(slopes, iterations) for slopes, _, iterations in
            (bits(fit_r_estimator(ds, 0.5)) for ds in batch[:2])]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    yielded = []
    with pytest.raises(IdentifiabilityError):
        for b, iterations in _fit_slopes(y, x, 0.5):
            yielded.append(([v.hex() for v in b], iterations))
    assert calls == [(len(batch), 3, 3)]
    assert yielded == want


def test_design_diagnostics_keep_the_lone_arithmetic():
    # The reference is the per-dataset arithmetic the diagnostics had before
    # the scatter was batched.
    rng = np.random.default_rng(9)
    designs, expected = singularity_batch()
    for x, singular in zip(designs + [rng.standard_normal((50, 3))], expected + [False]):
        diag = design_diagnostics(Dataset(y=np.zeros(x.shape[0]), x=x))
        xc = x - x.mean(axis=0)
        v_n = xc.T @ xc
        v_n = (v_n + v_n.T) / 2.0
        eigvals = np.linalg.eigvalsh(v_n)
        assert diag.v_n.tobytes() == v_n.tobytes()
        assert diag.v_n_over_n_spectral_norm == float(eigvals[-1] / x.shape[0])
        assert diag.max_centered_norm == float(np.max(np.linalg.norm(xc, axis=1)))
        if singular:
            assert diag.max_leverage is None
        else:
            leverage = np.einsum("ij,ji->i", xc, np.linalg.solve(v_n, xc.T))
            assert diag.max_leverage == min(max(float(np.max(leverage)), 0.0), 1.0)


def traced_peak(config):
    tracemalloc.start()
    try:
        rate_study_two_step(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_memory_follows_the_batch_size_not_the_replications():
    rate_study_two_step(replace(BENCH_CONFIG, replications=2))  # lazy imports and caches
    # The study peaks at 11.8 float64 arrays of the batch budget (numpy 2.4);
    # 16 leaves more than the 22 % for other numpy versions that 24 left over
    # the 19.7 of the earlier loop.
    assert traced_peak(BENCH_CONFIG) <= 16 * 8 * simulation._BATCH_ELEMENTS
    # 200 replications fill the largest batch at every n, as 400 do; 100
    # leave the n = 100 batch short of the budget.
    full = traced_peak(replace(BENCH_CONFIG, replications=200))
    assert traced_peak(replace(BENCH_CONFIG, replications=400)) <= 1.1 * full
