"""Fitting the replicates of a Monte Carlo study in stacked batches.

The simulation fits each batch of replicates with one interior point over
arrays of shape (B, n).  Every estimate must be bitwise the one
``fit_r_estimator`` returns for its dataset alone, whatever the batch's size
or other members, and a failing batch must raise what a loop of single fits
raises first.  The batches must also keep the study's memory bounded by the
batch size, not by the number of replications.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import quantfunc.regression as regression
import quantfunc.simulation as simulation
from quantfunc import (Dataset, ErrorDistribution, IdentifiabilityError, SimulationConfig,
                       SolverFailure, fit_r_estimator, generate, rate_study_r_estimator,
                       rate_study_two_step)
from quantfunc.ranks import _fit_r_estimators
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


def continuous_set(rng, n=40, p=2):
    x = rng.uniform(0.0, 1.0, (n, p))
    return Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(n), x=x)


def tied_set():
    # Integer data whose normal matrix goes singular during the interior point.
    rng = np.random.default_rng(4)
    return Dataset(y=rng.integers(0, 5, 40).astype(float),
                   x=rng.integers(0, 4, (40, 2)).astype(float))


@pytest.mark.parametrize("config", [MC_CONFIG, BENCH_CONFIG, P3_CONFIG],
                         ids=["criteria_6_to_8", "bench_monte_carlo", "p3_cube_lam037"])
def test_each_replicate_is_its_lone_fit_bit_for_bit(config, monkeypatch):
    batches = []

    def recording(datasets, lam):
        estimates = _fit_r_estimators(datasets, lam)
        batches.append(estimates)
        return estimates

    monkeypatch.setattr(simulation, "_fit_r_estimators", recording)
    rate_study_r_estimator(config)
    got = [bits(est) for batch in batches for est in batch]
    want = [bits(fit_r_estimator(generate(config, n, rep)[0], config.lam))
            for n in config.n_grid for rep in range(config.replications)]
    assert len(batches) > len(config.n_grid)  # the study did fit in batches
    assert max(len(batch) for batch in batches) > 1
    assert got == want


def interior_points(datasets, tau):
    """The interior point's (a, w - z, iterations) of each dataset, as bytes."""
    y, x = np.stack([ds.y for ds in datasets]), np.stack([ds.x for ds in datasets])
    floor = (x.shape[2] + 1) * np.finfo(float).eps * np.abs(y).sum(axis=1)
    return [(a.tobytes(), r.tobytes(), iterations)
            for a, r, iterations in regression._interior_point(y, x, tau, floor)]


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
    together = [bits(est) for est in _fit_r_estimators(continuous, 0.5)]
    monkeypatch.setattr(np.linalg, "lstsq", counting)
    batch = continuous[:2] + [tied_set()] + continuous[2:]
    mixed = [bits(est) for est in _fit_r_estimators(batch, 0.5)]
    assert fallbacks  # the tied member did take the least-squares solve
    assert together == alone
    assert mixed[:2] + mixed[3:] == alone
    assert mixed[2] == bits(fit_r_estimator(tied_set(), 0.5))
    # The iterates too, not only the vertices solved from them.
    assert interior_points(batch, 0.5) == [point for ds in batch
                                           for point in interior_points([ds], 0.5)]


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
        _fit_r_estimators(ok[:2] + [flat] + ok[2:], 0.5)
    monkeypatch.setattr(regression, "_IPM_MAX_ITER", 0)
    with pytest.raises(SolverFailure):  # the first dataset fails before the flat one
        _fit_r_estimators([ok[0], flat], 0.5)


def traced_peak(config):
    tracemalloc.start()
    try:
        rate_study_two_step(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_study_memory_follows_the_batch_size_not_the_replications():
    rate_study_two_step(replace(BENCH_CONFIG, replications=2))  # lazy imports and caches
    peak = traced_peak(BENCH_CONFIG)
    assert peak <= 24 * 8 * 4096
    assert traced_peak(replace(BENCH_CONFIG, replications=200)) <= 1.1 * peak
