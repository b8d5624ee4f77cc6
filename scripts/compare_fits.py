"""Compare the numbers two source trees of quantfunc return, bit for bit.

Usage: python scripts/compare_fits.py OLD_SRC NEW_SRC

Runs one fixed set of fits under each tree, each in a fresh interpreter
with PYTHONPATH set to the tree, and compares the results as float hex
strings:

- R-estimator slopes, dispersions and iteration counts at n = 2e4 for
  p = 1, 2, 5 (the ``fit_large`` datasets), on the Monte Carlo designs at
  n = 100, 400, 1600, and on small random and tied datasets;
- dispersions and Hajek scores (``ranks._scores``, a name both trees
  must have) at fixed slopes, tied residuals included;
- two-step intercepts on a grid of levels, at the true slopes;
- the averaged two-step process and its centred form on the ``fit_large``
  datasets at the true slopes, and at p = 0 on a response that holds
  -0.0, +0.0 and ties, with that response's two-step intercepts;
- the simplex vertex and the regression-quantile coefficients at n = 400,
  p = 2, and on tied data;
- the ``to_json()`` text of the three simulation studies on the
  configuration of perfbench's ``monte_carlo`` workload at seeds 0-2, on
  ``MC_CONFIG`` of the acceptance criteria 6-8, on a p = 3
  ``iid_uniform_cube`` design at lambda = 0.37 and on a p = 2
  ``iid_normal`` design with ``shifted_exponential`` errors; and the
  two-step rate and CVaR consistency studies of a p = 0 ``iid_normal``
  design.

Prints one line per differing case and a summary that counts the
differing cases of each kind; exits 1 on any difference.  Takes about 25
seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def emit() -> dict:
    import quantfunc as qf
    import quantfunc.regression as regression

    out = {}

    def r_fit(name, ds, lam):
        est = qf.fit_r_estimator(ds, lam)
        out[name] = {"slopes": _hex(est.beta_tilde), "dispersion": _hex([est.dispersion]),
                     "iterations": est.iterations}
        return est.beta_tilde

    def process(name, proc):
        out[name] = {"values": _hex(proc.values),
                     "centered": _hex(qf.centered_process(proc).values)}

    alphas = [round(0.05 * k, 2) for k in range(1, 20)]
    for p in (1, 2, 5):
        rng = np.random.default_rng([0, p])
        x = rng.uniform(0.0, 1.0, (20_000, p))
        y = 1.0 + x @ np.arange(1.0, p + 1.0) + rng.standard_normal(20_000)
        ds = qf.Dataset(y=y, x=x)
        r_fit(f"fit_large p={p}", ds, 0.5)
        b = np.arange(1.0, p + 1.0)
        out[f"intercepts p={p}"] = _hex([qf.two_step_quantile(ds, a, 0.5, slopes=b).intercept
                                         for a in alphas])
        process(f"process p={p}", qf.averaged_two_step_process(ds, 0.5, slopes=b))
    rng = np.random.default_rng(5)
    y = np.round(rng.standard_normal(60), 1)
    y[::7], y[3::7] = -0.0, 0.0
    ds = qf.Dataset(y=y, x=np.zeros((60, 0)))
    process("process p=0", qf.averaged_two_step_process(ds, 0.5))
    out["intercepts p=0"] = _hex([qf.two_step_quantile(ds, a, 0.5).intercept for a in alphas])
    for n in (100, 400, 1600):
        for rep in range(3):
            rng = np.random.default_rng([1, n, rep])
            x = np.linspace(0.0, 1.0, n).reshape(-1, 1)
            r_fit(f"monte_carlo n={n} rep={rep}", qf.Dataset(
                y=1.0 + 2.0 * x[:, 0] + rng.standard_normal(n), x=x), 0.5)
    for s in range(12):
        rng = np.random.default_rng([2, s])
        p = 1 + s % 3
        x = rng.uniform(0.0, 1.0, (60, p))
        y = 1.0 + x.sum(axis=1) + rng.standard_normal(60)
        lam = (0.25, 0.37, 0.5, 0.9)[s % 4]
        r_fit(f"random s={s}", qf.Dataset(y=y, x=x), lam)
        tied = qf.Dataset(y=np.round(2.0 * y) / 2.0, x=np.round(4.0 * x) / 4.0)
        try:
            r_fit(f"tied s={s}", tied, lam)
        except qf.QuantfuncError as exc:
            out[f"tied s={s}"] = f"{type(exc).__name__}: {exc}"
        for t, b in enumerate(rng.choice([-1.0, 0.0, 0.5, 1.0], size=(4, p))):
            d = qf.jaeckel_dispersion(b, tied, lam)
            residuals = tied.y - tied.x @ b
            out[f"dispersion s={s} b={t}"] = _hex([d])
            out[f"scores s={s} b={t}"] = _hex(qf.ranks._scores(residuals, lam))

    vertices = []
    solve = regression.solve_simplex

    def recording(c, a, b, basis):
        x, obj = solve(c, a, b, basis)
        vertices.append(x.copy())
        return x, obj

    regression.solve_simplex = recording
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(400, 2))
    lp_sets = {"lp n=400": qf.Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(400), x=x)}
    x = rng.integers(0, 3, size=(60, 2)).astype(float)
    lp_sets["lp tied"] = qf.Dataset(y=rng.integers(0, 4, size=60).astype(float), x=x)
    for name, ds in lp_sets.items():
        for a in (0.25, 0.5, 0.75):
            fit = qf.fit_regression_quantile(ds, a)
            out[f"{name} alpha={a}"] = {
                "vertex": _hex(vertices[-1]), "coef": _hex([fit.beta0_hat, *fit.beta_hat]),
                "objective": _hex([fit.objective]), "n_active": fit.n_active}

    import quantfunc.simulation as sim
    base = dict(n_grid=(100, 400, 1600), p=1, beta0=1.0, beta=(2.0,), design="equispaced",
                error_dist=sim.ErrorDistribution("standard_normal"), lam=0.5)
    studies = {f"study monte_carlo seed={seed}": sim.SimulationConfig(
        **base, replications=40, seed=seed) for seed in range(3)}
    studies["study MC_CONFIG"] = sim.SimulationConfig(**base, replications=200, seed=42)
    studies["study p=3 cube lam=0.37"] = sim.SimulationConfig(
        n_grid=(50, 200, 800), p=3, beta0=1.0, beta=(1.0, -2.0, 0.5), design="iid_uniform_cube",
        error_dist=sim.ErrorDistribution("uniform_centered", 2.0), lam=0.37,
        replications=30, seed=5)
    studies["study p=2 normal exponential"] = sim.SimulationConfig(
        n_grid=(100, 400), p=2, beta0=-1.0, beta=(0.5, 1.5), design="iid_normal",
        error_dist=sim.ErrorDistribution("shifted_exponential", 2.0), lam=0.5,
        replications=40, seed=7)
    for name, cfg in studies.items():
        reports = [*sim.rate_study_two_step(cfg), sim.rate_study_r_estimator(cfg),
                   sim.functional_consistency_study(cfg, "cvar", 0.9)]
        out[name] = [r.to_json() for r in reports]
    # The slope study raises at p = 0.
    cfg = sim.SimulationConfig(
        n_grid=(50, 200), p=0, beta0=0.0, beta=(), design="iid_normal",
        error_dist=sim.ErrorDistribution("standard_normal"), replications=30, seed=11)
    out["study p=0 normal"] = [r.to_json() for r in [
        *sim.rate_study_two_step(cfg), sim.functional_consistency_study(cfg, "cvar", 0.9)]]
    return out


def run_tree(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        json.dump(emit(), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (run_tree(src) for src in argv)
    differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in differ:
        print(f"DIFFERS {key}: {old.get(key)} != {new.get(key)}")
    iterations = sum(v["iterations"] for v in new.values()
                     if isinstance(v, dict) and "iterations" in v)
    kinds = {}
    for key in sorted(old.keys() | new.keys()):
        kind = "R-fit" if key.split()[0] in ("fit_large", "monte_carlo", "random", "tied") \
            else key.split()[0]
        kinds.setdefault(kind, [0, 0])[0] += 1
        kinds[kind][1] += key in differ
    print(f"{len(old.keys() | new.keys())} cases, {len(differ)} differ ("
          + ", ".join(f"{kind} {d} of {c}" for kind, (c, d) in kinds.items())
          + f"); {iterations} iterations in the new tree's R-fits")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
