"""Compare the numbers two source trees of quantfunc return, bit for bit.

Usage: python scripts/compare_fits.py OLD_SRC NEW_SRC

Runs one fixed set of fits under each tree, each in a fresh interpreter
with PYTHONPATH set to the tree, and compares the results as float hex
strings:

- R-estimator slopes, dispersions and iteration counts at n = 2e4 for
  p = 1, 2, 5 (the ``fit_large`` datasets), on the Monte Carlo designs at
  n = 100, 400, 1600, on small random and tied datasets, and past the
  preprocessing threshold on tied integer data at n = 2000, p = 3, on
  1e5 continuous rows at p = 3 and on 1e6 rows at p = 3 (x uniform on the
  unit cube, y = 1 + x'(1, 2, 3) + N(0, 1), from ``default_rng(1)``);
- dispersions at fixed slopes, tied residuals included;
- two-step intercepts on a grid of levels, at the true slopes;
- the averaged two-step process and its centred form on the ``fit_large``
  datasets at the true slopes, and at p = 0 on a response that holds
  -0.0, +0.0 and ties, with that response's two-step intercepts;
- the simplex vertex and the regression-quantile coefficients at n = 400,
  p = 2, and on tied data;
- at the edge levels, on one n = 100, p = 2 dataset: R-fits at lambda =
  1e-16, 1e-200 and 1 - 1e-16, and regression quantiles at alpha = 1e-12
  and 1 - 1e-16;
- the ``to_json()`` text of the three simulation studies on the
  configuration of perfbench's ``monte_carlo`` workload at seeds 0-2, on
  ``MC_CONFIG`` of the acceptance criteria 6-8, on a p = 3
  ``iid_uniform_cube`` design at lambda = 0.37 and on a p = 2
  ``iid_normal`` design with ``shifted_exponential`` errors; and the
  two-step rate and CVaR consistency studies of a p = 0 ``iid_normal``
  design.

A fit that raises a ``QuantfuncError`` is recorded as its text.  Prints
one line per differing case and a summary that counts the differing cases
of each kind, and among them the R-fits that differ in their iteration
counts only; exits 1 on any difference.  A differing regression quantile
also says whether the simplex's own vertex is unchanged and whether the new
objective is at most the old one.  A differing R-fit, and each replicate
whose slopes differ in a differing study, also gets the exact ``Fraction``
dispersions of the old and the new slopes on the same data, computed under
NEW_SRC, when the slopes moved.  At a non-unique optimum a change to the
interior point's arithmetic may pick another vertex of the same check loss,
to within the rounding of the slopes, and so move a study report without a
fault: ``MC_CONFIG`` at n = 100, replicate 100, is one such case.  Takes
about 20 seconds, and about 10 more when an R-fit or a study differs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

REPLICATE_SLOPES = "replicate slopes"  # emit's key for the studies' slopes, not a case


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _exact_dispersion(ds, lam: float, slopes: list) -> Fraction:
    """``sum rho_lam(r_i - r_(k+1))``, k = floor(n lam), of ``r = y - X b`` at
    the slopes b (float hex strings), in exact rational arithmetic."""
    b = [Fraction(float.fromhex(v)) for v in slopes]
    r = sorted(Fraction(float(yi)) - sum((Fraction(float(v)) * bj for v, bj in zip(xi, b)),
                                         Fraction(0))
               for yi, xi in zip(ds.y, ds.x))
    t, lam = r[int(len(r) * lam)], Fraction(lam)
    return sum((lam * (v - t) if v >= t else (lam - 1) * (v - t) for v in r), Fraction(0))


def emit(losses: dict | None = None) -> dict:
    """The cases, by name.  With ``losses``, which maps an R-fit's name, or
    ``"<study> n=<n> rep=<rep>"``, to slope vectors, returns instead the
    exact dispersion of each vector on that case's data, as a fraction
    string."""
    import quantfunc as qf
    import quantfunc.regression as regression

    out, exact = {}, {}

    def r_fit(name, ds, lam):
        if losses is not None and name in losses:
            exact[name] = [str(_exact_dispersion(ds, lam, b)) for b in losses[name]]
        try:
            est = qf.fit_r_estimator(ds, lam)
        except qf.QuantfuncError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
            return
        out[name] = {"slopes": _hex(est.beta_tilde), "dispersion": _hex([est.dispersion]),
                     "iterations": est.iterations}

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
        r_fit(f"tied s={s}", tied, lam)
        for t, b in enumerate(rng.choice([-1.0, 0.0, 0.5, 1.0], size=(4, p))):
            out[f"dispersion s={s} b={t}"] = _hex([qf.jaeckel_dispersion(b, tied, lam)])
    rng = np.random.default_rng(8)
    r_fit("tied n=2000 p=3", qf.Dataset(y=rng.integers(0, 5, 2000).astype(float),
                                        x=rng.integers(0, 4, (2000, 3)).astype(float)), 0.5)
    x = rng.uniform(0.0, 1.0, (100_000, 3))
    r_fit("large n=1e5 p=3", qf.Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(100_000),
                                        x=x), 0.5)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, (1_000_000, 3))
    r_fit("large n=1e6 p=3", qf.Dataset(y=1.0 + x @ np.arange(1.0, 4.0)
                                        + rng.standard_normal(1_000_000), x=x), 0.5)

    vertices = []
    solve = regression.solve_simplex

    def recording(c, a, b, basis):
        x, red = solve(c, a, b, basis)
        vertices.append(x.copy())
        return x, red

    def lp_fit(name, ds, alpha):
        try:
            fit = qf.fit_regression_quantile(ds, alpha)
        except qf.QuantfuncError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
            return
        out[name] = {"vertex": _hex(vertices[-1]), "coef": _hex([fit.beta0_hat, *fit.beta_hat]),
                     "objective": _hex([fit.objective]), "n_active": fit.n_active}

    regression.solve_simplex = recording
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(400, 2))
    lp_sets = {"lp n=400": qf.Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(400), x=x)}
    x = rng.integers(0, 3, size=(60, 2)).astype(float)
    lp_sets["lp tied"] = qf.Dataset(y=rng.integers(0, 4, size=60).astype(float), x=x)
    for name, ds in lp_sets.items():
        for a in (0.25, 0.5, 0.75):
            lp_fit(f"{name} alpha={a}", ds, a)
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(100, 2))
    edge = qf.Dataset(y=1.0 + x.sum(axis=1) + rng.standard_normal(100), x=x)
    for lam in (1e-16, 1e-200, 1.0 - 1e-16):
        r_fit(f"edge R-fit lambda={lam!r}", edge, lam)
    for a in (1e-12, 1.0 - 1e-16):
        lp_fit(f"edge lp alpha={a!r}", edge, a)

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
    # Each replicate's slopes, in the order rate_study_r_estimator fits them.
    fitted, fit_slopes, by_replicate = [], sim._fit_slopes, {}

    def recording(y, x, lam):
        for b, iterations in fit_slopes(y, x, lam):
            fitted.append(_hex(b))
            yield b, iterations

    sim._fit_slopes = recording
    for name, cfg in studies.items():
        reports = sim.rate_study_two_step(cfg)
        fitted.clear()
        reports += [sim.rate_study_r_estimator(cfg),
                    sim.functional_consistency_study(cfg, "cvar", 0.9)]
        out[name] = [r.to_json() for r in reports]
        replicates = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replications)]
        by_replicate[name] = dict(zip((f"n={n} rep={rep}" for n, rep in replicates), fitted))
        for n, rep in replicates:
            key = f"{name} n={n} rep={rep}"
            if losses is not None and key in losses:
                ds = sim.generate(cfg, n, rep)[0]
                exact[key] = [str(_exact_dispersion(ds, cfg.lam, b)) for b in losses[key]]
    # The slope study raises at p = 0.
    cfg = sim.SimulationConfig(
        n_grid=(50, 200), p=0, beta0=0.0, beta=(), design="iid_normal",
        error_dist=sim.ErrorDistribution("standard_normal"), replications=30, seed=11)
    out["study p=0 normal"] = [r.to_json() for r in [
        *sim.rate_study_two_step(cfg), sim.functional_consistency_study(cfg, "cvar", 0.9)]]
    out[REPLICATE_SLOPES] = by_replicate
    return out if losses is None else exact


def run_tree(src: str, losses: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--emit"],
                          env=env, capture_output=True, text=True, check=False,
                          input=json.dumps(losses))
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _moved_slopes(old: dict, new: dict, differ: list, slopes: list) -> dict:
    """The old and new slopes of each differing R-fit, and of each replicate
    whose slopes differ in a differing study, by the name ``emit`` takes;
    ``slopes`` holds the two trees' slopes by study and replicate."""
    moved = {}
    for key in differ:
        pair = [v.get(key) for v in (old, new)]
        if all(isinstance(v, dict) and "slopes" in v for v in pair) \
                and pair[0]["slopes"] != pair[1]["slopes"]:
            moved[key] = [v["slopes"] for v in pair]
        before, after = (v.get(key, {}) for v in slopes)
        moved.update({f"{key} {rep}": [before[rep], after[rep]]
                      for rep in before.keys() & after.keys() if before[rep] != after[rep]})
    return moved


def _iterations_only(before, after) -> bool:
    """Whether two R-fit records differ in their iteration counts alone."""
    return (all(isinstance(v, dict) and "iterations" in v for v in (before, after))
            and {k: v for k, v in before.items() if k != "iterations"}
            == {k: v for k, v in after.items() if k != "iterations"})


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        json.dump(emit(json.load(sys.stdin)), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (run_tree(src) for src in argv)
    slopes = [v.pop(REPLICATE_SLOPES) for v in (old, new)]
    differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    moved = _moved_slopes(old, new, differ, slopes)
    exact = run_tree(argv[1], moved) if moved else {}
    iterations_only = [key for key in differ if _iterations_only(old.get(key), new.get(key))]
    for key in differ:
        print(f"DIFFERS {key}: {old.get(key)} != {new.get(key)}"
              + (" (iterations only)" if key in iterations_only else ""))
        if all(isinstance(v.get(key), dict) and "vertex" in v[key] for v in (old, new)):
            before, after = (float.fromhex(v[key]["objective"][0]) for v in (old, new))
            print(f"  vertex unchanged: {old[key]['vertex'] == new[key]['vertex']}; "
                  f"objective {before!r} -> {after!r}, not higher: {after <= before}")
        if key.startswith("study ") and not any(k.startswith(f"{key} n=") for k in moved):
            print("  no replicate's slopes moved")
        for name in sorted(k for k in moved if k == key or k.startswith(f"{key} n=")):
            before, after = (Fraction(v) for v in exact[name])
            change = f"{float((after - before) / before):.1e}" if before else "undefined"
            print(f"  {name[len(key):].strip() or 'slopes'} {moved[name][0]} -> {moved[name][1]}: "
                  f"exact dispersion {float(before)!r} -> {float(after)!r}, equal: "
                  f"{before == after}, relative change {change}, not higher: {after <= before}")
    iterations = sum(v["iterations"] for v in new.values()
                     if isinstance(v, dict) and "iterations" in v)
    kinds = {}
    for key in sorted(old.keys() | new.keys()):
        kind = "R-fit" if key.split()[0] in ("fit_large", "monte_carlo", "random", "tied",
                                             "large") else key.split()[0]
        counts = kinds.setdefault(kind, [0, 0, 0])
        counts[0] += 1
        counts[1] += key in differ
        counts[2] += key in iterations_only
    print(f"{len(old.keys() | new.keys())} cases, {len(differ)} differ ("
          + ", ".join(f"{kind} {d} of {c}" + (f", {i} in iterations only" if i else "")
                      for kind, (c, d, i) in kinds.items())
          + f"); {iterations} iterations in the new tree's R-fits")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
