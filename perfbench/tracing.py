"""Spans and counters recorded from outside the program.

The traced run replaces selected names of the ``quantfunc`` modules with
timing wrappers.  Each wrapper is installed on the name as its *caller*
module binds it: ``quantfunc.cli.fit_r_estimator``,
``quantfunc.two_step.fit_r_estimator`` and ``quantfunc.ranks.fit_r_estimator``
are three bindings of one function, and a call goes through exactly one of
them, so no call is counted twice.

A wrapper records a span (layer, start, end, parent) in memory and counts the
call.  A layer's self time is its span's duration minus the time its child
spans cover.  Some names are only counted (``functionals.quad``): their time
stays in the layer that calls them.  Nothing here imports ``quantfunc`` at
module level, so the untimed processes stay free of it.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, layer, kind).  kind "span" times the call; "count"
# only counts it; "tableau" also records the simplex tableau size.
BINDINGS = (
    ("quantfunc.cli", "run_fit", "cli.run_fit", "span"),
    ("quantfunc.cli", "read_csv_dataset", "cli.read_csv_dataset", "span"),
    ("quantfunc.cli", "Dataset", "model.Dataset", "span"),
    ("quantfunc.cli", "design_diagnostics", "model.design_diagnostics", "span"),
    ("quantfunc.cli", "fit_r_estimator", "ranks.fit_r_estimator", "span"),
    ("quantfunc.cli", "averaged_two_step_process", "two_step.averaged_two_step_process", "span"),
    ("quantfunc.cli", "two_step_quantile", "two_step.two_step_quantile", "span"),
    ("quantfunc.model", "Dataset", "model.Dataset", "span"),
    ("quantfunc.ranks", "design_diagnostics", "model.design_diagnostics", "span"),
    ("quantfunc.ranks", "jaeckel_dispersion", "ranks.jaeckel_dispersion", "span"),
    ("quantfunc.ranks", "fit_r_estimator", "ranks.fit_r_estimator", "span"),
    ("quantfunc.two_step", "fit_r_estimator", "ranks.fit_r_estimator", "span"),
    ("quantfunc.two_step", "averaged_two_step_process", "two_step.averaged_two_step_process", "span"),
    ("quantfunc.two_step", "two_step_quantile", "two_step.two_step_quantile", "span"),
    ("quantfunc.functionals", "linear_functional", "functionals.linear_functional", "span"),
    ("quantfunc.functionals", "quad", "functionals.quad", "count"),
    ("quantfunc.functionals", "cvar", "functionals.tail", "span"),
    ("quantfunc.functionals", "mean_excess", "functionals.tail", "span"),
    ("quantfunc.functionals", "staudte_r", "functionals.tail", "span"),
    ("quantfunc.regression", "fit_regression_quantile", "regression.fit_regression_quantile", "span"),
    ("quantfunc.regression", "solve_simplex", "simplex.solve_simplex", "tableau"),
    ("quantfunc.simulation", "generate", "simulation.generate", "span"),
    ("quantfunc.simulation", "Dataset", "model.Dataset", "span"),
    ("quantfunc.simulation", "averaged_two_step_process", "two_step.averaged_two_step_process", "span"),
    ("quantfunc.simulation", "ErrorDistribution.true_functional", "simulation.true_functional", "span"),
)

# Layer -> per-layer metric holding its self time per operation.
SELF_TIME_METRICS = {
    "cli.read_csv_dataset": "cli.read_csv_dataset_s",
    "cli.run_fit": "cli.run_fit_self_s",
    "model.Dataset": "model.Dataset_s",
    "model.design_diagnostics": "model.design_diagnostics_s",
    "ranks.fit_r_estimator": "ranks.fit_r_estimator_s",
    "ranks.jaeckel_dispersion": "ranks.jaeckel_dispersion_s",
    "two_step.averaged_two_step_process": "two_step.averaged_two_step_process_s",
    "two_step.two_step_quantile": "two_step.two_step_quantile_s",
    "functionals.linear_functional": "functionals.linear_functional_s",
    "functionals.tail": "functionals.tail_s",
    "regression.fit_regression_quantile": "regression.fit_regression_quantile_s",
    "simplex.solve_simplex": "simplex.solve_simplex_s",
    "simulation.generate": "simulation.generate_s",
    "simulation.true_functional": "simulation.true_functional_s",
}

# Layer -> per-layer metric holding its call count per operation.
COUNT_METRICS = {
    "model.design_diagnostics": "model.design_diagnostics_calls",
    "ranks.fit_r_estimator": "ranks.fit_r_estimator_calls",
    "ranks.jaeckel_dispersion": "ranks.dispersion_evals",
    "two_step.two_step_quantile": "two_step.two_step_quantile_calls",
    "functionals.quad": "functionals.quad_calls",
    "simulation.generate": "simulation.generate_calls",
}

TABLEAU_METRIC = "simplex.tableau_mb"


class Tracer:
    """In-memory span recorder for one process, one operation at a time.

    Calls made outside an operation (input set-up, output checks) pass
    through unrecorded.
    """

    def __init__(self):
        self.spans: list[list] = []   # [op, layer, start, end, parent index]
        self.calls: list[Counter] = []
        self.tableau_bytes: list[int] = []
        self._stack: list[int] = []
        self._op = -1
        self._in_op = False

    def begin_op(self) -> None:
        self._op += 1
        self._in_op = True
        self.calls.append(Counter())
        self.tableau_bytes.append(0)

    def end_op(self) -> None:
        self._in_op = False
        if self._stack:
            raise RuntimeError("operation ended inside a traced call")

    def span(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._in_op:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [self._op, layer, perf_counter(), 0.0, parent]
            self.spans.append(record)
            self.calls[self._op][layer] += 1
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self._stack.pop()
        return traced

    def count(self, layer: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_op:
                self.calls[self._op][layer] += 1
            return fn(*args, **kwargs)
        return counted

    def record_tableau(self, fn):
        """Wrap ``solve_simplex(c, a, b, basis)``: its tableau is m x (vars + 1) doubles."""
        @functools.wraps(fn)
        def observed(c, a, *args, **kwargs):
            if self._in_op:
                m, nvars = a.shape
                op = self._op
                self.tableau_bytes[op] = max(self.tableau_bytes[op], m * (nvars + 1) * 8)
            return fn(c, a, *args, **kwargs)
        return observed

    def per_op(self) -> list[dict]:
        """Self time, call counts and computed tableau size of each operation."""
        durations = [s[3] - s[2] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for s, d in zip(self.spans, durations):
            if s[4] >= 0:
                covered[s[4]] += d
        self_s = [defaultdict(float) for _ in self.calls]
        for s, d, c in zip(self.spans, durations, covered):
            self_s[s[0]][s[1]] += d - c
        return [{"self_s": dict(self_s[i]), "calls": dict(self.calls[i]),
                 "tableau_bytes": self.tableau_bytes[i]}
                for i in range(len(self.calls))]

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, then one line of per-op aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"per_op": self.per_op()}) + "\n")


def install(tracer: Tracer) -> None:
    """Replace every name in :data:`BINDINGS` with a wrapper that reports to ``tracer``."""
    for module_name, path, layer, kind in BINDINGS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        fn = getattr(owner, attr)
        if kind == "count":
            wrapped = tracer.count(layer, fn)
        elif kind == "tableau":
            wrapped = tracer.span(layer, tracer.record_tableau(fn))
        else:
            wrapped = tracer.span(layer, fn)
        setattr(owner, attr, wrapped)


def layer_metrics(op: dict) -> dict:
    """Per-layer metrics of one operation's aggregates, every metric present."""
    out = {metric: op["self_s"].get(layer, 0.0) for layer, metric in SELF_TIME_METRICS.items()}
    out.update({metric: op["calls"].get(layer, 0) for layer, metric in COUNT_METRICS.items()})
    out[TABLEAU_METRIC] = op["tableau_bytes"] / 1e6
    return out


_IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of the imports of ``quantfunc``, ``scipy.stats`` and
    ``scipy.integrate`` from ``python -X importtime`` output (0 when absent)."""
    found = {"quantfunc": 0.0, "scipy.stats": 0.0, "scipy.integrate": 0.0}
    for line in stderr.splitlines():
        m = _IMPORTTIME_LINE.match(line)
        if m and m.group(4) in found:
            found[m.group(4)] = int(m.group(2)) / 1e6
    return found
