"""Benchmark of quantfunc, end to end and layer by layer.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli, fit_large, monte_carlo (README.md describes them).
The program is taken from ``src/`` of the checkout; nothing is installed.
This process only drives: it starts at most one child at a time.

--trace 0 prints the end-to-end metrics: ``setup_s``, the median over fresh
interpreters of ``import quantfunc``; ``op_s``, the median wall time of one
operation, run in a fresh worker process for S seconds; and ``peak_rss_mb``,
the peak RSS of the process that ran the operations.

--trace 1 prints the per-layer metrics: import times from ``-X importtime``,
then S/2 seconds of untraced and S/2 seconds of traced operations, whose
spans give each layer's self time per operation.

Every run first times a fixed pure-Python reference loop, so that drift of
the shared machine can be told apart from the program.  The last line of
standard output is the JSON result; the line before it holds the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import COUNT_METRICS, TABLEAU_METRIC, layer_metrics, parse_importtime  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("cli", "fit_large", "monte_carlo")

SETUP_IMPORTS = 8          # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 3        # fresh interpreters under -X importtime in a traced run
REFERENCE_REPEATS = 3
REFERENCE_LOOP_N = 1_000_000
RUN_DEADLINE_S = 170.0     # the whole run ends well within 180 s

IMPORT_PROBE = ("import time; t = time.perf_counter(); import quantfunc; "
                "t = time.perf_counter() - t; print(repr(t)); print(quantfunc.__file__)")
MODULES_PROBE = ("import sys; n = len(sys.modules); import quantfunc; "
                 "print(len(sys.modules) - n); print(quantfunc.__file__)")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run one child in its own process group; kill the group if it outlives ``deadline``."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True,
                            stdin=subprocess.DEVNULL, **kwargs)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited with {proc.returncode}: {err or ''}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def check_origin(path: str) -> None:
    if os.path.dirname(os.path.dirname(os.path.abspath(path))) != SRC:
        raise BenchError(f"quantfunc was imported from {path}, not from {SRC}")


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop that does not touch quantfunc."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP_N):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_samples(deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_IMPORTS):
        out = run_child([sys.executable, "-c", IMPORT_PROBE], deadline,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        seconds, path = out.stdout.split("\n")[:2]
        check_origin(path)
        samples.append(float(seconds))
    return samples


def import_layer(deadline: float) -> dict:
    """Per-layer import metrics: medians over fresh interpreters of -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        out = run_child([sys.executable, "-X", "importtime", "-c", MODULES_PROBE], deadline,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        modules, path = out.stdout.split("\n")[:2]
        check_origin(path)
        runs.append({**parse_importtime(out.stderr), "modules": int(modules)})
    return {
        "import.quantfunc_s": statistics.median(r["quantfunc"] for r in runs),
        "import.scipy_stats_s": statistics.median(r["scipy.stats"] for r in runs),
        "import.scipy_integrate_s": statistics.median(r["scipy.integrate"] for r in runs),
        "import.modules": runs[0]["modules"],
    }


def run_worker(args, seconds: float, trace: int, deadline: float) -> dict:
    result_path = os.path.join(WORK, f"result-{args.workload}-{trace}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", WORK, "--result", result_path]
    run_child(cmd, deadline, stdout=sys.stderr)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def timed_run(args, deadline: float):
    setup = setup_samples(deadline)
    res = run_worker(args, args.seconds, 0, deadline)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_s": {"value": statistics.median(res["op_times_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    detail = {"setup_samples_s": setup, "op_samples_s": res["op_times_s"],
              "op_quartiles_s": quartiles(res["op_times_s"])}
    return metrics, [res], detail


def traced_run(args, deadline: float):
    layers = import_layer(deadline)
    plain = run_worker(args, args.seconds / 2, 0, deadline)
    traced = run_worker(args, args.seconds / 2, 1, deadline)
    per_op = [layer_metrics(op) for op in traced["traced_ops"]]
    exact = {*COUNT_METRICS.values(), TABLEAU_METRIC}
    for name in per_op[0] if per_op else ():   # no spans if every CLI child failed
        values = [op[name] for op in per_op]
        # Counts and sizes repeat in every operation; times are medians.
        layers[name] = values[0] if name in exact else statistics.median(values)
    traced_op = statistics.median(traced["op_times_s"])
    untraced_op = statistics.median(plain["op_times_s"])
    layers["trace.overhead_s"] = traced_op - untraced_op
    units = {name: "count" for name in (*COUNT_METRICS.values(), "import.modules")}
    units[TABLEAU_METRIC] = "MB"
    metrics = {name: {"value": value, "unit": units.get(name, "s")}
               for name, value in layers.items()}
    detail = {"untraced_op_samples_s": plain["op_times_s"],
              "traced_op_samples_s": traced["op_times_s"],
              "layer_share_of_traced_op": {
                  name: layers[name] / traced_op for name in layers
                  if name.endswith("_s") and not name.startswith(("import.", "trace."))}}
    return metrics, [plain, traced], detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "quantfunc", "__init__.py")):
        print(f"error: no quantfunc package under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    reference = reference_loop_s()
    try:
        if args.trace:
            metrics, results, detail = traced_run(args, deadline)
        else:
            metrics, results, detail = timed_run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = sorted({f for r in results for f in r["failures"]})
    for r in results:
        for err in r["errors"]:
            print(err, file=sys.stderr)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reference_loop_s": reference, "failures": failures,
        **{k: v for r in results for k, v in r["extra"].items()},
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
