"""Worker process: runs one workload's operations for a time and checks them.

Usage: python worker.py --workload NAME --seed N --seconds S --trace 0|1
                        --workdir DIR --result PATH

Started by run.py in a fresh interpreter, so that its peak RSS and import
state are its own.  Operations run one at a time until S seconds have passed
(at least one).  Peak RSS is read after the last operation and before the
checks, which import ``scipy.optimize``.  The result is written to PATH as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402
from workloads import KNOWN_FAULTS, WORKLOADS  # noqa: E402


def run_ops(workload, seconds: float, tracer=None) -> dict:
    """Run operations one at a time for ``seconds`` (at least one), then check them.

    An operation that raises counts as failed; its wall time is kept, so that
    a run whose every operation raises still reports ``op_s``.
    """
    times, outputs, raised = [], [], []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            elapsed, output = workload.run_op()
        except Exception:  # keep going: the remaining operations still count
            elapsed, output = perf_counter() - t0, None
            raised.append(traceback.format_exc(limit=3))
        finally:
            if tracer is not None:
                tracer.end_op()
        times.append(elapsed)
        outputs.append(output)
    peak_rss_mb = workload.peak_rss_mb()

    ok = [o for o in outputs if o is not None]
    verdicts = iter(workload.check(ok) if ok else [])
    failures = [next(verdicts) if o is not None else ["raised: see errors"] for o in outputs]
    unexpected = any(f.split(":", 1)[0] not in KNOWN_FAULTS for fs in failures for f in fs)
    return {
        "op_times_s": times,
        "attempted": len(outputs),
        "failed": sum(1 for fs in failures if fs),
        "correct": not unexpected,
        "failures": sorted({f for fs in failures for f in fs}),
        "errors": raised,
        "peak_rss_mb": peak_rss_mb,
        "extra": workload.extra(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.workdir, tracer)
    workload.prepare()
    if tracer is not None and workload.in_process:
        install(tracer)

    result = run_ops(workload, args.seconds, tracer)
    if tracer is not None:
        result["traced_ops"] = workload.traced_ops()
        if workload.in_process:
            tracer.dump(os.path.join(args.workdir, f"spans-{args.workload}.jsonl"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
