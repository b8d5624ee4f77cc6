"""Time ``quantfunc --command fit`` at scale and read the CLI's own peak memory.

Usage: python scripts/cli_scale.py [--scale S] [--repeats R] [--src SRC ...]

Writes three CSVs into a temporary directory: 2e5 rows with p = 0 (the shape
of perfbench's ``cli`` input), 1e6 rows with p = 3, and the 2e5-row p = 0
values again with an unused ``city`` column of ``New York``, whose blank
sends each used cell through the strict per-cell parse.  Each row count is
multiplied by S (default 1).  Fits each at three levels, R times (default
1), with the ``src/`` tree next to this script or with each SRC in turn.

Each fit runs as the child of a small parent: a fresh interpreter that loads
neither numpy nor quantfunc.  On Linux an exec'd child inherits the peak RSS
of the process that started it, so the small parent's ``RUSAGE_CHILDREN``
peak is the CLI's own, which a child of a large process would hide.

Prints one JSON line per fit: the case, the tree, the exit code, the wall
time the small parent saw, the child's peak RSS in MiB and the SHA-256 of the
report.  Exits 1 when a fit fails, or when a tree's report on the text-column
CSV differs from its report on the same values without that column.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = ((200_000, 0, False), (1_000_000, 3, False), (200_000, 0, True))
ROWS_PER_WRITE = 100_000
ALPHAS = "0.25,0.5,0.75"
CLI_ENTRY = "import sys; from quantfunc.cli import main; sys.exit(main())"
SMALL_PARENT = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.run(sys.argv[1:], stdin=subprocess.DEVNULL).returncode
wall = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"exit": code, "wall_s": round(wall, 3), "child_peak_mib": round(peak, 1)}))
"""


def write_csv(path: str, rows: int, p: int, city: bool) -> None:
    """y = 1 + x'(1, ..., p) + N(0, 1) errors, x uniform on the unit cube,
    drawn from a seed of ``rows`` and ``p``; with ``city``, each row ends in
    an unused ``New York`` cell."""
    rng = np.random.default_rng([rows, p])
    beta = np.arange(1.0, p + 1.0)
    header = ["y", *(f"x{j}" for j in range(1, p + 1))] + (["city"] if city else [])
    end = ",New York\n" if city else "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, ROWS_PER_WRITE):
            x = rng.uniform(0.0, 1.0, (min(ROWS_PER_WRITE, rows - start), p))
            y = 1.0 + x @ beta + rng.standard_normal(len(x))
            fh.write("".join(",".join(map(repr, row)) + end for row in np.c_[y, x].tolist()))


def fit(src: str, csv: str, p: int, report: str) -> dict:
    cli = [sys.executable, "-c", CLI_ENTRY, "--command", "fit", "--input", csv,
           "--response", "y", "--covariates", ",".join(f"x{j}" for j in range(1, p + 1)),
           "--alpha", ALPHAS, "--output", report]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", SMALL_PARENT, *cli], env=env,
                          capture_output=True, text=True, check=True)
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout)
    if out["exit"] == 0:
        with open(report, "rb") as fh:
            out["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        os.remove(report)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0, help="row count multiplier")
    parser.add_argument("--repeats", type=int, default=1, help="fits per case and tree")
    parser.add_argument("--src", action="append", help="a quantfunc source tree")
    args = parser.parse_args(argv)
    trees = args.src or [os.path.join(os.path.dirname(HERE), "src")]
    failed, digests = False, {}
    with tempfile.TemporaryDirectory() as tmp:
        for rows, p, city in CASES:
            rows = max(int(rows * args.scale), 2 * (p + 1))
            csv = os.path.join(tmp, f"n{rows}_p{p}{'_city' if city else ''}.csv")
            write_csv(csv, rows, p, city)
            for run in range(args.repeats):
                for src in trees:
                    out = fit(src, csv, p, os.path.join(tmp, "report.json"))
                    digest = digests.setdefault((rows, p, src), out.get("report_sha256"))
                    failed |= out["exit"] != 0 or out.get("report_sha256") != digest
                    print(json.dumps({"rows": rows, "p": p, "city": city, "src": src,
                                      "run": run, **out}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
