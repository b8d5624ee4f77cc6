"""Run one ``quantfunc`` CLI call with the timing wrappers installed.

Usage: python cli_child.py SPANS_PATH CLI_ARG...

Behaves like the ``quantfunc`` console script on CLI_ARG, then writes the
call's spans and per-operation aggregates to SPANS_PATH as JSON lines.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import quantfunc.cli  # noqa: E402

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    tracer.begin_op()
    try:
        code = quantfunc.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
