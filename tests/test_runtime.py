"""The runtime needs numpy alone, and perfbench's trace bindings stay resolvable."""

import importlib
import importlib.util
import os
import subprocess
import sys

import quantfunc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(quantfunc.__file__)))


def test_import_loads_no_scipy():
    code = ("import sys; import quantfunc, quantfunc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_trace_binding_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, path, _, _ in tracing.BINDINGS:
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name)
        assert callable(owner), f"{module_name}.{path}"
