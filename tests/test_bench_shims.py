"""The traced benchmark's timing shims still bind to the library.

`bench/tracing.py` wraps library functions and methods by name, so a
refactor that drops or renames one of them would only show up as a crash
of a `--trace 1` run.  This loads that file as it is and installs and
removes its shims.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
TRACING = os.path.join(os.path.dirname(HERE), "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_binds_and_unbinds():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
