"""The benchmark's tracer wraps package attributes by name.

``bench/tracing.py`` looks each wrapped name up in its owner's
``__dict__``; a refactor that moves or drops one would break only the
traced benchmark pass.  These tests load the tracer read-only and fail
first instead.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(wrapped):
    return [owner.__dict__.get(attr) for owner, attr, _, _ in wrapped]


def test_every_wrapped_attribute_exists():
    tracing = load_tracing()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.WRAPPED
               if attr not in owner.__dict__]
    assert missing == []


def test_install_then_uninstall_restores_originals():
    tracing = load_tracing()
    before = current(tracing.WRAPPED)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = current(tracing.WRAPPED)
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    after = current(tracing.WRAPPED)
    assert all(a is b for a, b in zip(before, after))
