"""The benchmark's tracer wraps package functions by module and name.

A target the package no longer has is reported as absent and its layer
reads zero, and the benchmark's own self-test then fails; these tests
catch a removal or rename in the package's own suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_timed_boundary_resolves():
    missing = [f"{modname}.{attr}" for _, modname, attr in tracing.SPANS
               if getattr(importlib.import_module(modname), attr, None) is None]
    assert missing == []


def test_every_counted_method_resolves():
    missing = []
    for _, modname, target in tracing.CALL_COUNTS:
        cls_name, method = target.split(".")
        cls = getattr(importlib.import_module(modname), cls_name, None)
        if cls is None or cls.__dict__.get(method) is None:
            missing.append(f"{modname}.{target}")
    assert missing == []
