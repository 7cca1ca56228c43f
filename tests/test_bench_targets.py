"""The benchmark's tracer wraps package functions by module and name.

A target the package no longer has is reported as absent and its layer
reads zero, and the benchmark's own self-test then fails; these tests
catch a removal or rename in the package's own suite, and a layer whose
work moves past its traced boundary.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import derivfit.basis
import derivfit.selection
import derivfit.simulation
from derivfit.simulation import ExperimentConfig, run_experiment

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


@pytest.mark.parametrize("mode,family", [("oracle", "hermite"), ("oracle", "half-trig"),
                                         ("gl", "half-trig")])
def test_basis_values_come_through_the_traced_binding(monkeypatch, mode, family):
    """The benchmark times basis evaluation by wrapping the module
    bindings of eval_basis; the sweep and grid scoring must reach every
    basis value through selection's binding, one evaluation per cache and
    one per grid scoring, or the time would land in harness self time."""
    calls = Counter()
    binding = derivfit.selection.eval_basis
    rows = derivfit.basis._eval_rows
    cache_init = derivfit.selection.DesignCache.__init__
    sweep = derivfit.simulation._oracle_error_sweep

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(derivfit.selection, "eval_basis", counted("binding", binding))
    monkeypatch.setattr(derivfit.basis, "_eval_rows", counted("rows", rows))
    monkeypatch.setattr(derivfit.selection.DesignCache, "__init__",
                        counted("caches", cache_init))
    monkeypatch.setattr(derivfit.simulation, "_oracle_error_sweep",
                        counted("sweeps", sweep))
    config = ExperimentConfig(functions=("b1",), families=(family,), n_list=(250,),
                              repetitions=3, mode=mode)
    report = run_experiment(config)
    assert all(row.k == 3 for row in report.rows)
    assert calls["caches"] == calls["sweeps"] == 3
    assert calls["binding"] == calls["caches"] + calls["sweeps"]
    assert calls["rows"] == calls["binding"]
