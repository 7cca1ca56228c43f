"""Span tracing of derivfit's layer boundaries, installed from outside.

The tracer wraps public functions of the package for the length of a
traced run and restores them afterwards; nothing under ``src/`` knows
about it.  A wrapper is installed on every module that binds the
function, under whatever name, because ``from .basis import eval_basis``
leaves a separate binding in each importing module.  A target the
package no longer has is reported as absent.

Each call through a wrapper records a span ``[name, start, end, parent,
op]``: the parent is the index of the enclosing span (-1 for a root) and
``op`` the operation (repetition or call) it ran in.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its children, so the self times of all spans plus the time
no span covers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Timed boundaries: (metric, module, attribute).  Every metric is the
# self time of the boundary's spans.
SPANS = (
    ("basis.eval_s", "derivfit.basis", "eval_basis"),
    ("basis.deriv_eval_s", "derivfit.basis", "eval_basis_derivative"),
    ("basis.l_factor_s", "derivfit.basis", "l_factor"),
    ("design.gram_s", "derivfit.design", "design_from_matrices"),
    # design_from_matrices calls it as scipy.linalg.eigh
    ("design.eigh_s", "scipy.linalg", "eigh"),
    ("design.stability_s", "derivfit.design", "stability_check"),
    ("design.d_constant_s", "derivfit.design", "default_d_constant"),
    ("selection.collection_s", "derivfit.selection", "collection_members"),
    ("selection.sigma2_s", "derivfit.selection", "estimate_sigma2"),
    ("selection.penalty_s", "derivfit.selection", "penalty_v_hat"),
    ("selection.gl_self_s", "derivfit.selection", "gl_select"),
    ("selection.reuse_self_s", "derivfit.selection", "reuse_select"),
    ("selection.grid_score_s", "derivfit.selection", "_oracle_error_sweep"),
    ("estimators.eval_fit_s", "derivfit.estimators", "evaluate_fit"),
    ("dataio.load_s", "derivfit.dataio", "load_csv"),
    ("dataio.write_s", "derivfit.dataio", "emit_curve"),
    ("cli.self_s", "derivfit.cli", "main"),
    ("simulation.sample_s", "derivfit.simulation", "generate_sample"),
    ("simulation.harness_self_s", "derivfit.simulation", "run_experiment"),
)

# Counts of calls through a timed boundary: count metric -> span metric.
SPAN_COUNTS = {
    "design.gram_builds": "design.gram_s",
    "design.eigh_calls": "design.eigh_s",
    "design.stability_checks": "design.stability_s",
    "selection.sigma2_calls": "selection.sigma2_s",
    "selection.penalty_calls": "selection.penalty_s",
}

# Counted but not timed: (metric, module, class.method).
CALL_COUNTS = (
    ("selection.cache_builds", "derivfit.selection", "DesignCache.__init__"),
)

# Counts read from what a boundary returns.
RESULT_COUNTS = ("basis.values_evaluated", "selection.members",
                 "selection.pairs_compared")

COUNT_METRICS = tuple(SPAN_COUNTS) + tuple(m for m, _, _ in CALL_COUNTS) + RESULT_COUNTS


def _count_values(tracer: "Tracer", result) -> None:
    tracer.counts["basis.values_evaluated"] += int(getattr(result, "size", 0))


def _count_members(tracer: "Tracer", result) -> None:
    trace = result[0]
    members = trace.members
    tracer.counts["selection.members"] += len(members)
    tracer.counts["selection.pairs_compared"] += len(members) * (len(members) - 1) // 2
    if trace.m_hat not in members:
        tracer.problems.append(f"op {tracer.op}: gl m_hat {trace.m_hat} "
                               f"not in members {members}")


RESULT_HOOKS = {
    "basis.eval_s": _count_values,
    "basis.deriv_eval_s": _count_values,
    "selection.gl_self_s": _count_members,
}


def _import(modname: str):
    try:
        return importlib.import_module(modname)
    except ImportError:
        return None


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "derivfit" or name.startswith("derivfit."))]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self.op = None
        self.bindings: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value, where: list[str], label: str) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
        where.append(label)

    def _install_function(self, metric: str, modname: str, attr: str) -> None:
        home = _import(modname)
        original = getattr(home, attr, None)
        if original is None:
            self.absent.append(f"{modname}.{attr}")
            return
        wrapper = self._timed(metric, original, RESULT_HOOKS.get(metric))
        where: list[str] = []
        self._set(home, attr, wrapper, where, f"{modname}.{attr}")
        for mod in _package_modules():
            if mod is home:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper, where, f"{mod.__name__}.{name}")
        self.bindings[metric] = where

    def _install_method(self, metric: str, modname: str, target: str) -> None:
        cls_name, method = target.split(".")
        cls = getattr(_import(modname), cls_name, None)
        original = None if cls is None else cls.__dict__.get(method)
        if original is None:
            self.absent.append(f"{modname}.{target}")
            return
        where: list[str] = []
        self._set(cls, method, self._counted(metric, original), where,
                  f"{modname}.{target}")
        self.bindings[metric] = where

    def install(self) -> None:
        self.bindings, self.absent = {}, []
        for metric, modname, attr in SPANS:
            self._install_function(metric, modname, attr)
        for metric, modname, target in CALL_COUNTS:
            self._install_method(metric, modname, target)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter, float, list[str]]:
        """Self time and calls per span name, the time covered by root
        spans, and nesting violations (a child outside its parent)."""
        child_time = [0.0] * len(self.spans)
        problems = []
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                child_time[parent] += end - start
                if start < p[1] or end > p[2]:
                    problems.append(f"span {name} lies outside its parent {p[0]}")
        self_time: Counter = Counter()
        calls: Counter = Counter()
        root_time = 0.0
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
            calls[name] += 1
            if parent < 0:
                root_time += end - start
        return self_time, calls, root_time, problems

    def all_counts(self) -> dict[str, int]:
        _, calls, _, _ = self.layer_totals()
        counts = {m: calls[span] for m, span in SPAN_COUNTS.items()}
        counts.update({m: self.counts[m] for m, _, _ in CALL_COUNTS})
        counts.update({m: self.counts[m] for m in RESULT_COUNTS})
        return counts

    def boundaries(self) -> dict:
        """Which boundaries were installed, called on this run, or absent."""
        _, calls, _, _ = self.layer_totals()
        called = {m for m, _, _ in SPANS if calls[m]}
        called |= {m for m, _, _ in CALL_COUNTS if self.counts[m]}
        return {"intercepted": sorted(called),
                "installed_not_called": sorted(set(self.bindings) - called),
                "absent": sorted(self.absent),
                "bindings": self.bindings}

    def write(self, path, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(start - t0, 9), round(end - t0, 9), parent, op]
                for name, start, end, parent, op in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows}, fh)
