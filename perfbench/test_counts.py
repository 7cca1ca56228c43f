"""Tests of the benchmark itself: counts repeat, metrics match BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench/test_counts.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _traced_once(name: str, tmp_path: Path):
    workload = workloads.make(name, workloads.DEFAULT_SEED, tmp_path)
    try:
        metrics, attempted, failed, problems, record = run.traced_run(
            workload, workloads.DEFAULT_SEED, None, rounds=1, trace_path=None)
    finally:
        workload.close()
    assert problems == [] and failed == 0 and attempted == 2 * record["counts"]["ops"]
    return metrics, record["counts"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    metrics, first = _traced_once(name, tmp_path)
    _, second = _traced_once(name, tmp_path)
    assert first == second
    assert set(first) == {"ops", *tracing.COUNT_METRICS}
    assert first["design.gram_builds"] == first["design.eigh_calls"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {m: unit for m, (_, unit) in metrics.items()} == declared


def test_self_times_add_up_to_wall_time(tmp_path):
    metrics, _ = _traced_once("gl-table", tmp_path)
    self_times = sum(metrics[m][0] for m, _, _ in tracing.SPANS)
    total = self_times + metrics["trace.unattributed_s"][0]
    assert total == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    assert 0 <= metrics["trace.unattributed_s"][0] < 0.01 * metrics["trace.wall_s"][0]


def test_absent_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "CALL_COUNTS",
                        (("selection.cache_builds", "derivfit.selection", "NoSuchCache.__init__"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["derivfit.selection.NoSuchCache.__init__"]


def test_end_to_end_metrics_match_benchmark_json(tmp_path):
    workload = workloads.make("oracle-table", workloads.DEFAULT_SEED, tmp_path)
    metrics, attempted, failed, problems = run.timed_run(workload, 0.0, None)
    assert problems == [] and failed == 0 and attempted >= run.MIN_OPS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {m: unit for m, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())
