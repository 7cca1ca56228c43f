#!/usr/bin/env python3
"""Benchmark of derivfit: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gl-table --seed 20250 --seconds 30 --trace 0

``--trace 0`` measures the workload untraced for ``--seconds`` seconds of
operation time (and at least MIN_OPS operations, so that the 90th
percentile has ten samples beyond it) and reports the end-to-end metrics,
with times rescaled to a reference machine speed (see Calibration); the
times as measured are printed on the line before the result.
``--trace 1`` runs a fixed number of rounds, each once untraced and once
traced, and reports per-layer self times and counts per operation (a
repetition or a call).  Both modes check the outputs.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and breakdowns.  See README.md in this directory for the
workloads and for which layer metric should move which end-to-end metric.
"""

import os

# One BLAS thread, set before numpy loads: the closed loop has one caller,
# and its small matrices gain nothing from a second thread on a small host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

MIN_OPS = 100
# The measuring loop stops here even if MIN_OPS is not reached, so that a
# run ends well within three minutes.
MAX_MEASURE_S = 120.0
SETUP_REPEATS = 3
# Rounds of the traced run; fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"oracle-table": 8, "gl-table": 2, "select-large": 4}
# Relative tolerance of the check that self times add up to the wall time.
SUM_RTOL = 1e-6
# The calibration loop's time at the reference machine speed; see Calibration.
CAL_REFERENCE_S = 0.0125
# Operation time between two calibrations.
CAL_EVERY_S = 0.2

# Fresh-process set-up: interpreter start, import, and the warm-up.
WARM_UP = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; workloads.warm_up()"


def _info(key: str, value) -> None:
    print(json.dumps({key: value}), flush=True)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{dep.get('name')} {dep.get('version')}"

    affinity = getattr(os, "sched_getaffinity", None)
    return {"seed": seed, "nproc": len(affinity(0)) if affinity else os.cpu_count(),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


class Calibration:
    """A fixed piece of work that measures how fast the machine runs now.

    On a shared host the speed of one core drifts by 20-30 % over tens of
    seconds, and a whole 30-second run can fall into a slow stretch.  The
    loop mixes what derivfit spends its time on: a small symmetric
    eigendecomposition, a tall matrix product and interpreter work.  Run
    every CAL_EVERY_S of operation time, it gives the operations in between
    the factor CAL_REFERENCE_S / (mean time of the two calibrations around
    them), which rescales their times to the reference speed.  It uses
    numpy and scipy only, so a change to derivfit does not move it.
    """

    def __init__(self):
        import numpy as np
        from scipy.linalg import eigh  # bound here, out of the tracer's reach
        self._eigh = eigh
        self._a = np.random.default_rng(0).standard_normal((2000, 30))
        self._gram = self._a.T @ self._a
        self()  # the first pass pays for page faults and lazy loading

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(30):
            self._eigh(self._gram)
            self._a.T @ self._a
            total = 0
            for i in range(2000):
                total += i * i
        return time.perf_counter() - start


def measure_setup(calibrate) -> tuple[float, float]:
    """Median set-up time of fresh processes that import and warm up:
    (at the reference speed, as measured)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", WARM_UP, str(SRC), str(HERE)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        raw.append(elapsed)
        scaled.append(elapsed * 2 * CAL_REFERENCE_S / (before + calibrate()))
    return statistics.median(scaled), statistics.median(raw)


def run_ops(workload, *, rounds=None, seconds=0.0, tracer=None, calibrate=None):
    """Run whole rounds: the given round indices, or rounds 0, 1, ... until
    ``seconds`` of operation time and MIN_OPS operations.

    Returns ([(op, outcome, elapsed, scale)], round problems).  With
    ``calibrate``, the calibration runs every CAL_EVERY_S of operation time,
    and ``scale`` rescales an operation's time to the reference speed from
    the calibrations just before and just after it; otherwise it is 1.
    """
    from workloads import Outcome
    results, problems = [], []
    deadline = time.perf_counter() + MAX_MEASURE_S
    busy = since_cal = 0.0
    cal_before = calibrate() if calibrate else None
    pending = 0  # results not yet given a scale

    def rescale():
        nonlocal cal_before, pending, since_cal
        cal_after = calibrate()
        scale = 2 * CAL_REFERENCE_S / (cal_before + cal_after)
        results[pending:] = [(op, o, e, scale) for op, o, e, _ in results[pending:]]
        cal_before, pending, since_cal = cal_after, len(results), 0.0

    for r in rounds if rounds is not None else itertools.count():
        outcomes = []
        for op in workload.ops(r):
            call = workload.prepare(op)
            if tracer is not None:
                tracer.op = f"{r}:{op['key']}"
            start = time.perf_counter()
            try:
                value = call()
            except Exception:  # an operation's failure must not stop the run
                elapsed = time.perf_counter() - start
                text = traceback.format_exc()
                print(text, file=sys.stderr)
                outcome = Outcome(op["key"], (), [text.strip().splitlines()[-1]])
            else:
                elapsed = time.perf_counter() - start
                outcome = workload.finish(op, value)
            if tracer is not None:
                tracer.op = None
            busy += elapsed
            since_cal += elapsed
            results.append((op, outcome, elapsed, 1.0))
            outcomes.append(outcome)
            if calibrate and since_cal >= CAL_EVERY_S:
                rescale()
        problems += workload.check_round(outcomes)
        if rounds is None and ((busy >= seconds and len(results) >= MIN_OPS)
                               or time.perf_counter() > deadline):
            break
    if calibrate and pending < len(results):
        rescale()
    return results, problems


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_reference(workload, results, stored: dict) -> None:
    """Compare the first round's outputs to the stored ones; a mismatch
    fails the operation."""
    from workloads import reference_problems
    for _, outcome, _, _ in results[:len(workload.ops(0))]:
        outcome.problems += reference_problems(outcome, stored.get(outcome.key))


def tally(results) -> tuple[int, int, list[str]]:
    failed = sum(1 for _, o, _, _ in results if o.problems or o.excluded)
    problems = [f"{o.key}: {p}" for _, o, _, _ in results for p in o.problems]
    return len(results), failed, problems


def latency_metrics(times_ms: list[float]) -> dict:
    p10, p50, p90 = (statistics.quantiles(times_ms, n=10, method="inclusive")[i]
                     for i in (0, 4, 8))
    return {"ops_per_s": (len(times_ms) / (sum(times_ms) / 1e3), "1/s"),
            "op_ms.p10": (p10, "ms"), "op_ms.p50": (p50, "ms"), "op_ms.p90": (p90, "ms")}


def by_stratum(results) -> dict:
    groups: dict[str, list[float]] = {}
    for op, _, elapsed, scale in results:
        groups.setdefault(op["stratum"], []).append(elapsed * scale * 1e3)
    return {k: {"mean_ms": statistics.fmean(v), "ops": len(v)} for k, v in groups.items()}


def timed_run(workload, seconds: float, stored) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics; times are at the reference speed (Calibration)."""
    calibrate = Calibration()
    setup_s, raw_setup_s = measure_setup(calibrate)
    results, problems = run_ops(workload, seconds=seconds, calibrate=calibrate)
    if stored is not None:
        check_reference(workload, results, stored)
    attempted, failed, op_problems = tally(results)
    metrics = latency_metrics([e * scale * 1e3 for _, _, e, scale in results])
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = latency_metrics([e * 1e3 for _, _, e, _ in results])
    raw["setup_s"] = (raw_setup_s, "s")
    _info("as_measured", {m: v for m, (v, _) in raw.items()})
    _info("speed_scale", statistics.fmean(scale for *_, scale in results))
    _info("op_ms_by_stratum", by_stratum(results))
    return metrics, attempted, failed, problems + op_problems


def traced_run(workload, seed: int, stored, rounds: int, trace_path: Path | None
               ) -> tuple[dict, int, int, list[str], dict]:
    """Per-layer metrics from ``rounds`` rounds run untraced and traced;
    the record holds the first round's outputs and the counts."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced, problems = [], [], []
    # Each round runs untraced and traced; which goes first alternates, so
    # that warming up over the run does not bias the overhead.
    for r in range(rounds):
        for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    results, found = run_ops(workload, rounds=[r], tracer=tracer)
                finally:
                    tracer.uninstall()
                traced += results
            else:
                results, found = run_ops(workload, rounds=[r])
                plain += results
            problems += found
    record = {"outcomes": {o.key: o.signature for _, o, _, _ in plain[:len(workload.ops(0))]}}
    if stored is not None:
        check_reference(workload, plain, stored.get("outcomes", {}))
    problems += tracer.problems
    for (_, a, _, _), (_, b, _, _) in zip(plain, traced):
        if repr(a.signature) != repr(b.signature):
            problems.append(f"{a.key}: traced output differs from untraced output")

    ops = len(traced)
    wall = sum(e for _, _, e, _ in traced)
    self_time, _, root_time, nesting = tracer.layer_totals()
    problems += nesting
    counts = tracer.all_counts()
    metrics = {m: (self_time[m] / ops, "s/op") for m, _, _ in tracing.SPANS}
    metrics.update({m: (counts[m] / ops, "count/op") for m in tracing.COUNT_METRICS})
    unattributed = wall - sum(self_time.values())
    metrics["trace.unattributed_s"] = (unattributed / ops, "s/op")
    metrics["trace.wall_s"] = (wall / ops, "s/op")
    metrics["trace.overhead"] = (wall / sum(e for _, _, e, _ in plain), "ratio")
    if abs(unattributed - (wall - root_time)) > SUM_RTOL * wall or unattributed < 0:
        problems.append(f"self times do not add up: wall {wall}, roots {root_time}, "
                        f"self {sum(self_time.values())}")

    boundaries = tracer.boundaries()
    _info("trace_boundaries", boundaries)
    _info("trace_counts", {"ops": ops, "rounds": rounds, "total": counts})
    record["counts"] = {"ops": ops, **counts}
    if stored is not None:
        pinned = stored.get("counts", {})
        diff = {m: (pinned.get(m), v) for m, v in record["counts"].items()
                if pinned.get(m) != v}
        _info("pinned_counts_match", not diff)
        if diff:
            print(f"counts differ from the pinned ones (pinned, now): {diff}", file=sys.stderr)
    if trace_path is not None:
        tracer.write(trace_path, {"workload": workload.name, "seed": seed, "ops": ops,
                                  "wall_s": wall, "boundaries": boundaries})
    attempted, failed, op_problems = tally(plain + traced)
    return metrics, attempted, failed, problems + op_problems, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20250)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="with --trace 1 at the default seed: store the first "
                             "round's outputs and the counts as the reference")
    args = parser.parse_args(argv)

    if not (SRC / "derivfit" / "__init__.py").is_file():
        print(f"perfbench: no derivfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if Path(workloads.simulation.__file__).resolve().parent != SRC / "derivfit":
        print("perfbench: derivfit was not imported from the checkout's src/",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 1
    if args.write_reference and (args.trace != 1 or args.seed != workloads.DEFAULT_SEED):
        print("perfbench: --write-reference needs --trace 1 and the default seed",
              file=sys.stderr)
        return 1

    _info("env", environment(args.seed))
    workload = workloads.make(args.workload, args.seed, WORK_DIR)
    workloads.warm_up()
    reference = load_reference().get(args.workload, {})
    at_default = args.seed == workloads.DEFAULT_SEED and not args.write_reference
    try:
        if args.trace:
            metrics, attempted, failed, problems, record = traced_run(
                workload, args.seed, reference if at_default else None,
                TRACE_ROUNDS[args.workload],
                WORK_DIR / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics, attempted, failed, problems = timed_run(
                workload, args.seconds, reference.get("outcomes", {}) if at_default else None)
    finally:
        workload.close()
    if args.write_reference and not problems:
        stored = load_reference()
        stored[args.workload] = record
        REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    bad = [m for m, (v, _) in metrics.items() if not math.isfinite(v)]
    print(json.dumps({
        "correct": not problems and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v if math.isfinite(v) else None, "unit": u}
                    for m, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
