"""Workloads of the derivfit benchmark: inputs, operations and output checks.

Each workload is a closed loop driven by one caller: an operation starts
when the previous one has returned.  Operations come in rounds; a round
is the smallest unit that has the workload's full input mix, so a run
always measures whole rounds.  Inputs are a pure function of the workload
seed and the round number.

* ``oracle-table`` and ``gl-table``: one operation is one Monte Carlo
  repetition of one cell of the paper's table, run through
  ``derivfit.simulation.run_experiment`` with one repetition.  A round is
  the 24 cells b1-b4 x {hermite, half-trig} x n in {250, 1000, 4000},
  whose 48 report rows form the whole table.
* ``select-large``: one operation is one in-process
  ``derivfit select --mode gl`` call on its own CSV of n = 20 000 samples
  of b3.  A round is one hermite call followed by one half-trig call.

The program is reached through module attributes (``simulation.run_experiment``,
``cli.main``) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from derivfit import cli, simulation
from derivfit.basis import Family, parse_family
from derivfit.design import Sample
from derivfit.selection import default_m_grid, gl_select

DEFAULT_SEED = 20250
FUNCTIONS = ("b1", "b2", "b3", "b4")
FAMILIES = ("hermite", "half-trig")
STRATA = (250, 1000, 4000)
SIGMA = 0.25
SELECT_N = 20_000
SELECT_FUNCTION = "b3"
GRID_POINTS = 512
# Reference comparison at the default seed: floats (errors, mean
# dimensions, curve values) agree to this relative tolerance, integers
# (K, m_hat, members) exactly.
REFERENCE_RTOL = 1e-7

_SELECTED = re.compile(r"selected m = (\d+) from members \[([\d, ]*)\]")


def warm_up() -> None:
    """One gl_select on a hermite sample large enough to reach m = 40.

    This fills the cached Hermite sup factors (L(m) for m <= 41), a
    one-time cost of about half a second that would otherwise land in the
    first timed operation.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    gl_select(Sample(x=x, y=x * x + SIGMA * rng.standard_normal(1000)),
              Family.HERMITE)


def _op_seed(seed: int, round_index: int, op_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index, op_index]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one operation returned, reduced to what the checks compare.

    ``signature`` is compared exactly between an untraced and a traced run
    of the same inputs, and to the stored reference at the default seed.
    """

    key: str
    signature: tuple
    problems: list[str]
    excluded: bool = False


class TableWorkload:
    """The paper's Monte Carlo table, one repetition per operation."""

    def __init__(self, name: str, mode: str, seed: int):
        self.name = name
        self.mode = mode
        self.seed = seed

    def ops(self, round_index: int) -> list[dict]:
        cells = [(f, fam, n) for f in FUNCTIONS for fam in FAMILIES for n in STRATA]
        return [{"key": f"{f}/{fam}/{n}", "stratum": f"n={n}",
                 "config": simulation.ExperimentConfig(
                     functions=(f,), families=(fam,), n_list=(n,), sigma=SIGMA,
                     repetitions=1, seed=_op_seed(self.seed, round_index, i),
                     mode=self.mode)}
                for i, (f, fam, n) in enumerate(cells)]

    def prepare(self, op: dict):
        config = op["config"]
        return lambda: simulation.run_experiment(config)

    def finish(self, op: dict, report) -> Outcome:
        config = op["config"]
        fn, family, n = config.functions[0], config.families[0], config.n_list[0]
        excluded = sum(report.excluded.values())
        k = 1 - excluded
        grid = default_m_grid(parse_family(family), n, config.m_max)
        problems = []
        keys = [(r.function, r.family, r.n, r.target) for r in report.rows]
        if keys != [(fn, family, n, "b"), (fn, family, n, "b'")]:
            problems.append(f"report rows {keys}")
        for r in report.rows:
            values = (r.mse100_mean, r.mse100_std, r.dim_mean, r.dim_std)
            if r.k != k:
                problems.append(f"{r.target}: K = {r.k}, expected {k}")
            elif k and not all(math.isfinite(v) for v in values):
                problems.append(f"{r.target}: non-finite value in {values}")
            elif k and r.dim_mean not in grid:
                problems.append(f"{r.target}: dimension {r.dim_mean} not in m_grid")
        signature = tuple((r.target, r.mse100_mean, r.mse100_std, r.dim_mean,
                           r.dim_std, r.k) for r in report.rows)
        return Outcome(op["key"], signature, problems, excluded=excluded > 0)

    def check_round(self, outcomes: list[Outcome]) -> list[str]:
        rows = {(o.key, s[0]) for o in outcomes for s in o.signature}
        expected = 2 * len(FUNCTIONS) * len(FAMILIES) * len(STRATA)
        return [] if len(rows) == expected else [f"table has {len(rows)} rows, expected {expected}"]

    def close(self) -> None:
        pass


class SelectWorkload:
    """``derivfit select --mode gl`` on n = 20 000, hermite and half-trig
    alternating, every call on a CSV of its own."""

    name = "select-large"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def ops(self, round_index: int) -> list[dict]:
        return [{"key": f"{2 * round_index + i}/{family}", "stratum": family,
                 "index": 2 * round_index + i, "family": family}
                for i, family in enumerate(FAMILIES)]

    def _paths(self, op: dict) -> tuple[Path, Path]:
        return (self.work_dir / f"select-{op['index']}.csv",
                self.work_dir / f"curve-{op['index']}.csv")

    def prepare(self, op: dict):
        """Write the call's sample, untimed; return the timed call."""
        rng = np.random.default_rng([self.seed, op["index"]])
        x = rng.standard_normal(SELECT_N)
        y = simulation.TEST_FUNCTIONS[SELECT_FUNCTION].b(x) + SIGMA * rng.standard_normal(SELECT_N)
        data, curve = self._paths(op)
        np.savetxt(data, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
                   header="x,y", comments="")
        argv = ["select", str(data), "--family", op["family"], "--mode", "gl",
                "--out", str(curve)]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()
        return call

    def finish(self, op: dict, result) -> Outcome:
        code, stdout = result
        data, curve_path = self._paths(op)
        problems, signature = [], ()
        match = _SELECTED.search(stdout)
        if code != 0:
            problems.append(f"exit code {code}")
        elif match is None:
            problems.append(f"no selection in output {stdout[:200]!r}")
        else:
            m_hat = int(match.group(1))
            members = tuple(int(s) for s in match.group(2).split(","))
            grid = default_m_grid(parse_family(op["family"]), SELECT_N)
            try:
                curve = np.loadtxt(curve_path, delimiter=",", skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                curve = np.empty((0, 2))
                problems.append(f"unreadable curve: {exc}")
            if m_hat not in members:
                problems.append(f"m_hat {m_hat} not in members {members}")
            if not set(members) <= set(grid):
                problems.append(f"members {members} outside m_grid")
            if curve.shape != (GRID_POINTS, 2) or not np.isfinite(curve).all():
                problems.append(f"curve has shape {curve.shape} or non-finite points")
            signature = (m_hat, members, tuple(curve[:, 1].tolist()))
        data.unlink(missing_ok=True)
        curve_path.unlink(missing_ok=True)
        return Outcome(op["key"], signature, problems)

    def check_round(self, outcomes: list[Outcome]) -> list[str]:
        return []

    def close(self) -> None:
        for path in self.work_dir.glob("*.csv"):
            path.unlink()


WORKLOADS = ("oracle-table", "gl-table", "select-large")


def make(name: str, seed: int, work_dir: Path):
    if name == "oracle-table":
        return TableWorkload(name, "oracle", seed)
    if name == "gl-table":
        return TableWorkload(name, "gl", seed)
    if name == "select-large":
        return SelectWorkload(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(
            a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def reference_problems(outcome: Outcome, stored) -> list[str]:
    """Compare an outcome's signature to the stored one (JSON round trip)."""
    if stored is None:
        return ["no stored reference"]
    if not _close(outcome.signature, stored):
        return ["output differs from the stored reference"]
    return []
