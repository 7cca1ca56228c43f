"""Simulation study harness: test functions, data generation, and the
Monte Carlo experiment runner.

Each experiment cell is a (test function, basis family, sample size)
triple.  A repetition draws standard-normal design points and Gaussian
noise, builds the draw's one dimension sweep (a DesignCache, which
rescales half-trig to the draw's trimmed range), selects a dimension per
the configured mode for both the regression function and its derivative
from that sweep, and scores squared L2 errors on the cache's trimmed
range, the central 3%-97% quantile range of the design.  A gl or reuse
draw builds one selection.Selection on the default grid, which gates it
and estimates sigma^2 unless the config gives it (sigma2 None, the
default, means estimate), and reads the reuse choice and, in gl mode,
gl's (Selection.m_hat); a calibrate_kappa draw builds one pass and
compares at every kappa.
An oracle draw builds the cache alone and scores the whole grid.  A draw
on which the scoring finds no solvable dimension (its one
SingularGramError) or the gate no member (EmptyCollectionError) is
excluded and counted per cell; calibrate_kappa skips such a draw.
Reports aggregate means and standard deviations of 100*MSE and of the
selected dimensions.  Everything is a pure function of the config,
including the seed, and a cell's rows depend only on its index and the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Family, parse_family
from .design import Sample
from .errors import EmptyCollectionError, SingularGramError
from .selection import (KAPPA, DesignCache, Selection, _cache_top,
                        _check_room_for_sigma2, _check_tuning, _first_minimum,
                        _oracle_error_sweep, default_m_grid)


@dataclass(frozen=True)
class TestFunction:
    """A benchmark regression function with its analytic derivative."""

    id: str
    b: object
    b_prime: object


TEST_FUNCTIONS: dict[str, TestFunction] = {
    "b1": TestFunction("b1", lambda x: 2.0 * np.sin(np.pi * x),
                       lambda x: 2.0 * np.pi * np.cos(np.pi * x)),
    "b2": TestFunction("b2", lambda x: np.exp(-x * x / 2.0),
                       lambda x: -x * np.exp(-x * x / 2.0)),
    "b3": TestFunction("b3", lambda x: x * x, lambda x: 2.0 * x),
    "b4": TestFunction("b4", lambda x: 4.0 * x / (1.0 + x * x),
                       lambda x: 4.0 * (1.0 - x * x) / (1.0 + x * x) ** 2),
}


def rng_for(seed: int, cell_index: int, repetition: int) -> np.random.Generator:
    """Independent substream for one repetition of one cell."""
    return np.random.default_rng((seed, cell_index, repetition))


def _check_functions(functions) -> None:
    """Reject test function ids not in TEST_FUNCTIONS, naming the known ones."""
    unknown = [f for f in functions if f not in TEST_FUNCTIONS]
    if unknown:
        raise ValueError(f"unknown test functions {unknown}; known: "
                         f"{', '.join(TEST_FUNCTIONS)}")


def _check_sigma(sigma: float) -> None:
    """Reject a noise level that is not finite or is negative, naming it."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got sigma = {sigma}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got sigma = {sigma}")


def generate_sample(fn: TestFunction, n: int, sigma: float,
                    rng: np.random.Generator) -> Sample:
    """X standard normal, independent Gaussian noise with sd sigma."""
    _check_sigma(sigma)
    if n < 1:
        raise ValueError(f"the sample size n must be >= 1, got n = {n}")
    x = rng.standard_normal(n)
    eps = sigma * rng.standard_normal(n) if sigma > 0 else np.zeros(n)
    return Sample(x=x, y=fn.b(x) + eps)


@dataclass(frozen=True)
class ExperimentConfig:
    functions: tuple[str, ...] = ("b1", "b2", "b3", "b4")
    families: tuple[str, ...] = ("hermite", "half-trig")
    n_list: tuple[int, ...] = (250, 1000, 4000)
    sigma: float = 0.25
    repetitions: int = 100
    seed: int = 1
    m_max: int | None = None
    mode: str = "oracle"          # oracle | gl | reuse
    kappa0: float = KAPPA
    kappa1: float = KAPPA
    sigma2: float | None = None   # None: estimated per draw
    d_constant: float | None = None

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        _check_sigma(self.sigma)
        if self.mode not in ("oracle", "gl", "reuse"):
            raise ValueError(f"unknown selection mode {self.mode!r}")
        _check_functions(self.functions)
        if min(self.n_list, default=2) < 2:
            raise ValueError(f"every n must be >= 2, got {list(self.n_list)}")
        if self.m_max is not None and self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        families = [parse_family(fam) for fam in self.families]
        # the selectors' own check, made in every mode before any repetition
        _check_tuning(self.sigma2, self.d_constant, self.kappa0, self.kappa1)
        if self.mode == "oracle" or self.sigma2 is not None:
            return
        for family in families:
            for n in self.n_list:
                _check_room_for_sigma2(n, default_m_grid(family, n, self.m_max), family)


@dataclass(frozen=True)
class ReportRow:
    function: str
    family: str
    n: int
    target: str                   # "b" or "b'"
    mse100_mean: float
    mse100_std: float
    dim_mean: float
    dim_std: float
    k: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[ReportRow, ...]
    excluded: dict[tuple[str, str, int], int]


def _run_repetition(config: ExperimentConfig, fn: TestFunction, family: Family,
                    n: int, rng: np.random.Generator):
    """One draw: returns ((err_b, dim_b), (err_bp, dim_bp))."""
    sample = generate_sample(fn, n, config.sigma, rng)
    m_grid = default_m_grid(family, n, config.m_max)
    if config.mode == "oracle":  # no gate: the oracle scores the grid
        cache, scored = DesignCache(sample, family, _cache_top(m_grid, n)), m_grid
    else:  # the regression dimension by the reuse contrast over the members;
        # with m_max None the pass gets no grid and builds the default one
        # itself, skipping the check a given grid needs (~5 us a draw)
        selection = Selection(sample, family, config.m_max and m_grid, config.sigma2,
                              config.d_constant, None, config.kappa0, config.kappa1)
        cache, m_b = selection.cache, selection.m_reuse
        m_bp = selection.m_hat if config.mode == "gl" else m_b
        scored = {m_b, m_bp}
    errors = _oracle_error_sweep(cache, scored, cache.trimmed,
                                 {"regression": fn.b, "derivative": fn.b_prime})
    if config.mode == "oracle":  # errors are keyed in ascending m
        m_b = _first_minimum(list(errors), [e["regression"] for e in errors.values()])
        m_bp = _first_minimum(list(errors), [e["derivative"] for e in errors.values()])
    return (errors[m_b]["regression"], m_b), (errors[m_bp]["derivative"], m_bp)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every cell of the config and aggregate.

    Repetitions where no dimension admits a numerically invertible Gram,
    or whose collection is empty, are excluded from the aggregates and
    counted per cell.
    """
    rows: list[ReportRow] = []
    excluded: dict[tuple[str, str, int], int] = {}
    cell_index = 0
    for fn_id in config.functions:
        fn = TEST_FUNCTIONS[fn_id]
        for family_name in config.families:
            family = parse_family(family_name)
            for n in config.n_list:
                errs_b, dims_b, errs_bp, dims_bp = [], [], [], []
                failures = 0
                for rep in range(config.repetitions):
                    rng = rng_for(config.seed, cell_index, rep)
                    try:
                        (eb, mb), (ebp, mbp) = _run_repetition(
                            config, fn, family, n, rng)
                    except (SingularGramError, EmptyCollectionError):
                        failures += 1
                        continue
                    errs_b.append(eb)
                    dims_b.append(mb)
                    errs_bp.append(ebp)
                    dims_bp.append(mbp)
                if failures:
                    excluded[(fn_id, family_name, n)] = failures
                k = len(errs_b)
                for target, errs, dims in (("b", errs_b, dims_b),
                                           ("b'", errs_bp, dims_bp)):
                    e = np.asarray(errs)
                    d = np.asarray(dims, dtype=float)
                    rows.append(ReportRow(
                        function=fn_id, family=family_name, n=n, target=target,
                        mse100_mean=float(100.0 * e.mean()) if k else math.nan,
                        mse100_std=float(100.0 * e.std()) if k else math.nan,
                        dim_mean=float(d.mean()) if k else math.nan,
                        dim_std=float(d.std()) if k else math.nan,
                        k=k))
                cell_index += 1
    return ExperimentReport(rows=tuple(rows), excluded=excluded)


# ---------------------------------------------------------------------------
# Selector calibration sweep
# ---------------------------------------------------------------------------

CALIBRATION_SEEDS = 20  # the default number of draws in a calibration sweep


@dataclass(frozen=True)
class CalibrationRow:
    kappa: float
    median_ratio: float
    mean_ratio: float
    q90_ratio: float
    median_dim: float


def calibrate_kappa(function: str, family_name: str, n: int, kappas,
                    seeds: int = CALIBRATION_SEEDS, sigma: float = ExperimentConfig.sigma,
                    seed: int = ExperimentConfig.seed, d_constant: float | None = None,
                    m_max: int | None = None) -> list[CalibrationRow]:
    """Sweep the selector constant (kappa0 = kappa1 = kappa) on simulated
    data and report the risk ratio of the selected fit to the full-sweep
    oracle, per kappa."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got seeds = {seeds}")
    _check_sigma(sigma)
    _check_functions([function])
    fn = TEST_FUNCTIONS[function]
    family = parse_family(family_name)
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValueError("kappas is empty: give at least one value to sweep")
    # a repeated value would count every draw twice in its row
    if repeated := sorted({k for k in kappas if kappas.count(k) > 1}):
        raise ValueError(f"kappas repeats {repeated}: give each value once")
    for kappa in kappas:  # rejects a bad constant before the sweep
        _check_tuning(None, d_constant, kappa, kappa)
    m_grid = default_m_grid(family, n, m_max)
    _check_room_for_sigma2(n, m_grid, family)  # every draw estimates sigma2
    ratios: dict[float, list[float]] = {k: [] for k in kappas}
    dims: dict[float, list[int]] = {k: [] for k in kappas}
    for i in range(seeds):
        sample = generate_sample(fn, n, sigma, rng_for(seed, 9000 + i, 0))
        try:
            selection = Selection(sample, family, m_grid, None, d_constant)
            errors = _oracle_error_sweep(selection.cache, m_grid, selection.cache.trimmed,
                                         {"derivative": fn.b_prime})
        except (SingularGramError, EmptyCollectionError):
            continue
        oracle_err = min(e["derivative"] for e in errors.values())
        for kappa in kappas:
            m_hat = selection.compare(kappa, kappa)[0]
            ratios[kappa].append(errors[m_hat]["derivative"] / max(oracle_err, 1e-300))
            dims[kappa].append(m_hat)
    out = []
    for kappa in kappas:
        r = np.asarray(ratios[kappa])
        if r.size == 0:
            out.append(CalibrationRow(kappa, math.nan, math.nan, math.nan, math.nan))
            continue
        out.append(CalibrationRow(
            kappa=kappa,
            median_ratio=float(np.median(r)),
            mean_ratio=float(r.mean()),
            q90_ratio=float(np.quantile(r, 0.9)),
            median_dim=float(np.median(dims[kappa]))))
    return out


def best_kappa(rows: list[CalibrationRow]) -> float:
    """The swept value with the smallest median risk ratio."""
    valid = [r for r in rows if not math.isnan(r.median_ratio)]
    if not valid:
        raise EmptyCollectionError("calibration produced no usable runs")
    return min(valid, key=lambda r: (r.median_ratio, r.kappa)).kappa
