"""Test functions, sample generation, and the experiment runner."""

import math
import re

import numpy as np
import pytest

import derivfit.design
from derivfit import simulation
from derivfit.basis import Family
from derivfit.design import Sample
from derivfit.errors import SingularGramError
from derivfit.selection import Selection, gl_select, oracle_select, reuse_select
from derivfit.simulation import (ExperimentConfig, TEST_FUNCTIONS, best_kappa,
                                 calibrate_kappa, generate_sample, rng_for,
                                 run_experiment)
from oracles import report_row


def test_function_derivatives_match_finite_differences():
    grid = np.linspace(-3, 3, 601)
    h = 1e-6
    for fn in TEST_FUNCTIONS.values():
        fd = (fn.b(grid + h) - fn.b(grid - h)) / (2 * h)
        exact = fn.b_prime(grid)
        scale = np.abs(exact).max()
        assert np.abs(fd - exact).max() <= 1e-6 * scale


def test_registry_contents():
    assert sorted(TEST_FUNCTIONS) == ["b1", "b2", "b3", "b4"]
    assert TEST_FUNCTIONS["b1"].b(0.5) == pytest.approx(2.0)
    assert TEST_FUNCTIONS["b3"].b_prime(2.0) == pytest.approx(4.0)


def test_generate_noiseless_square():
    rng = rng_for(5, 0, 0)
    sample = generate_sample(TEST_FUNCTIONS["b3"], 100, 0.0, rng)
    np.testing.assert_array_equal(sample.y, sample.x ** 2)


def test_generate_mean_concentration():
    rng = rng_for(6, 0, 0)
    n = 100000
    sample = generate_sample(TEST_FUNCTIONS["b1"], n, 0.25, rng)
    assert abs(sample.x.mean()) <= 4 / math.sqrt(n)


def test_generate_deterministic_substreams():
    s1 = generate_sample(TEST_FUNCTIONS["b2"], 50, 0.25, rng_for(7, 3, 11))
    s2 = generate_sample(TEST_FUNCTIONS["b2"], 50, 0.25, rng_for(7, 3, 11))
    np.testing.assert_array_equal(s1.x, s2.x)
    np.testing.assert_array_equal(s1.y, s2.y)
    s3 = generate_sample(TEST_FUNCTIONS["b2"], 50, 0.25, rng_for(7, 3, 12))
    assert not np.array_equal(s1.x, s3.x)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="best")
    with pytest.raises(ValueError):
        ExperimentConfig(functions=("b9",))
    with pytest.raises(ValueError):
        ExperimentConfig(families=("wavelet",))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_non_finite_sigma_is_rejected_before_any_draw(sigma):
    with pytest.raises(ValueError, match=f"sigma must be finite, got sigma = {sigma}"):
        ExperimentConfig(sigma=sigma)
    rng = rng_for(7, 0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"sigma must be finite, got sigma = {sigma}"):
        generate_sample(TEST_FUNCTIONS["b2"], 50, sigma, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match=f"sigma must be finite, got sigma = {sigma}"):
        calibrate_kappa("b2", "hermite", 250, [1.0], seeds=2, sigma=sigma)


def test_config_rejects_bad_sizes_and_constants():
    with pytest.raises(ValueError, match="m_max"):
        ExperimentConfig(m_max=0)
    with pytest.raises(ValueError, match="n must be >= 2"):
        ExperimentConfig(n_list=(250, 1))
    with pytest.raises(ValueError, match="kappa0"):
        ExperimentConfig(mode="gl", kappa0=0.0)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        ExperimentConfig(mode="reuse", sigma2=-1.0)


def test_config_rejects_sigma2_estimate_without_enough_observations():
    with pytest.raises(ValueError, match=r"n = 60 with m_max = 40"):
        ExperimentConfig(n_list=(4000, 60), m_max=40, mode="gl", repetitions=20)
    with pytest.raises(ValueError, match=r"n = 20 with m_max = 10"):
        ExperimentConfig(n_list=(20,), m_max=10, mode="reuse")
    # a given noise level, or the oracle mode, needs no estimate
    ExperimentConfig(n_list=(4000, 60), m_max=40, mode="gl", sigma2=0.0625)
    ExperimentConfig(n_list=(4000, 60), m_max=40, mode="oracle")
    ExperimentConfig(n_list=(21,), m_max=10, mode="reuse")


def test_noiseless_in_span_oracle_run():
    config = ExperimentConfig(functions=("b2",), families=("hermite",),
                              n_list=(400,), sigma=0.0, repetitions=1,
                              seed=42, mode="oracle")
    report = run_experiment(config)
    row_b = report_row(report, "b2", "hermite", 400, "b")
    row_bp = report_row(report, "b2", "hermite", 400, "b'")
    assert row_b.mse100_mean <= 1e-12
    assert row_bp.mse100_mean <= 1e-12
    assert row_b.dim_mean == 1.0  # the target is the first basis element


def test_report_row_counts_and_determinism():
    config = ExperimentConfig(functions=("b1", "b2"), families=("half-trig",),
                              n_list=(250,), repetitions=3, seed=9,
                              mode="oracle")
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert len(r1.rows) == 2 * 1 * 1 * 2
    assert r1 == r2


def test_selection_modes_run():
    for mode in ("gl", "reuse"):
        config = ExperimentConfig(functions=("b3",), families=("hermite",),
                                  n_list=(250,), repetitions=2, seed=4,
                                  mode=mode, sigma2=0.0625)
        report = run_experiment(config)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.k == 2
            assert math.isfinite(row.mse100_mean)


def test_oracle_dimensions_for_both_targets_stay_coupled():
    # per repetition the best dimension for the regression target and for
    # the derivative target track each other closely
    from derivfit.design import trim_interval
    from derivfit.selection import DesignCache, _oracle_error_sweep
    gaps = []
    for fn_id, fam, cell in (("b3", "hermite", 0), ("b1", "half-trig", 1)):
        fn = TEST_FUNCTIONS[fn_id]
        from derivfit.basis import Family, parse_family
        family = parse_family(fam)
        for rep in range(30):
            rng = rng_for(515, cell, rep)
            sample = generate_sample(fn, 250, 0.25, rng)
            lo, hi = trim_interval(sample)
            m_grid = range(1, 26)
            cache = DesignCache(sample, family, 25,
                                (lo, hi) if family is Family.HALF_TRIG else None)
            errors = _oracle_error_sweep(
                cache, m_grid, (lo, hi), {"regression": fn.b, "derivative": fn.b_prime})
            m_b = min(errors, key=lambda m: (errors[m]["regression"], m))
            m_bp = min(errors, key=lambda m: (errors[m]["derivative"], m))
            gaps.append(abs(m_b - m_bp))
    assert np.median(gaps) <= 2


@pytest.mark.parametrize("mode", ["oracle", "gl"])
@pytest.mark.parametrize("family", ["hermite", "half-trig"])
def test_the_harness_trims_each_draw_once(monkeypatch, family, mode):
    """Half-trig's interval and the scoring interval are one trimmed range
    of the draw, computed once whatever the family."""
    calls = []
    trim = derivfit.design.trim_interval

    def counted(sample):
        calls.append(sample.n)
        return trim(sample)
    monkeypatch.setattr(derivfit.design, "trim_interval", counted)
    simulation.run_experiment(ExperimentConfig(functions=("b1",), families=(family,),
                                               n_list=(250,), repetitions=3, mode=mode))
    assert calls == [250] * 3


def test_calibration_sweep_and_best():
    rows = calibrate_kappa("b1", "half-trig", 250, kappas=(0.2, 1.0),
                           seeds=4, seed=3)
    assert len(rows) == 2
    assert all(math.isfinite(r.median_ratio) for r in rows)
    assert best_kappa(rows) in (0.2, 1.0)


def test_calibration_rejects_an_unknown_function_or_no_kappas_before_any_draw(
        monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(simulation, "generate_sample", no_draw)
    with pytest.raises(ValueError, match=r"unknown test functions \['b9'\]; "
                                         r"known: b1, b2, b3, b4"):
        calibrate_kappa("b9", "hermite", 250, kappas=(1.0,), seeds=2)
    with pytest.raises(ValueError, match="kappas is empty"):
        calibrate_kappa("b1", "hermite", 250, kappas=[], seeds=2)


@pytest.mark.parametrize("n, message", [
    (0, "the sample size n must be >= 1, got n = 0"),
    (-3, "the sample size n must be >= 1, got n = -3"),
    (1, "needs n > 2*m_max, but n = 1 with m_max = 1"),
    (2, "needs n > 2*m_max, but n = 2 with m_max = 1")])
def test_calibration_rejects_a_sample_too_small_before_any_draw(monkeypatch, n, message):
    """n < 1 gives an empty grid, which used to reach the room check as
    `max() arg is an empty sequence`; n = 1, 2 have a grid but no room
    for the noise estimate."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(simulation, "generate_sample", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        calibrate_kappa("b3", "hermite", n, [1.0], seeds=2)


def test_calibration_rejects_a_repeated_kappa_before_any_draw(monkeypatch):
    """A repeated value used to sweep twice and count every draw twice in
    its row (q90 27.83 for [1.0, 1.0] against 19.47 for [1.0])."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(simulation, "generate_sample", no_draw)
    for kappas, repeated in (([1.0, 1.0], "[1.0]"), ([1, 1.0, 2], "[1.0]"),
                             ([0.5, 2, 0.5, 2.0, 4], "[0.5, 2.0]")):
        with pytest.raises(ValueError, match=re.escape(f"kappas repeats {repeated}")):
            calibrate_kappa("b3", "hermite", 250, kappas, seeds=6, seed=4)


@pytest.mark.parametrize("d", [-1.0, 0.0, math.nan, math.inf])
def test_bad_collection_constant_is_rejected_up_front(d):
    for mode in ("gl", "reuse"):
        with pytest.raises(ValueError, match="collection constant d"):
            ExperimentConfig(mode=mode, d_constant=d)
    with pytest.raises(ValueError, match="collection constant d"):
        calibrate_kappa("b1", "hermite", 250, kappas=(1.0,), seeds=2, d_constant=d)
    # the oracle never gates, but a bad constant in its config is an error too
    with pytest.raises(ValueError, match="collection constant d"):
        ExperimentConfig(mode="oracle", d_constant=d)


def test_a_positive_collection_constant_is_accepted():
    ExperimentConfig(mode="gl", d_constant=1e6)
    rows = calibrate_kappa("b1", "hermite", 250, kappas=(1.0,), seeds=2, d_constant=1e6)
    assert len(rows) == 1


@pytest.mark.parametrize("mode", ["oracle", "gl"])
def test_dropping_the_trailing_function_keeps_the_earlier_cells(mode):
    full = run_experiment(ExperimentConfig(functions=("b1", "b3"), n_list=(250,),
                                           repetitions=2, seed=11, mode=mode))
    head = run_experiment(ExperimentConfig(functions=("b1",), n_list=(250,),
                                           repetitions=2, seed=11, mode=mode))
    assert full.rows[:len(head.rows)] == head.rows
    assert {cell: count for cell, count in full.excluded.items()
            if cell[0] == "b1"} == head.excluded


@pytest.mark.parametrize("mode", ["oracle", "gl"])
def test_a_cell_depends_only_on_its_index_and_the_seed(mode):
    # b3's cells keep their indices when the function before them changes
    reports = [run_experiment(ExperimentConfig(functions=(first, "b3"), n_list=(250,),
                                               repetitions=2, seed=11, mode=mode))
               for first in ("b1", "b2")]
    b3_rows = [[row for row in report.rows if row.function == "b3"] for report in reports]
    assert len(b3_rows[0]) == 4 and b3_rows[0] == b3_rows[1]
    # the same cell at another index draws other samples
    alone = run_experiment(ExperimentConfig(functions=("b3",), n_list=(250,),
                                            repetitions=2, seed=11, mode=mode))
    assert list(alone.rows) != b3_rows[0]


def _all_negative(n, seed, cell_index, repetition):
    sample = generate_sample(TEST_FUNCTIONS["b1"], n, ExperimentConfig.sigma,
                             rng_for(seed, cell_index, repetition))
    return bool((sample.x < 0).all())


def test_a_draw_with_nothing_solvable_has_one_error_everywhere(monkeypatch):
    """Laguerre elements vanish on x < 0, so on an all-negative draw every
    Gram is zero: the oracle raises and the harness excludes the draw,
    both through the scoring's one error, and the calibration skips it
    (its pass finds no member before any scoring)."""
    message = "every candidate dimension has a singular Gram"
    sample = Sample(x=np.array([-1.5, -0.4, -0.1]), y=np.array([0.3, -0.2, 0.1]))
    with pytest.raises(SingularGramError, match=message):
        oracle_select(sample, Family.LAGUERRE, (1, 2, 3), lambda t: t, (-1.5, -0.1))
    fn = TEST_FUNCTIONS["b1"]
    config = ExperimentConfig(functions=("b1",), families=("laguerre",), n_list=(2,),
                              repetitions=4, seed=2)
    assert [_all_negative(2, 2, 0, rep) for rep in range(4)] == [False, True, False, True]
    with pytest.raises(SingularGramError, match=message):
        simulation._run_repetition(config, fn, Family.LAGUERRE, 2, rng_for(2, 0, 1))
    report = run_experiment(config)
    assert report.excluded == {("b1", "laguerre", 2): 2}
    assert [row.k for row in report.rows] == [2, 2]
    # calibration at n = 3, m_max = 1: seed 9 draws all-negative samples
    # first and third
    assert [_all_negative(3, 9, 9000 + i, 0) for i in range(3)] == [True, False, True]
    gl_calls = []
    compare = Selection.compare
    monkeypatch.setattr(Selection, "compare",
                        lambda *args: gl_calls.append(args) or compare(*args))
    (row,) = calibrate_kappa("b1", "laguerre", 3, [1.0], seeds=3, seed=9, m_max=1)
    assert len(gl_calls) == 1 and math.isfinite(row.median_ratio)
    (row,) = calibrate_kappa("b1", "laguerre", 3, [1.0], seeds=1, seed=9, m_max=1)
    assert row.kappa == 1.0 and all(math.isnan(value) for value in (
        row.median_ratio, row.mean_ratio, row.q90_ratio, row.median_dim))


@pytest.mark.parametrize("family_name", ["hermite", "half-trig"])
def test_a_harness_gl_draw_makes_the_selectors_choices(family_name):
    """On the sample it draws, a gl repetition picks reuse_select's
    dimension for the regression and gl_select's for the derivative."""
    config = ExperimentConfig(functions=("b2",), families=(family_name,),
                              n_list=(250, 1000), repetitions=3, mode="gl", seed=3)
    fn, family = TEST_FUNCTIONS["b2"], Family(family_name)
    for cell, n in enumerate(config.n_list):
        for rep in range(config.repetitions):
            (_, m_b), (_, m_bp) = simulation._run_repetition(
                config, fn, family, n, rng_for(config.seed, cell, rep))
            sample = generate_sample(fn, n, config.sigma, rng_for(config.seed, cell, rep))
            assert m_b == reuse_select(sample, family)[0]
            assert m_bp == gl_select(sample, family)[0].m_hat
