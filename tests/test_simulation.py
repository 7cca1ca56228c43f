"""Test functions, sample generation, and the experiment runner."""

import math

import numpy as np
import pytest

from derivfit import simulation
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
    from derivfit.selection import DesignCache, _oracle_error_sweep, eval_on_grid
    gaps = []
    for fn_id, fam, cell in (("b3", "hermite", 0), ("b1", "half-trig", 1)):
        fn = TEST_FUNCTIONS[fn_id]
        from derivfit.basis import Family, parse_family
        family = parse_family(fam)
        for rep in range(30):
            rng = rng_for(515, cell, rep)
            sample = generate_sample(fn, 250, 0.25, rng)
            lo, hi = trim_interval(sample)
            grid = np.linspace(lo, hi, 512)
            m_grid = range(1, 26)
            cache = DesignCache(sample, family, 25,
                                (lo, hi) if family is Family.HALF_TRIG else None)
            errors = _oracle_error_sweep(
                cache, m_grid, grid,
                {"regression": eval_on_grid(fn.b, grid),
                 "derivative": eval_on_grid(fn.b_prime, grid)})
            m_b = min(errors, key=lambda m: (errors[m]["regression"], m))
            m_bp = min(errors, key=lambda m: (errors[m]["derivative"], m))
            gaps.append(abs(m_b - m_bp))
    assert np.median(gaps) <= 2


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
