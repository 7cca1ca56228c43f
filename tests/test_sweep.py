"""One sweep per sample: the harness, the selectors, the noise estimate and
the fixed-dimension fits share a single DesignCache, and the cache agrees
with direct builds."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivfit.basis
import derivfit.design
import oracles
from derivfit.basis import Family, admissible_dims, eval_basis, parse_family
from derivfit.cli import main
from derivfit.design import Sample, gram, trim_interval
from derivfit.selection import (DesignCache, _oracle_error_sweep,
                                default_m_grid, fit_derivative,
                                gl_select, reuse_select)
from derivfit.simulation import (ExperimentConfig, TEST_FUNCTIONS, _run_repetition,
                                 generate_sample, rng_for, run_experiment)


@pytest.fixture()
def cache_builds(monkeypatch):
    """Counts DesignCache constructions while the test runs."""
    calls = []
    original = DesignCache.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DesignCache, "__init__", counting)
    return calls


@pytest.mark.parametrize("mode", ["gl", "reuse"])
def test_harness_repetition_picks_the_public_selectors_dims(mode):
    config = ExperimentConfig(mode=mode, kappa0=0.5, kappa1=0.5)
    for fn_id, family_name, n in (("b1", "half-trig", 250), ("b3", "hermite", 1000)):
        fn = TEST_FUNCTIONS[fn_id]
        family = parse_family(family_name)
        for rep in range(3):
            (err_b, m_b), (err_bp, m_bp) = _run_repetition(
                config, fn, family, n, rng_for(5, 0, rep))
            sample = generate_sample(fn, n, config.sigma, rng_for(5, 0, rep))
            lo_hi = trim_interval(sample)
            interval = lo_hi if family is Family.HALF_TRIG else None
            m_grid = default_m_grid(family, n)
            m_reuse, _ = reuse_select(sample, family, m_grid, interval=interval)
            if mode == "gl":
                selection, _ = gl_select(sample, family, m_grid, interval=interval,
                                         kappa0=0.5, kappa1=0.5)
                assert (m_b, m_bp) == (m_reuse, selection.m_hat)
            else:
                assert m_b == m_bp == m_reuse
            errors = _oracle_error_sweep(
                DesignCache(sample, family, max(m_grid), interval), m_grid, lo_hi,
                {"regression": fn.b, "derivative": fn.b_prime})
            assert err_b == pytest.approx(errors[m_b]["regression"], rel=1e-12)
            assert err_bp == pytest.approx(errors[m_bp]["derivative"], rel=1e-12)


@pytest.mark.parametrize("n", [250, 4000])
@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_grid_scoring_is_bitwise_the_trapezoid_expression(family, n):
    """_oracle_error_sweep computes np.trapezoid's expression in place: its
    errors for both targets are those of the expression on fresh
    temporaries, over the default grid (40 dimensions at n = 4000) and a
    grid of two dimensions, as a gl draw scores."""
    for cell, fn_id in enumerate(("b1", "b2", "b3", "b4")):
        fn = TEST_FUNCTIONS[fn_id]
        sample = generate_sample(fn, n, 0.25, rng_for(28, cell, n))
        m_grid = default_m_grid(family, n)
        cache = DesignCache(sample, family, max(m_grid))
        targets = {"regression": fn.b, "derivative": fn.b_prime}
        for grid in (m_grid, m_grid[2:4]):
            got = _oracle_error_sweep(cache, grid, cache.sample.trimmed, targets)
            expected = oracles.trapezoid_error_sweep(cache, grid, cache.sample.trimmed, targets)
            assert list(got) == list(expected)
            assert (np.array([list(e.values()) for e in got.values()]).tobytes()
                    == np.array([list(e.values()) for e in expected.values()]).tobytes())
    assert len(m_grid) == (40 if n == 4000 else 25)


@pytest.mark.parametrize("mode", ["oracle", "gl", "reuse"])
def test_one_cache_and_one_link_matrix_per_repetition(cache_builds, monkeypatch, mode):
    """A draw builds one cache, and the cache builds the top dimension's
    link matrix once: gl's root and the error scoring both read its
    leading blocks."""
    link_builds = []
    original = derivfit.basis.delta_matrix

    def counting(spec):
        link_builds.append(spec)
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("derivfit.") and hasattr(module, "delta_matrix"):
            monkeypatch.setattr(module, "delta_matrix", counting)
    config = ExperimentConfig(functions=("b1", "b3"), families=("hermite", "half-trig"),
                              n_list=(250,), repetitions=2, seed=3, mode=mode)
    report = run_experiment(config)
    reps = sum(r.k for r in report.rows if r.target == "b")
    assert reps + sum(report.excluded.values()) == 8
    assert not report.excluded
    assert len(cache_builds) == len(link_builds) == 8


@pytest.mark.parametrize("family", ["hermite", "half-trig"])
def test_one_cache_per_select_call(tmp_path, cache_builds, family):
    data = tmp_path / "sample.csv"
    assert main(["simulate", "--function", "b3", "--n", "500", "--seed", "4",
                 "--out", str(data)]) == 0
    for mode in (["gl"], ["reuse"], ["oracle", "--function", "b3"]):
        cache_builds.clear()
        assert main(["select", str(data), "--family", family, "--mode", *mode,
                     "--out", str(tmp_path / "curve.csv")]) == 0
        assert len(cache_builds) == 1, mode


@pytest.fixture()
def design_calls(monkeypatch):
    """Counts gram and moments calls under every package binding, and
    calls of the direct build_design, which lives with the test oracles:
    no package module binds it, so no package code reaches it."""
    calls = {"gram": 0, "moments": 0, "build_design": 0}
    modules = [module for name, module in sys.modules.items()
               if name == "derivfit" or name.startswith("derivfit.")]
    assert not any(hasattr(module, "build_design") for module in modules)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("gram", "moments"):
        original = getattr(derivfit.design, name)
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, original))
    monkeypatch.setattr(oracles, "build_design",
                        counting("build_design", oracles.build_design))
    return calls


@pytest.mark.parametrize("family", ["hermite", "half-trig"])
@pytest.mark.parametrize("strategy", ["1", "2"])
@pytest.mark.parametrize("truncate", [[], ["--truncate"]], ids=["plain", "truncate"])
def test_one_sweep_per_fit_call(tmp_path, cache_builds, design_calls, family,
                                strategy, truncate):
    data = tmp_path / "sample.csv"
    assert main(["simulate", "--function", "b3", "--n", "500", "--seed", "4",
                 "--out", str(data)]) == 0
    assert main(["fit", str(data), "--family", family, "--m", "6",
                 "--strategy", strategy, *truncate,
                 "--out", str(tmp_path / "curve.csv")]) == 0
    assert len(cache_builds) == 1
    assert design_calls == {"gram": 1, "moments": 1, "build_design": 0}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from([Family.HERMITE, Family.HALF_TRIG]),
       m=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_cache_slices_match_direct_builds(family, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(300)
    sample = Sample(x=x, y=x * x + 0.25 * rng.standard_normal(300))
    cache = DesignCache(sample, family, 12)
    spec = cache.spec_for(m)
    np.testing.assert_allclose(cache._gram[:m, :m], gram(eval_basis(spec, x)),
                               rtol=1e-12)
    np.testing.assert_allclose(cache.theta(m), fit_derivative(sample, spec).theta,
                               rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(list(Family)), m=st.integers(1, 15),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 16))
def test_theta_is_linear_in_y(family, m, a, b, seed):
    rng = np.random.default_rng(seed)
    if family is Family.TRIG_ODD:
        x, m = rng.uniform(0, 1, 300), m | 1
    elif family is Family.LEGENDRE:
        x = rng.uniform(-1, 1, 300)
    elif family is Family.LAGUERRE:
        x = rng.exponential(1.0, 300)
    else:
        x = rng.standard_normal(300)
    y1, y2 = rng.standard_normal(300), np.sin(3 * x) + rng.standard_normal(300)
    interval = (-1.5, 1.5) if family is Family.HALF_TRIG else None
    caches = [DesignCache(Sample(x=x, y=y), family, m, interval)
              for y in (y1, y2, a * y1 + b * y2)]
    # the Gram, and so its singular dimensions, does not depend on y
    m = max(d for d in admissible_dims(family, m) if d < caches[0].m_singular)
    theta = [cache.theta(m) for cache in caches]
    scale = abs(a) * np.linalg.norm(theta[0]) + abs(b) * np.linalg.norm(theta[1])
    assert (np.linalg.norm(theta[2] - (a * theta[0] + b * theta[1]))
            <= 1e-10 * scale)
