"""Dimension selection: penalties, the pairwise-comparison selector,
oracle and reuse strategies, noise-level estimation."""

import numpy as np
import pytest

import derivfit.selection
from derivfit.basis import BasisSpec, Family, eval_basis
from derivfit.design import Sample, default_d_constant, trim_interval
from derivfit.errors import EmptyCollectionError
from derivfit.estimators import Strategy
from derivfit.selection import (EVAL_GRID_POINTS, KAPPA, DesignCache, Selection,
                                _first_minimum, _oracle_error_sweep,
                                _whitened, collection_members,
                                default_m_grid, estimate_sigma2, fit_derivative_1,
                                gl_select, oracle_select, penalty_v_hat, reuse_select)
from derivfit.simulation import (TEST_FUNCTIONS, ExperimentConfig, generate_sample,
                                 rng_for)
from oracles import gl_record


def normal_sample(seed, n, fn=None, sigma=0.25):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = np.zeros(n) if fn is None else fn(x) + sigma * rng.standard_normal(n)
    return Sample(x=x, y=y)


def whitened_block(cache, m):
    """The m-by-m whitened derivative Gram L^-1 Psi' L^-T of the cache."""
    return _whitened(cache.factor[:m, :m], cache.derivative_root(m))


def test_penalty_zero_for_constant_basis():
    rng = np.random.default_rng(0)
    sample = Sample(x=rng.uniform(0, 1, 100), y=np.zeros(100))
    whitened = whitened_block(DesignCache(sample, Family.TRIG_ODD, 1), 1)
    assert penalty_v_hat(whitened, sigma2=1.0, n=100) == 0.0


def test_penalty_linear_in_sigma2():
    rng = np.random.default_rng(1)
    sample = Sample(x=rng.uniform(0, 1, 300), y=np.zeros(300))
    whitened = whitened_block(DesignCache(sample, Family.TRIG_ODD, 5), 5)
    v1 = penalty_v_hat(whitened, 1.0, 300)
    assert penalty_v_hat(whitened, 2.0, 300) == pytest.approx(2 * v1, rel=1e-12)


def test_penalty_monotone_in_m():
    rng = np.random.default_rng(2)
    for family, xs in [(Family.TRIG_ODD, rng.uniform(0, 1, 600)),
                       (Family.HERMITE, rng.standard_normal(600))]:
        sample = Sample(x=xs, y=np.zeros(600))
        grid = default_m_grid(family, 600, 9)
        # the members' blocks of one whitened matrix, as the selector reads them
        whitened = whitened_block(DesignCache(sample, family, max(grid)), max(grid))
        values = [penalty_v_hat(whitened[:m, :m], 1.0, 600) for m in grid]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(values[:-1])))


def test_gl_singleton_collection():
    fn = TEST_FUNCTIONS["b2"]
    sample = normal_sample(3, 500, fn.b)
    selection, fit = gl_select(sample, Family.HERMITE, (2,), sigma2=0.0625)
    assert selection.m_hat == 2
    assert fit.m == 2
    a_value = selection.compare()[1][selection.members.index(2)]
    assert a_value == 0.0  # sup over the single member clips at zero
    assert selection.members == [2]


def test_gl_tie_break_prefers_smaller_m():
    # constant responses: every fit has zero derivative, every criterion ties
    rng = np.random.default_rng(4)
    sample = Sample(x=rng.uniform(0, 1, 400), y=np.ones(400))
    selection, _ = gl_select(sample, Family.TRIG_ODD, (1, 3, 5), sigma2=1e-6)
    assert selection.m_hat == 1


def test_gl_penalties_scale_with_sigma2():
    fn = TEST_FUNCTIONS["b3"]
    sample = normal_sample(5, 400, fn.b)
    s1, _ = gl_select(sample, Family.HERMITE, range(1, 8), sigma2=0.0625)
    s2, _ = gl_select(sample, Family.HERMITE, range(1, 8), sigma2=0.125)
    v_hat2 = dict(zip(s2.members, s2.v_hat.tolist()))
    for m, v_hat1 in zip(s1.members, s1.v_hat.tolist()):
        assert v_hat2[m] == pytest.approx(2 * v_hat1, rel=1e-12)


def test_gl_selected_m_is_member_and_attains_minimum():
    fn = TEST_FUNCTIONS["b1"]
    sample = normal_sample(6, 800, fn.b)
    selection, _ = gl_select(sample, Family.HALF_TRIG, sigma2=0.0625)
    assert selection.m_hat in selection.members
    crits = dict(zip(selection.members,
                     (selection.compare()[1] + KAPPA * selection.v_hat).tolist()))
    assert crits[selection.m_hat] <= min(crits.values()) + 1e-12
    assert np.all(np.diff(selection.v_hat) >= -1e-12)


def test_gl_select_returns_its_pass():
    """gl_select's first value is the Selection pass itself, whose m_hat is
    compare()'s choice under the pass's kappas and one of its members, and
    its fit is the strategy-1 fit there: what callers of gl_select read."""
    sample = normal_sample(5, 1000, TEST_FUNCTIONS["b3"].b)
    for family in (Family.HERMITE, Family.HALF_TRIG):
        selection, fit = gl_select(sample, family, kappa0=0.5, kappa1=2.0)
        assert isinstance(selection, Selection)
        assert selection.m_hat == selection.compare()[0]
        assert selection.m_hat in selection.members
        assert fit.m == selection.m_hat and fit.strategy is Strategy.DERIV_OF_PROJECTION
        np.testing.assert_array_equal(fit.theta, selection.cache.theta(selection.m_hat))


def test_gl_small_dimension_for_in_span_target():
    # the target equals the first basis element up to scale, so the
    # selector should stay at the bottom of the collection
    fn = TEST_FUNCTIONS["b2"]
    small = 0
    seeds = 50
    for seed in range(seeds):
        sample = normal_sample(1000 + seed, 1000, fn.b)
        selection, _ = gl_select(sample, Family.HERMITE, sigma2=0.0625)
        if selection.m_hat <= 3:
            small += 1
    assert small >= 0.8 * seeds


def test_gl_empty_collection_raises():
    sample = normal_sample(7, 50)
    with pytest.raises(EmptyCollectionError):
        gl_select(sample, Family.HERMITE, (8,), sigma2=1.0, d_constant=1e-12)


def test_bad_tuning_is_rejected_before_any_cache_in_every_mode(monkeypatch):
    """The selectors and the harness's config share one check of kappa0,
    kappa1, sigma2 and d, and its messages; the oracle mode makes it too."""
    def no_cache(*args, **kwargs):
        raise AssertionError("a cache was built")

    monkeypatch.setattr(DesignCache, "__init__", no_cache)
    sample = normal_sample(15, 500, np.sin)
    for tuning, message in (
            ({"kappa0": 2.0, "kappa1": 1.0}, "require finite 0 < kappa0 <= kappa1"),
            ({"kappa0": 0.0}, "require finite 0 < kappa0 <= kappa1"),
            ({"kappa0": "0.5"}, "require finite 0 < kappa0 <= kappa1"),
            ({"kappa1": None}, "require finite 0 < kappa0 <= kappa1"),
            ({"sigma2": -1.0}, "sigma2 must be positive"),
            ({"sigma2": "guess"}, "sigma2 must be positive"),
            ({"d_constant": 0.0}, "the collection constant d must be finite")):
        with pytest.raises(ValueError, match=message):
            gl_select(sample, Family.HERMITE, **tuning)
        for mode in ("oracle", "gl", "reuse"):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(mode=mode, **tuning)
        if not tuning.keys() & {"kappa0", "kappa1"}:  # reuse has no kappa
            with pytest.raises(ValueError, match=message):
                reuse_select(sample, Family.HERMITE, **tuning)


def test_a_pass_compares_with_its_own_checked_kappas():
    """compare and m_hat default to the pass's kappa0 and kappa1; constants
    given to compare are checked as the pass's own are."""
    sample = normal_sample(5, 1000, TEST_FUNCTIONS["b3"].b)
    selection = Selection(sample, Family.HALF_TRIG, kappa0=0.5, kappa1=2.0)
    assert (selection.kappa0, selection.kappa1) == (0.5, 2.0)
    chosen = gl_select(sample, Family.HALF_TRIG, kappa0=0.5, kappa1=2.0)[0]
    assert gl_record(selection) == gl_record(selection, 0.5, 2.0) == gl_record(chosen)
    assert selection.compare()[0] == chosen.m_hat
    assert gl_record(selection, kappa1=8.0) == gl_record(selection, 0.5, 8.0)
    for kappa0, kappa1 in ((-1.0, -1.0), (0.0, None), (3.0, None), (None, np.inf)):
        with pytest.raises(ValueError, match="require finite 0 < kappa0 <= kappa1"):
            selection.compare(kappa0, kappa1)


def test_an_interval_for_a_fixed_support_family_is_rejected_before_the_basis(
        monkeypatch):
    """The library rejects it as the CLI does: only half-trig rescales."""
    def no_basis(*args, **kwargs):
        raise AssertionError("the basis was evaluated")

    monkeypatch.setattr(derivfit.selection, "eval_basis", no_basis)
    sample = normal_sample(17, 500, np.sin)
    message = "has a fixed support; interval not allowed"
    for build in (
            lambda: gl_select(sample, Family.HERMITE, interval=(5.0, 6.0)),
            lambda: reuse_select(sample, Family.LAGUERRE, interval=(np.nan, 1.0)),
            lambda: estimate_sigma2(sample, Family.LEGENDRE, interval=(0.0, 1.0)),
            lambda: oracle_select(sample, Family.TRIG_ODD, (1, 3), np.cos, (0.0, 1.0),
                                  interval=(0.0, 1.0)),
            lambda: DesignCache(sample, Family.HERMITE, 5, (9, 1))):
        with pytest.raises(ValueError, match=message):
            build()


def test_sigma2_none_means_estimate_it_everywhere():
    sample = normal_sample(16, 1000, np.sin)
    sigma2 = estimate_sigma2(sample, Family.HERMITE)
    assert gl_record(gl_select(sample, Family.HERMITE, sigma2=None)[0]) == \
        gl_record(gl_select(sample, Family.HERMITE, sigma2=sigma2)[0])
    assert reuse_select(sample, Family.HERMITE, sigma2=None)[0] == \
        reuse_select(sample, Family.HERMITE, sigma2=sigma2)[0]
    for mode in ("gl", "reuse"):
        assert ExperimentConfig(mode=mode, sigma2=None).sigma2 is None
    # a non-number is a bad value, not a type error
    for bad in ("estimate", "0.0625", [0.0625]):
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            gl_select(sample, Family.HERMITE, sigma2=bad)
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            ExperimentConfig(mode="gl", sigma2=bad)
        with pytest.raises(ValueError, match="sigma2 must be positive"):
            reuse_select(sample, Family.HERMITE, sigma2=bad)


# ---------------------------------------------------------------------------
# Oracle selection
# ---------------------------------------------------------------------------

def harness_oracle(sample, truth, kind):
    """The harness's oracle over hermite dimensions 1..25: (m, error) of
    the least squared L2 error of kind's fit on the trimmed design range."""
    cache = DesignCache(sample, Family.HERMITE, 25)
    errors = _oracle_error_sweep(cache, range(1, 26), cache.trimmed, {kind: truth})
    m = _first_minimum(list(errors), [e[kind] for e in errors.values()])
    return m, errors[m][kind]


def test_oracle_zeroes_in_on_exact_representation():
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, 900)
    spec3 = BasisSpec(Family.TRIG_ODD, 3)
    y = eval_basis(spec3, x)[:, 1]  # noiseless second element
    sample = Sample(x=x, y=y)
    truth_deriv = lambda t: -2 * np.pi * np.sqrt(2) * np.sin(2 * np.pi * t)
    m, err, fit = oracle_select(sample, Family.TRIG_ODD, (1, 3, 5, 7), truth_deriv,
                                (0.05, 0.95))
    assert m == 3
    assert err <= 1e-18
    # the strategy-1 fit at the chosen m, from the cache that scored it
    assert fit.m == m and fit.strategy is Strategy.DERIV_OF_PROJECTION
    assert np.array_equal(fit.theta, fit_derivative_1(sample, fit.spec).theta)


def test_oracle_regression_kind():
    fn = TEST_FUNCTIONS["b2"]
    sample = normal_sample(9, 250, fn.b)
    m, err = harness_oracle(sample, fn.b, "regression")
    assert 1 <= m <= 3
    assert err < 0.01


def test_oracle_error_stable_under_grid_doubling(monkeypatch):
    # the 512-point trapezoid rule is converged: doubling the grid moves
    # the reported error by well under 1%
    fn = TEST_FUNCTIONS["b3"]
    assert EVAL_GRID_POINTS == 512
    for seed in range(5):
        rng = rng_for(2024, 1, seed)
        sample = generate_sample(fn, 500, 0.25, rng)
        m512, e512 = harness_oracle(sample, fn.b_prime, "derivative")
        with monkeypatch.context() as patch:
            patch.setattr(derivfit.selection, "EVAL_GRID_POINTS", 1024)
            m1024, e1024 = harness_oracle(sample, fn.b_prime, "derivative")
        assert m512 == m1024
        assert abs(e1024 - e512) <= 0.01 * e512


def test_oracle_dimension_matches_benchmark_for_in_span_target():
    # mean oracle dimension for the regression target stays at the bottom
    fn = TEST_FUNCTIONS["b2"]
    dims = []
    for seed in range(100):
        rng = rng_for(31337, 0, seed)
        sample = generate_sample(fn, 250, 0.25, rng)
        dims.append(harness_oracle(sample, fn.b, "regression")[0])
    assert 1.0 <= np.mean(dims) <= 1.3


# ---------------------------------------------------------------------------
# Reuse selection
# ---------------------------------------------------------------------------

def test_reuse_minimal_dimension_for_noiseless_span_member():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, 500)
    spec = BasisSpec(Family.TRIG_ODD, 3)
    y = eval_basis(spec, x)[:, 2]
    sample = Sample(x=x, y=y)
    m, fit = reuse_select(sample, Family.TRIG_ODD, (1, 3, 5, 7), sigma2=1e-8)
    assert m == 3
    assert fit.m == 3


def test_reuse_selected_m_in_collection():
    fn = TEST_FUNCTIONS["b1"]
    sample = normal_sample(11, 600, fn.b)
    m_grid = default_m_grid(Family.HALF_TRIG, 600)
    m, _ = reuse_select(sample, Family.HALF_TRIG, m_grid, sigma2=0.0625)
    cache = DesignCache(sample, Family.HALF_TRIG, max(m_grid))
    assert m in collection_members(cache, m_grid, default_d_constant(sample.x))


def test_reuse_tracks_derivative_oracle_dimension():
    fn = TEST_FUNCTIONS["b3"]
    hits, seeds = 0, 50
    for seed in range(seeds):
        rng = rng_for(777, 3, seed)
        sample = generate_sample(fn, 1000, 0.25, rng)
        interval = trim_interval(sample)
        m_reuse, _ = reuse_select(sample, Family.HERMITE, sigma2=0.0625)
        m_orc, _, _ = oracle_select(sample, Family.HERMITE,
                                    default_m_grid(Family.HERMITE, 1000),
                                    fn.b_prime, interval)
        if abs(m_reuse - m_orc) <= 2:
            hits += 1
    assert hits >= 0.7 * seeds


# ---------------------------------------------------------------------------
# Noise level estimation
# ---------------------------------------------------------------------------

def test_sigma2_estimate_near_zero_for_noiseless_span_member():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(2000)
    sample = Sample(x=x, y=np.exp(-x * x / 2.0))
    est = estimate_sigma2(sample, Family.HERMITE)
    assert est <= 1e-6


def test_sigma2_estimate_recovers_noise_level():
    fn = TEST_FUNCTIONS["b2"]
    rng = rng_for(99, 0, 0)
    sample = generate_sample(fn, 4000, 0.25, rng)
    est = estimate_sigma2(sample, Family.HERMITE)
    assert 0.055 <= est <= 0.07


def test_sigma2_estimate_shift_invariance_with_constant_in_span():
    fn = TEST_FUNCTIONS["b1"]
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 2000)
    y = fn.b(x) + 0.25 * rng.standard_normal(2000)
    base = estimate_sigma2(Sample(x=x, y=y), Family.TRIG_ODD)
    shifted = estimate_sigma2(Sample(x=x, y=y + 5.0), Family.TRIG_ODD)
    assert shifted == pytest.approx(base, rel=1e-9)


def test_sigma2_requires_enough_observations():
    sample = normal_sample(14, 30)
    with pytest.raises(ValueError):
        estimate_sigma2(sample, Family.HERMITE, m_grid=range(1, 21))


# ---------------------------------------------------------------------------
# The caller's grid
# ---------------------------------------------------------------------------

def test_the_default_grid_stops_at_n():
    """No entry above n can be a member (its Gram is singular), so an m_max
    above n builds the grid m_max = n builds, at a cost independent of m_max."""
    for family in (Family.HERMITE, Family.TRIG_ODD):
        assert default_m_grid(family, 300, 10**6) == default_m_grid(family, 300, 300)


def test_selectors_do_not_depend_on_the_grid_order():
    """A reversed, shuffled or repeating grid gives the ascending grid's
    sigma^2-hat, grid, gl record (members, choice, V-hat and A) and reuse
    choice."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000)
    sample = Sample(x=x, y=np.sin(2 * x) + 0.25 * rng.standard_normal(1000))

    def outcome(m_grid):
        selection, _ = gl_select(sample, Family.HERMITE, m_grid)
        return (estimate_sigma2(sample, Family.HERMITE, m_grid), selection.grid,
                gl_record(selection), reuse_select(sample, Family.HERMITE, m_grid)[0])

    grid = tuple(range(1, 21))
    expected = outcome(grid)
    assert expected[1] == grid
    shuffled = tuple(np.random.default_rng(0).permutation(grid).tolist())
    for m_grid in (grid[::-1], shuffled, grid + grid[10::-2]):
        assert outcome(m_grid) == expected, m_grid


@pytest.mark.parametrize("select", [
    lambda s, family, grid: gl_select(s, family, grid),
    lambda s, family, grid: reuse_select(s, family, grid),
    lambda s, family, grid: estimate_sigma2(s, family, grid),
    lambda s, family, grid: oracle_select(s, family, grid, np.cos, (-1.0, 1.0)),
], ids=["gl", "reuse", "sigma2", "oracle"])
def test_an_empty_grid_is_rejected_before_any_cache(monkeypatch, select):
    """So is a grid with entries the family does not admit (below 1, or
    even for trig-odd; the message names them) or non-integer entries."""
    def no_cache(*args, **kwargs):
        raise AssertionError("a cache was built")

    monkeypatch.setattr(DesignCache, "__init__", no_cache)
    sample = normal_sample(15, 500, np.sin)
    for family, grid, message in (
            (Family.HERMITE, (), "m_grid is empty"),
            (Family.HERMITE, (0, 1, 2), r"the hermite family does not admit: \[0\]"),
            (Family.HERMITE, (-3, 2), r"the hermite family does not admit: \[-3\]"),
            (Family.TRIG_ODD, (1, 2, 3), r"the trig-odd family does not admit: \[2\]")):
        with pytest.raises(ValueError, match=message):
            select(sample, family, grid)
    with pytest.raises(TypeError, match="integer"):
        select(sample, Family.HERMITE, (1.0, 2.0))


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_gl_select_reads_no_residual_but_the_noise_estimates(monkeypatch, family):
    """gl never computes the reuse contrast: sigma^2-hat's one product, of
    the top member alone, is the only residual gl_select reads, and a
    given sigma^2 leaves none."""
    calls = []
    original = DesignCache.residual_ms
    monkeypatch.setattr(DesignCache, "residual_ms",
                        lambda cache, dims: calls.append(list(dims)) or original(cache, dims))
    sample = normal_sample(5, 1000, TEST_FUNCTIONS["b3"].b)
    selection, _ = gl_select(sample, family)
    assert calls == [[selection.members[-1]]] and len(selection.members) > 1
    calls.clear()
    gl_select(sample, family, sigma2=0.0625)
    assert calls == []
