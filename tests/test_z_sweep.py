"""The sweep in z-space: z = L^-1 Phi^T y / n is one forward substitution
per cache, prefix-exact like the factor, and every theta_m is one
back-substitution of z[:m]; every member's residual mean square is the
n-space product of those thetas, which keeps its digits on an offset
with little noise, a noiseless fit in span and an ill-conditioned Gram."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from derivfit.basis import BasisSpec, Family, admissible_dims, eval_basis
from derivfit.design import Sample
from derivfit.errors import SingularGramError
from derivfit.estimators import Strategy
from derivfit.selection import (CRITERION_TIE_TOL, DesignCache, Selection,
                                _first_minimum, _oracle_error_sweep, default_m_grid,
                                estimate_sigma2, fit_derivative_1)
from derivfit.simulation import TEST_FUNCTIONS

EPS = np.finfo(float).eps


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def _cache(family, n, k, seed, noise=0.25):
    rng = np.random.default_rng(seed)
    x = rng.exponential(1.0, n) if family is Family.LAGUERRE else rng.standard_normal(n)
    sample = Sample(x=x, y=np.sin(2 * x) + noise * rng.standard_normal(n))
    interval = (-1.5, 1.5) if family is Family.HALF_TRIG else None
    return DesignCache(sample, family, k, interval)


_families = st.sampled_from([Family.HERMITE, Family.HALF_TRIG, Family.LAGUERRE])


@settings(max_examples=60, deadline=None)
@given(family=_families, n=st.integers(2, 600), k=st.integers(1, 30),
       data=st.data(), seed=st.integers(0, 2 ** 16))
def test_z_of_a_leading_block_is_the_leading_entries_of_z(family, n, k, data, seed):
    cache = _cache(family, n, k, seed)
    assume(len(cache.factor) > 0)
    for m in range(1, len(cache.factor) + 1):
        block = scipy.linalg.blas.dtrsv(cache.factor[:m, :m], cache._rhs[:m], lower=1)
        assert _same_bits(block, cache.z[:m]), m
    # a cache built at a smaller dimension holds the same leading entries
    small = DesignCache(cache.sample, family, data.draw(st.integers(1, k), label="m"),
                        cache.spec.interval)
    if len(small.factor):
        assert _same_bits(small.z, cache.z[:len(small.z)])


@settings(max_examples=60, deadline=None)
@given(family=_families, n=st.integers(2, 600), k=st.integers(1, 30),
       seed=st.integers(0, 2 ** 16))
def test_every_theta_is_one_back_substitution_of_z(family, n, k, seed):
    """theta(m) is bitwise the back-substitution of z[:m] against L_m^T,
    every column of thetas is bitwise theta(m) over exact zeros, and theta
    matches the block cho_solve of the moments within 16 m eps cond(L_m)
    |theta| (3.3 m eps cond(L_m) |theta| was the largest seen over 600
    draws)."""
    cache = _cache(family, n, k, seed)
    dims = [m for m in admissible_dims(family, k) if m < cache.m_singular]
    assume(dims)
    dims = dims[::-1] + dims[:1]  # any order, repeats allowed
    thetas = cache.thetas(dims)
    assert thetas.shape == (max(dims), len(dims))
    for col, m in enumerate(dims):
        block = cache.factor[:m, :m]
        theta = cache.theta(m)
        assert _same_bits(theta, scipy.linalg.blas.dtrsv(block, cache.z[:m], lower=1,
                                                         trans=1)), m
        assert _same_bits(thetas[:m, col], theta) and not thetas[m:, col].any(), m
        ref = scipy.linalg.cho_solve((block, True), cache._rhs[:m])
        bound = 16 * m * EPS * np.linalg.cond(block) * np.linalg.norm(ref)
        assert np.linalg.norm(theta - ref) <= bound, m
    with pytest.raises(SingularGramError):
        cache.thetas([cache.m_singular])


def _n_space_residual_ms(cache, m):
    resid = cache.sample.y - eval_basis(cache.spec_for(m), cache.sample.x) @ cache.theta(m)
    return float(resid @ resid) / cache.sample.n


@settings(max_examples=60, deadline=None)
@given(family=_families, n=st.integers(2, 600), k=st.integers(1, 30),
       noise=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
def test_residual_matches_the_n_space_product(family, n, k, noise, seed):
    """The residual matches a separate n-space product within 4e-12 of it
    plus the rounding of two n-space products: entries of y - Phi theta
    off by about e = m eps (|y|^2/n + spread)^(1/2) in rms, with
    spread = (sum_i |theta_i| sqrt(Gram_ii))^2, move the mean square by
    up to 2 e |r| + e^2."""
    cache = _cache(family, n, k, seed, noise)
    y_ms = float(cache.sample.y @ cache.sample.y) / n
    dims = [m for m in admissible_dims(family, k) if m < cache.m_singular]
    assume(dims)
    scale = np.sqrt(np.diag(cache._gram))
    for m, value in zip(dims, cache.residual_ms(dims)):
        direct = _n_space_residual_ms(cache, m)
        spread = float(np.abs(cache.theta(m)) @ scale[:m]) ** 2
        e = m * EPS * math.sqrt(y_ms + spread)
        bound = 4e-12 * direct + 2 * e * math.sqrt(direct) + e * e
        assert abs(value - direct) <= bound, m
        assert value == cache.residual_ms([m])[0], m  # memoized


def test_noiseless_in_span_sample_takes_the_direct_residual():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(300)
    y = eval_basis(BasisSpec(Family.HERMITE, 4), x) @ [1.0, -0.5, 0.25, 2.0]
    cache = DesignCache(Sample(x=x, y=y), Family.HERMITE, 12)
    y_ms = float(cache.sample.y @ cache.sample.y) / 300
    for m in range(1, 13):
        value = cache.residual_ms([m])[0]
        if m >= 4:  # in span: the fit is exact up to rounding
            assert value <= 1e-28 * y_ms
        else:
            assert value > 1e-3 * y_ms
    sigma2 = estimate_sigma2(cache.sample, Family.HERMITE, m_grid=range(1, 13))
    assert sigma2 <= 1e-28 * y_ms


def _n_space_reuse(cache, members, sigma2):
    n = cache.sample.n
    best_m, best = members[0], math.inf
    for m in members:
        theta = fit_derivative_1(cache.sample, cache.spec_for(m)).theta
        resid = cache.sample.y - eval_basis(cache.spec_for(m), cache.sample.x) @ theta
        value = float(resid @ resid) / n + 2.0 * sigma2 * m / n
        if value < best - CRITERION_TIE_TOL:
            best_m, best = m, value
    return best_m


@pytest.mark.parametrize("family", [Family.TRIG_ODD, Family.LEGENDRE, Family.HALF_TRIG])
def test_an_offset_on_little_noise_keeps_the_n_space_residual(family):
    """y = 1000 + b1(x) + 1e-3 noise: |y|^2/n is 1e12 times the residual,
    so the shortcut |y|^2/n - |z[:m]|^2 would keep about four digits
    (0.6 % relative error on half-trig); sigma^2-hat and the reuse contrast must be those of the
    n-space product."""
    rng = np.random.default_rng(5)
    n = 2000
    x = rng.standard_normal(n) if family is Family.HALF_TRIG else rng.uniform(0, 1, n)
    y = 1000.0 + TEST_FUNCTIONS["b1"].b(x) + 1e-3 * rng.standard_normal(n)
    interval = (-1.5, 1.5) if family is Family.HALF_TRIG else None
    selection = Selection(Sample(x=x, y=y), family, default_m_grid(family, n),
                          interval=interval)
    cache, members, sigma2 = selection.cache, selection.members, selection.sigma2
    for m, value in zip(members, cache.residual_ms(members)):
        direct = _n_space_residual_ms(cache, m)
        assert abs(value - direct) <= 1e-9 * direct, m
    m = members[-1]
    assert sigma2 == pytest.approx(_n_space_residual_ms(cache, m) * n / (n - m), rel=1e-9)
    assert selection.m_reuse == _n_space_reuse(cache, members, sigma2)


@pytest.mark.parametrize("seed, family", [(3, Family.HERMITE), (5, Family.HERMITE),
                                          (11, Family.HALF_TRIG)])
def test_an_ill_conditioned_draw_keeps_the_n_space_residual(seed, family):
    """At the top regular dimension of these draws cond(Gram) is 1.6e9 to
    8.1e9, and the shortcut |y|^2/n - |z[:m]|^2 would be off by 7e-10 to
    1.5e-9 relative (the Gram's rounding theta^T E theta); the residual of
    every regular dimension must match the n-space product, and so must
    sigma^2-hat's own one-dimension product at the top regular dimension
    and the reuse contrast over every regular dimension, and sigma^2-hat
    and the reuse contrast of a pass whose gate (d = 1e300) admits every
    dimension with a regular Gram at m+p (the top member's cond(Gram) is
    4.4e8 to 1.2e9)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 300))
    x = rng.standard_normal(n)
    sample = Sample(x=x, y=np.sin(2 * x) + 0.25 * rng.standard_normal(n))
    interval = (-1.5, 1.5) if family is Family.HALF_TRIG else None
    cache = DesignCache(sample, family, 30, interval)
    dims = [m for m in admissible_dims(family, 30) if m < cache.m_singular]
    top = dims[-1]
    assert np.linalg.cond(cache._gram[:top, :top]) > 1e9
    for m, value in zip(dims, cache.residual_ms(dims)):
        direct = _n_space_residual_ms(cache, m)
        assert abs(value - direct) <= 1e-11 * direct, m
    # sigma^2-hat's product: the top alone, on a cache of its own (no memo)
    own = DesignCache(sample, family, top, interval).residual_ms([top])[0]
    sigma2 = own * n / (n - top)
    assert sigma2 == pytest.approx(_n_space_residual_ms(cache, top) * n / (n - top),
                                   rel=1e-11)
    contrast = cache.residual_ms(dims) + 2.0 * sigma2 * np.asarray(dims) / n
    assert _first_minimum(dims, contrast) == _n_space_reuse(cache, dims, sigma2)
    selection = Selection(sample, family, dims, d_constant=1e300, interval=interval)
    members, sigma2, top = selection.members, selection.sigma2, selection.members[-1]
    assert members == [m for m in dims if selection.cache.spec_for(m).extended().m in dims]
    assert sigma2 == pytest.approx(_n_space_residual_ms(cache, top) * n / (n - top),
                                   rel=1e-11)
    assert selection.m_reuse == _n_space_reuse(cache, members, sigma2)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_one_forward_substitution_per_cache(monkeypatch, family):
    """Through the gate, sigma^2-hat, reuse, gl and grid scoring the cache
    makes one forward substitution (z) past its factor, and one
    back-substitution per dimension whose theta is read."""
    forward, back = [], []
    original = scipy.linalg.blas.dtrsv

    def counting(a, x, *args, **kwargs):
        (back if kwargs.get("trans", 0) else forward).append(a.shape)
        return original(a, x, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "dtrsv", counting)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)
    sample = Sample(x=x, y=x * x + 0.25 * rng.standard_normal(1000))
    m_grid = tuple(range(1, 31)) if family is Family.HERMITE else tuple(range(1, 31, 2))
    DesignCache(sample, family, max(m_grid))
    built = len(forward)  # the prefix factor's rows, as the pass's cache builds them
    forward.clear()
    selection = Selection(sample, family, m_grid, kappa0=0.5, kappa1=0.5)
    cache, members = selection.cache, selection.members
    selection.m_reuse
    selection.m_hat
    _oracle_error_sweep(cache, m_grid, (-1.0, 1.0),
                        {"regression": lambda t: t, "derivative": lambda t: t})
    cache.thetas(members)
    cache.fit(members[-1], Strategy.DERIV_OF_PROJECTION)
    assert forward[built:] == [cache.factor.shape]
    scored = [m for m in m_grid if m < cache.m_singular]
    assert sorted(back) == sorted((m, m) for m in scored)
