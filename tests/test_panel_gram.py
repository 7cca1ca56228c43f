"""Panel products: the Gram and the moments of a column prefix are the
leading blocks of the full products, bit for bit, so one top-dimension
product per sample serves every nested dimension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivfit.design
import derivfit.estimators
import derivfit.selection
from derivfit.basis import Family, delta_matrix, eval_basis
from derivfit.design import Sample, gram, is_singular, moments
from derivfit.estimators import Strategy
from derivfit.selection import DesignCache, Selection, fit_derivative
from oracles import build_design


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def _layouts(phi, rng):
    """phi as C-ordered, F-ordered and column-sliced arrays."""
    n, k = phi.shape
    wide = rng.standard_normal((n, k + 5))
    wide[:, 2:2 + k] = phi
    return {"C": np.ascontiguousarray(phi), "F": np.asfortranarray(phi),
            "C-sliced": wide[:, 2:2 + k],
            "F-sliced": np.asfortranarray(wide)[:, 2:2 + k]}


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.just(1), st.integers(1, 600)), k=st.integers(1, 45),
       data=st.data(), seed=st.integers(0, 2 ** 16))
def test_panel_products_are_prefix_exact(n, k, data, seed):
    m = data.draw(st.integers(1, k), label="m")
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)
    y = rng.standard_normal(n)
    top_gram, top_rhs = gram(np.asfortranarray(phi)), moments(np.asfortranarray(phi), y)
    assert _same_bits(top_gram, top_gram.T)
    ref = phi.T @ phi / n
    assert np.linalg.norm(top_gram - ref) <= 1e-14 * np.linalg.norm(ref)
    np.testing.assert_allclose(top_rhs, phi.T @ y / n, rtol=1e-12,
                               atol=1e-14 * np.abs(phi).max() * np.abs(y).max())
    for name, layout in _layouts(phi, rng).items():
        assert _same_bits(gram(layout), top_gram), name
        assert _same_bits(moments(layout, y), top_rhs), name
        assert _same_bits(gram(layout[:, :m]), top_gram[:m, :m]), name
        assert _same_bits(moments(layout[:, :m], y), top_rhs[:m]), name


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8195, 20_000])
def test_row_blocked_gram_is_prefix_exact(monkeypatch, n):
    rng = np.random.default_rng(n)
    k = 21
    phi = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)
    y = rng.standard_normal(n)
    ref = phi.T @ phi / n
    monkeypatch.setattr(derivfit.design, "ROW_BLOCK", n)
    full_height = gram(phi)
    monkeypatch.undo()
    for name, layout in _layouts(phi, rng).items():
        top_gram, top_rhs = gram(layout), moments(layout, y)
        assert np.linalg.norm(top_gram - ref) <= 1e-14 * np.linalg.norm(ref), name
        if n <= derivfit.design.ROW_BLOCK:
            assert _same_bits(top_gram, full_height), name
        for m in range(1, k + 1):
            assert _same_bits(gram(layout[:, :m]), top_gram[:m, :m]), (name, m)
            assert _same_bits(moments(layout[:, :m], y), top_rhs[:m]), (name, m)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([Family.HERMITE, Family.HALF_TRIG]),
       n=st.sampled_from([250, 300, 1000]), m=st.integers(1, 16),
       seed=st.integers(0, 2 ** 16))
def test_cache_and_direct_builds_agree_bitwise(family, n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    sample = Sample(x=x, y=np.sin(2 * x) + 0.25 * rng.standard_normal(n))
    cache = DesignCache(sample, family, 16)
    spec = cache.spec_for(m)
    for dim in (m, spec.extended().m):
        direct = build_design(sample, cache.spec_for(dim))
        assert _same_bits(cache._gram[:dim, :dim],
                          gram(eval_basis(cache.spec_for(dim), x)))
        assert is_singular(cache.eigvals(dim)) == is_singular(direct)
        if not is_singular(direct):
            assert _same_bits(cache.theta(dim),
                              fit_derivative(sample, cache.spec_for(dim)).theta)
    if not is_singular(cache.eigvals(spec.extended().m)):
        assert _same_bits(fit_derivative(sample, spec, Strategy.PROJECTION_OF_DERIV).theta,
                          -(delta_matrix(spec) @ cache.theta(spec.extended().m)))


@pytest.fixture()
def product_calls(monkeypatch):
    """Counts gram and moments calls, under every module binding."""
    calls = {"gram": 0, "moments": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        original = getattr(derivfit.design, name)
        for module in (derivfit.design, derivfit.selection, derivfit.estimators):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, original))
    return calls


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_one_tall_product_per_cache(product_calls, monkeypatch, family):
    blocks = []  # the Grams whose eigenvalues the cache computes
    original = derivfit.selection.design_from_matrices

    def recording(psi_hat):
        blocks.append(psi_hat)
        return original(psi_hat)

    monkeypatch.setattr(derivfit.selection, "design_from_matrices", recording)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)
    sample = Sample(x=x, y=x * x + 0.25 * rng.standard_normal(1000))
    m_grid = tuple(range(1, 31)) if family is Family.HERMITE else tuple(range(1, 31, 2))
    selection = Selection(sample, family, m_grid, kappa0=0.5, kappa1=0.5)
    cache, members = selection.cache, selection.members
    assert product_calls == {"gram": 1, "moments": 1}
    selection.m_reuse
    selection.m_hat
    cache.thetas(members)
    assert product_calls == {"gram": 1, "moments": 1}
    for m in members:
        cache.eigvals(m)
    assert len(blocks) >= len(members)
    for block in blocks:
        k = len(block)
        assert np.shares_memory(block, cache._gram)
        assert _same_bits(block, cache._gram[:k, :k])
