"""The prefix Cholesky factor and the bisected bounds of the sweep.

The factor of a leading Gram block is bitwise the leading block of the
top factor, so one factorization per sample serves every dimension; the
first singular dimension and the collection are monotone in m, so the
cache finds both by bisection.  The per-dimension scan below is the rule
the bisection must reproduce: eigenvalues of every leading block.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import derivfit.design
import derivfit.selection
from derivfit.basis import BasisSpec, Family, admissible_dims, eval_basis, l_factor
from derivfit.design import (SINGULAR_RTOL, Sample, default_d_constant, gram,
                             prefix_cholesky, trim_interval)
from derivfit.errors import EmptyCollectionError
from derivfit.selection import DesignCache, collection_members, gl_select, oracle_select


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


def _spec(family, m, x):
    if family is Family.HALF_TRIG:
        return BasisSpec(family, m, trim_interval(Sample(x=x, y=np.zeros(x.size))))
    return BasisSpec(family, m)


def _scan_singular(top_gram, m):
    """The singular rule on the m-by-m leading block, from its own eigenvalues."""
    lam = scipy.linalg.eigvalsh(top_gram[:m, :m])
    return bool(lam[0] <= SINGULAR_RTOL * max(lam[-1], 0.0) or lam[-1] <= 0.0)


def _scan_members(cache, top_gram, m_grid, n, d_constant):
    """Every grid dimension checked one by one: m and m+p non-singular and
    L(m+p) max(||Gram_{m+p}^-1||^2, 1) <= d n / log n."""
    members = []
    for m in m_grid:
        ext = cache.spec_for(m).extended()
        if _scan_singular(top_gram, m) or _scan_singular(top_gram, ext.m):
            continue
        op_inv = 1.0 / scipy.linalg.eigvalsh(top_gram[:ext.m, :ext.m])[0]
        if l_factor(ext) * max(op_inv ** 2, 1.0) <= d_constant * n / math.log(n):
            members.append(m)
    return members


def _cache(family, n, m_hi, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    sample = Sample(x=x, y=x * x + 0.25 * rng.standard_normal(n))
    return DesignCache(sample, family, m_hi)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from([Family.HERMITE, Family.HALF_TRIG]),
       n=st.integers(2, 600), k=st.integers(1, 45), data=st.data(),
       seed=st.integers(0, 2 ** 16))
def test_factor_of_a_leading_block_is_the_leading_block_of_the_factor(
        family, n, k, data, seed):
    m = data.draw(st.integers(1, k), label="m")
    x = np.random.default_rng(seed).standard_normal(n)
    phi = eval_basis(_spec(family, k, x), x)
    top = prefix_cholesky(gram(phi))
    # a build that stopped at row r < m stops there for the block too
    assert _same_bits(prefix_cholesky(gram(phi[:, :m])), top[:m, :m])
    assert _same_bits(top, np.tril(top))
    r = len(top)
    if r:
        psi = gram(phi)[:r, :r]
        assert np.linalg.norm(top @ top.T - psi) <= 1e-13 * np.linalg.norm(psi)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_prefix_factor_through_the_singular_end(family):
    # hermite at n = 250 turns singular near m = 19
    cache = _cache(family, 250, 44, seed=3)
    k = cache.spec_for(44).extended().m
    top_gram = gram(eval_basis(cache.spec_for(k), cache.sample.x))
    first = next(m for m in range(1, k + 1) if _scan_singular(top_gram, m))
    assert first < k and cache.m_singular == first
    assert first - 1 <= len(cache.factor)  # every non-singular block is factored
    for m in range(1, k + 1):
        block = prefix_cholesky(top_gram[:m, :m])
        assert _same_bits(block, cache.factor[:m, :m]), m


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from([Family.HERMITE, Family.HALF_TRIG]),
       n=st.integers(40, 600), m_hi=st.integers(1, 40),
       log_d=st.one_of(st.none(), st.floats(-2.0, 9.0)),
       seed=st.integers(0, 2 ** 16))
def test_bisected_bounds_match_the_full_scan(family, n, m_hi, log_d, seed):
    """On fresh caches, gate first and m_singular first: the members, the
    first singular dimension and solvable(m) for every m <= K agree with
    the per-dimension scan."""
    cache = _cache(family, n, m_hi, seed)
    k = cache.spec_for(m_hi).extended().m
    top_gram = gram(eval_basis(cache.spec_for(k), cache.sample.x))
    singular = [m for m in range(1, k + 1) if _scan_singular(top_gram, m)]
    first = singular[0] if singular else k + 1
    m_grid = admissible_dims(family, m_hi)
    d = default_d_constant(cache.sample.x) if log_d is None else 10.0 ** log_d
    expected = _scan_members(cache, top_gram, m_grid, n, d)

    for gate_first in (True, False):
        cache = _cache(family, n, m_hi, seed)
        if not gate_first:
            assert cache.m_singular == first
        if not expected:
            with pytest.raises(EmptyCollectionError):
                collection_members(cache, m_grid, d)
        else:
            assert collection_members(cache, m_grid, d) == expected
        assert [cache.solvable(m) for m in range(1, k + 1)] == \
            [m < first for m in range(1, k + 1)]
        assert cache.m_singular == first


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
@pytest.mark.parametrize("n", [250, 4000])
def test_a_gated_draw_never_seeks_the_first_singular_dimension(family, n):
    """The gate proves its members solvable: the noise estimate, both
    choices and the scoring of the chosen dimensions read no m_singular."""
    cache = _cache(family, n, min(40, n // 10), seed=n)
    m_grid = admissible_dims(family, min(40, n // 10))
    members = collection_members(cache, m_grid, None)
    sigma2 = derivfit.selection._sigma2(cache, members)
    chosen = {derivfit.selection._reuse_choice(cache, members, sigma2),
              derivfit.selection._gl_choice(cache, members, sigma2, 1.0, 1.0)[0]}
    grid = np.linspace(*trim_interval(cache.sample), 64)
    errors = derivfit.selection._oracle_error_sweep(
        cache, sorted(chosen), grid, {"derivative": 2.0 * grid})
    assert sorted(errors) == sorted(chosen)
    assert "m_singular" not in cache.__dict__


def test_the_gate_refuses_a_grid_it_cannot_bisect():
    cache = _cache(Family.HERMITE, 1000, 20, seed=1)
    for m_grid in (tuple(range(20, 0, -1)), (1, 2, 2, 3)):
        with pytest.raises(ValueError, match="ascending without repeats"):
            collection_members(cache, m_grid, None)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_one_factorization_and_logarithmically_many_probes(family, monkeypatch):
    counts = {"factor": 0, "design": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    factor = counted("factor", derivfit.design.prefix_cholesky)
    for module in (derivfit.design, derivfit.selection):
        monkeypatch.setattr(module, "prefix_cholesky", factor)
    monkeypatch.setattr(derivfit.selection, "design_from_matrices",
                        counted("design", derivfit.selection.design_from_matrices))
    bound = math.ceil(math.log2(41)) + 1  # K = 41 columns for m_hi = 40 in both families

    cache = _cache(family, 4000, 40, seed=11)
    cache.m_singular
    assert counts == {"factor": 1, "design": counts["design"]}
    assert 1 <= counts["design"] <= bound
    searched = counts["design"]
    collection_members(cache, admissible_dims(family, 40), None)
    assert counts["design"] - searched <= bound
    assert counts["factor"] == 1

    counts.update(factor=0, design=0)
    sample = cache.sample
    gl_select(sample, family)
    assert counts["factor"] == 1 and counts["design"] <= bound
    counts.update(factor=0, design=0)
    oracle_select(sample, family, admissible_dims(family, 40), lambda t: 2 * t,
                  trim_interval(sample))
    assert counts["factor"] == 1 and counts["design"] <= bound
