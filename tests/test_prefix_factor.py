"""The prefix Cholesky factor, its certified bounds and the bisected
bounds of the sweep.

The factor of a leading Gram block is bitwise the leading block of the
top factor, so one factorization per sample serves every dimension; the
first singular dimension and the collection are monotone in m, so the
cache finds both by bisection, and the factor's inverse proves most
probes with no eigendecomposition.  The per-dimension scan below is the
rule the bisection and the certificates must reproduce: eigenvalues of
every leading block.
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
from derivfit.design import (SINGULAR_MARGIN, SINGULAR_RTOL, Sample, _budget,
                             certified_collection, certified_dims, default_d_constant,
                             gram, is_singular, prefix_cholesky, stability_check,
                             trim_interval)
from derivfit.errors import EmptyCollectionError
from derivfit.selection import (DesignCache, Selection, collection_members, gl_select,
                                oracle_select)


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


def _sample(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return Sample(x=x, y=x * x + 0.25 * rng.standard_normal(n))


def _cache(family, n, m_hi, seed):
    return DesignCache(_sample(n, seed), family, m_hi)


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
    selection = Selection(_sample(n, seed=n), family,
                          admissible_dims(family, min(40, n // 10)))
    cache = selection.cache
    chosen = {selection.m_reuse, selection.gl().m_hat}
    errors = derivfit.selection._oracle_error_sweep(
        cache, sorted(chosen), trim_interval(cache.sample), {"derivative": lambda t: 2.0 * t})
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
    assert 0 <= counts["design"] <= bound  # a fully certified draw probes nothing
    searched = counts["design"]
    collection_members(cache, admissible_dims(family, 40),
                       default_d_constant(cache.sample.x))
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


ALL_FAMILIES = [Family.HERMITE, Family.HALF_TRIG, Family.LAGUERRE, Family.LEGENDRE,
                Family.TRIG_ODD]


def _points(family, n, rng):
    if family is Family.LAGUERRE:
        return np.abs(rng.standard_normal(n)) * 2.0
    if family is Family.LEGENDRE:
        return rng.uniform(-1.0, 1.0, n)
    if family is Family.TRIG_ODD:
        return rng.uniform(0.0, 1.0, n)
    return rng.standard_normal(n)


def _assert_certificates_agree(top_gram, factor):
    """Every dimension certified_dims settles, in its prefix and beyond u,
    is settled so by the singular rule on eigh's eigenvalues."""
    f, c, u = certified_dims(top_gram, factor)
    k = len(factor)
    ratio = SINGULAR_RTOL * f * np.cumsum(np.diagonal(top_gram)[:k])
    proved_singular = [m for m in range(1, k + 1) if ratio[m - 1] >= SINGULAR_MARGIN * m * m]
    assert u == (proved_singular[0] if proved_singular else k + 1)
    for m in range(1, c + 1):
        assert not is_singular(scipy.linalg.eigh(top_gram[:m, :m], eigvals_only=True)), m
    for m in proved_singular:
        assert is_singular(scipy.linalg.eigh(top_gram[:m, :m], eigvals_only=True)), m
    return c, proved_singular


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(ALL_FAMILIES), n=st.integers(2, 4000),
       k=st.integers(1, 45), seed=st.integers(0, 2 ** 32 - 1))
def test_certificates_agree_with_the_eigenvalues_on_basis_grams(family, n, k, seed):
    if family is Family.TRIG_ODD:
        k -= 1 - k % 2
    x = _points(family, n, np.random.default_rng(seed))
    top_gram = gram(eval_basis(_spec(family, k, x), x))
    _assert_certificates_agree(top_gram, prefix_cholesky(top_gram))


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 45), low=st.integers(1, 44),
       log_ratio=st.floats(math.log10(SINGULAR_RTOL / (8 * SINGULAR_MARGIN)),
                           math.log10(4 * SINGULAR_MARGIN * SINGULAR_RTOL)),
       scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_certificates_agree_with_the_eigenvalues_at_the_cutoff(k, low, log_ratio,
                                                               scale, seed):
    """Grams Q diag(lambda) Q^T with lambda_min/lambda_max from an eighth
    of a margin under SINGULAR_RTOL to four margins over it: min(low, k-1)
    eigenvalues at the bottom, the rest at the top.  F t is then near
    kappa (two eigenvalues) to kappa m^2/4 (half and half), so the rule
    "not singular" is probed at its edge kappa = 1/(margin SINGULAR_RTOL)
    and the rule "singular", which needs kappa >= 4 margin/SINGULAR_RTOL
    at best, at its edge too."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = np.full(k, 10.0 ** scale)
    lam[:min(low, k - 1)] *= 10.0 ** log_ratio
    raw = (q * lam) @ q.T
    top_gram = (raw + raw.T) / 2.0
    _assert_certificates_agree(top_gram, prefix_cholesky(top_gram))


def test_both_certificates_settle_grams_at_the_cutoff():
    # the constructed Grams above reach both rules: two eigenvalues, so
    # F t = kappa + 2 + 1/kappa, just inside each rule's edge
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))
    for ratio, settled in ((1.05 * SINGULAR_MARGIN * SINGULAR_RTOL, "not singular"),
                           (SINGULAR_RTOL / (4.2 * SINGULAR_MARGIN), "singular")):
        raw = (q * [ratio, 1.0]) @ q.T
        top_gram = (raw + raw.T) / 2.0
        c, proved_singular = _assert_certificates_agree(top_gram, prefix_cholesky(top_gram))
        assert (c == 2) if settled == "not singular" else (proved_singular == [2])


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG, Family.LEGENDRE])
@pytest.mark.parametrize("n", [60, 250, 4000])
def test_a_certified_gate_decision_is_stability_check(family, n):
    """At every dimension proved not singular, with d within 1 % of the
    gate's edge (and, to reach the bounds' loose side, 10^+-3 times it),
    a decision certified_collection settles is stability_check's."""
    x = _points(family, n, np.random.default_rng(n))
    top_gram = gram(eval_basis(_spec(family, 41, x), x))
    f, c, _ = certified_dims(top_gram, prefix_cholesky(top_gram))
    settled = 0
    for m in range(1, c + 1):
        spec = _spec(family, m, x)
        lam = scipy.linalg.eigh(top_gram[:m, :m], eigvals_only=True)
        edge = l_factor(spec) * max((1.0 / lam[0]) ** 2, 1.0) / _budget(n)
        for factor in (*np.linspace(0.99, 1.01, 21), 1e-3, 1e3):
            d = edge * factor
            decision = certified_collection(spec, f[m - 1], n, d)
            if decision is not None:
                settled += 1
                assert decision == stability_check(spec, lam, n, d)[1], (m, factor)
    assert settled


def _plain_bisection_probes(keys) -> int:
    """The probes of bisect_left over a list of booleans."""
    probes, lo, hi = 0, 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        lo, hi = (lo, mid) if keys[mid] else (mid + 1, hi)
    return probes


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
@pytest.mark.parametrize("n,seed", [(250, 3), (1000, 5), (4000, 11), (4000, 12)])
def test_certified_dimensions_are_never_probed(family, n, seed, monkeypatch):
    """m_singular and the gate leave no eigvals entry at or under c or at or
    above u (the gate's only one under c is a probe its bounds leave
    open), and neither makes more eigendecompositions than a plain
    bisection of every admissible dimension would."""
    calls = []
    binding = derivfit.selection.design_from_matrices
    monkeypatch.setattr(derivfit.selection, "design_from_matrices",
                        lambda g: calls.append(len(g)) or binding(g))
    m_hi = min(40, n // 10)
    cache = _cache(family, n, m_hi, seed)
    k = len(cache.factor)
    _, c, u = cache.certified
    dims = admissible_dims(family, k)
    singular = [_scan_singular(cache._gram, m) for m in dims]
    cache.m_singular
    assert all(c < m < u for m in cache._eigvals)
    assert len(calls) <= _plain_bisection_probes(singular)

    calls.clear()
    cache = _cache(family, n, m_hi, seed)
    m_grid = admissible_dims(family, m_hi)
    d = default_d_constant(cache.sample.x)
    members = collection_members(cache, m_grid, d)
    f = cache.certified[0]
    for m in cache._eigvals:
        assert m < u
        assert m > c or certified_collection(cache.spec_for(m), f[m - 1], n, d) is None
    keys = [m not in members for m in m_grid]
    assert len(calls) <= _plain_bisection_probes(keys)
