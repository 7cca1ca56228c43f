"""The gl sweep in coefficient space agrees with the n-space computation.

The derivative Gram is Delta Gram Delta^T through the link matrix, the
pair distances and the penalties come from it, and the grid scoring from
one product per target.  The n-space oracle below is the direct
computation: derivative columns from the derivative recursion, one fit
vector per member at the sample points, the pairwise loop over those
vectors, the penalty as a generalized eigenvalue of each member's own
derivative Gram against its Gram, and one trapezoid call per
(dimension, target).
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

import derivfit.selection
from derivfit.basis import BasisSpec, Family, admissible_dims, eval_basis, parse_family
from derivfit.design import Sample, gram, is_singular, trim_interval
from derivfit.selection import (CRITERION_TIE_TOL, DesignCache, Selection,
                                _oracle_error_sweep, _whitened, default_m_grid,
                                fit_derivative_1, gl_select, reuse_select)
from derivfit.simulation import (TEST_FUNCTIONS, calibrate_kappa, generate_sample,
                                 rng_for)
from oracles import (derivative_columns, derivative_gram, gl_record,
                     penalties_from_all_eigenvalues)


# ---------------------------------------------------------------------------
# n-space oracle
# ---------------------------------------------------------------------------

def recursion_matrices(spec, x):
    """Values, and derivatives from the derivative recursion (zero outside
    the support)."""
    return eval_basis(spec, x), derivative_columns(spec, x)


def n_space_gl(sample, spec_for, members, sigma2, kappa0, kappa1):
    """(m_hat, V-hat per member, A per member) from fit vectors at the sample;
    V-hat(m) = sigma^2 m / n times the top eigenvalue of Psi' x = lambda Gram x."""
    n = sample.n
    fits, v_hat = {}, {}
    for m in members:
        spec = spec_for(m)
        phi_prime = derivative_columns(spec, sample.x)
        fits[m] = phi_prime @ fit_derivative_1(sample, spec).theta
        lam = scipy.linalg.eigh(phi_prime.T @ phi_prime / n,
                                gram(eval_basis(spec, sample.x)), eigvals_only=True)
        v_hat[m] = sigma2 * m / n * max(lam[-1], 0.0)
    a_value = {}
    for m in members:
        best = 0.0
        for m2 in members:
            if m2 <= m:
                continue
            diff = fits[m] - fits[m2]
            excess = float(diff @ diff / n) - kappa0 * v_hat[m2]
            if excess > best:
                best = excess
        a_value[m] = best
    m_hat, best_crit = members[0], math.inf
    for m in members:
        crit = a_value[m] + kappa1 * v_hat[m]
        if crit < best_crit - CRITERION_TIE_TOL:
            m_hat, best_crit = m, crit
    return m_hat, v_hat, a_value


def n_space_reuse(sample, spec_for, members, sigma2):
    n = sample.n
    best_m, best_crit = members[0], math.inf
    for m in members:
        spec = spec_for(m)
        theta = fit_derivative_1(sample, spec).theta
        resid = sample.y - eval_basis(spec, sample.x) @ theta
        crit = float(resid @ resid / n) + 2.0 * sigma2 * m / n
        if crit < best_crit - CRITERION_TIE_TOL:
            best_m, best_crit = m, crit
    return best_m


def n_space_errors(sample, spec_for, dims, grid, targets):
    """One curve and one trapezoid call per (dimension, target)."""
    out = {}
    for m in dims:
        theta = fit_derivative_1(sample, spec_for(m)).theta
        phi, phi_prime = recursion_matrices(spec_for(m), grid)
        out[m] = {kind: float(trapezoid(((phi if kind == "regression" else phi_prime)
                                         @ theta - target) ** 2, grid))
                  for kind, target in targets.items()}
    return out


def draws(family_name, n_list=(250, 1000), seeds=range(4)):
    """Fixed simulated samples: (family, sample, interval), the interval
    the trimmed range for half-trig, as the harness passes it, and None
    for a fixed-support family."""
    family = parse_family(family_name)
    for n in n_list:
        for seed in seeds:
            fn = TEST_FUNCTIONS[("b1", "b2", "b3", "b4")[seed % 4]]
            sample = generate_sample(fn, n, 0.25, rng_for(31, n, seed))
            yield family, sample, (trim_interval(sample)
                                   if family is Family.HALF_TRIG else None)


# ---------------------------------------------------------------------------
# Derivative columns through the link matrix
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(list(Family)), m=st.integers(1, 30),
       a=st.floats(-3.0, 3.0), width=st.floats(0.2, 6.0), seed=st.integers(0, 2 ** 16))
def test_basis_matrices_take_derivatives_through_the_link_matrix(family, m, a, width,
                                                                 seed):
    if family is Family.TRIG_ODD and m % 2 == 0:
        m += 1
    spec = (BasisSpec(family, m, (a, a + width)) if family is Family.HALF_TRIG
            else BasisSpec(family, m))
    lo, hi = spec.support
    rng = np.random.default_rng(seed)
    # points on and around the support, its finite ends (and the half-trig
    # interval's ends) included, some beyond them
    ends = [e for e in (lo, hi, a, a + width) if math.isfinite(e)]
    centre = 0.5 * (min(ends) + max(ends))
    x = np.concatenate([centre + (max(ends) - min(ends) + 2.0) * rng.uniform(-1, 1, 40),
                        rng.standard_normal(20) * 3.0, ends])
    cache = DesignCache(Sample(x=x, y=np.zeros(x.size)), family, m, spec.interval)
    assert np.array_equal(cache._phi[:, :m], eval_basis(spec, x))
    # the recursion's columns, zero outside the support
    phi_prime = derivative_columns(spec, x)
    reference = phi_prime.T @ phi_prime / x.size
    # Delta Gram Delta^T of the whole Gram, and B B^T where the factor
    # reaches m+p (it stops at a singular leading block)
    formed = [derivative_gram(cache, m)]
    if len(cache.factor) >= spec.extended().m:
        root = cache.derivative_root(m)
        formed.append(root @ root.T)
    for psi_prime in formed:
        assert np.all(np.abs(psi_prime - reference)
                      <= 1e-12 * np.abs(reference).max())


@pytest.mark.parametrize("family,centre", [(Family.LEGENDRE, 0.0),
                                           (Family.LAGUERRE, 0.5)])
def test_designs_beyond_a_bounded_support(family, centre):
    rng = np.random.default_rng(17)
    x = centre + rng.standard_normal(400)
    sample = Sample(x=x, y=np.sin(x) + 0.1 * rng.standard_normal(400))
    lo, hi = BasisSpec(family, 1).support
    outside = (x < lo) | (x > hi)
    assert 50 < outside.sum() < 350
    cache = DesignCache(sample, family, 12)
    root = cache.derivative_root(12)
    for m in (1, 5, 12):
        assert not cache._phi[outside, :m].any()
        phi_prime = derivative_columns(cache.spec_for(m), x)
        reference = phi_prime.T @ phi_prime / sample.n
        # the first m rows of the top root are dimension m's root
        assert (np.abs(root[:m] @ root[:m].T - reference).max()
                <= 1e-12 * np.abs(reference).max())
    selection, fit = gl_select(sample, family, range(1, 13))
    assert selection.m_hat in selection.members and fit.m == selection.m_hat
    m_reuse, _ = reuse_select(sample, family, range(1, 13))
    assert m_reuse in selection.members


# ---------------------------------------------------------------------------
# Coefficient space against the n-space oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family_name", ["hermite", "half-trig"])
def test_gl_penalties_and_comparisons_match_the_n_space_loop(family_name):
    for family, sample, interval in draws(family_name):
        selection = Selection(sample, family, interval=interval)
        for kappa in (0.2, 1.0):
            chosen, _ = gl_select(sample, family, interval=interval,
                                  kappa0=kappa, kappa1=kappa)
            assert gl_record(selection, kappa, kappa) == gl_record(chosen)
            members = chosen.members
            m_hat, v_hat, a_value = n_space_gl(sample, selection.cache.spec_for,
                                               members, selection.sigma2,
                                               kappa, kappa)
            np.testing.assert_allclose(chosen.v_hat, [v_hat[m] for m in members],
                                       rtol=1e-10)
            np.testing.assert_allclose(chosen.compare()[1], [a_value[m] for m in members],
                                       rtol=1e-10)
            assert chosen.m_hat == m_hat


# points per family for the draws of gl's terms below
POINTS = {Family.TRIG_ODD: lambda rng, n: rng.uniform(0, 1, n),
          Family.HALF_TRIG: lambda rng, n: rng.uniform(-0.5, 1.5, n),
          Family.LAGUERRE: lambda rng, n: rng.exponential(1.0, n),
          Family.HERMITE: lambda rng, n: rng.standard_normal(n),
          Family.LEGENDRE: lambda rng, n: rng.uniform(-1, 1, n)}

# (family, seed, grid, d): the five families at n = 300 under the default
# gate (trig-odd's grid is its odd dimensions), two one-member collections
# (trig-odd's constant, whose penalty is 0), and an ill-conditioned draw:
# Laguerre under a gate that admits every non-singular Gram, where the
# top member's Gram has kappa ~ 2.6e9
ROOT_DRAWS = [(family, 5, None, None) for family in Family] + [
    (Family.HERMITE, 5, (2,), None), (Family.TRIG_ODD, 5, (1,), None),
    (Family.LAGUERRE, 28, None, 1e300)]


def root_selection(family, seed, grid, d_constant):
    rng = np.random.default_rng(seed)
    x = POINTS[family](rng, 300)
    sample = Sample(x=x, y=np.sin(3 * x) + 0.1 * rng.standard_normal(300))
    return Selection(sample, family, grid, 1.0, d_constant,
                     (-0.5, 1.5) if family is Family.HALF_TRIG else None)


@pytest.mark.parametrize("draw", ROOT_DRAWS, ids=str)
def test_penalties_are_the_top_eigenvalues_of_the_formed_whitened_gram(draw):
    """V-hat from the root's whitening and one eigenvalue against every
    eigenvalue of the whitened derivative Gram formed in full, within
    k kappa(Gram_{k+p}) eps relative at the top member k; the first j rows
    of the root are zero past dimension j's j+p columns (j admissible)."""
    selection = root_selection(*draw)
    cache, k = selection.cache, selection.members[-1]
    ext = cache.spec_for(k).extended().m
    lam = scipy.linalg.eigvalsh(cache._gram[:ext, :ext])
    oracle = penalties_from_all_eigenvalues(cache, selection.members, selection.sigma2)
    np.testing.assert_allclose(selection.v_hat, oracle, atol=0,
                               rtol=k * lam[-1] / lam[0] * np.finfo(float).eps)
    root = cache.derivative_root(k)
    for j in admissible_dims(cache.family, k):
        assert not root[:j, cache.spec_for(j).extended().m:].any()
    whitened = _whitened(cache.factor[:k, :k], root)
    assert np.array_equal(whitened, whitened.T)


@pytest.mark.parametrize("draw", ROOT_DRAWS, ids=str)
def test_distances_are_those_of_the_fit_vectors_at_the_sample(draw):
    """D_ij against (1/n)|Phi'(theta_i - theta_j)|^2 with the recursion's
    derivative columns, within 1e-10 of the largest."""
    selection = root_selection(*draw)
    sample, members = selection.cache.sample, selection.members
    fits = (derivative_columns(selection.cache.spec_for(members[-1]), sample.x)
            @ selection.cache.thetas(members))
    diff = fits[:, :, None] - fits[:, None, :]
    reference = np.einsum("nij,nij->ij", diff, diff) / sample.n
    assert np.abs(selection.distances - reference).max() <= 1e-10 * reference.max()


@pytest.mark.parametrize("family_name", ["hermite", "half-trig"])
def test_reuse_choice_matches_the_n_space_loop(family_name):
    for family, sample, interval in draws(family_name):
        m_grid = default_m_grid(family, sample.n)
        selection = Selection(sample, family, m_grid, interval=interval)
        m_hat, _ = reuse_select(sample, family, m_grid, interval=interval)
        assert m_hat == n_space_reuse(sample, selection.cache.spec_for, selection.members,
                                      selection.sigma2)


@pytest.mark.parametrize("family_name", ["hermite", "half-trig"])
def test_calibration_choices_match_the_n_space_loop(family_name, monkeypatch):
    """Each draw of the sweep is one pass: every kappa's choice is the
    n-space loop's, and the penalties are computed once per member per
    draw, not once per kappa."""
    calls, penalties = [], []
    original = Selection.compare
    penalty = derivfit.selection.penalty_v_hat

    def recording(selection, kappa0, kappa1):
        result = original(selection, kappa0, kappa1)
        calls.append((selection, kappa0, kappa1, result[0]))
        return result

    monkeypatch.setattr(Selection, "compare", recording)
    monkeypatch.setattr(derivfit.selection, "penalty_v_hat",
                        lambda *args: penalties.append(args) or penalty(*args))
    calibrate_kappa("b3", family_name, 250, [0.1, 0.5, 2.0], seeds=6, seed=4)
    assert len(calls) == 18
    passes = list({id(selection): selection for selection, *_ in calls}.values())
    assert len(passes) == 6
    assert len(penalties) == sum(len(selection.members) for selection in passes)
    for selection, kappa0, kappa1, m_hat in calls:
        assert m_hat == n_space_gl(selection.cache.sample, selection.cache.spec_for,
                                   selection.members, selection.sigma2, kappa0, kappa1)[0]


@pytest.mark.parametrize("family_name", ["hermite", "half-trig"])
def test_batched_grid_scoring_matches_per_dimension_calls(family_name):
    for family, sample, interval in draws(family_name, n_list=(250,)):
        fn = TEST_FUNCTIONS["b2"]
        grid = np.linspace(*trim_interval(sample), 512)
        targets = {"regression": fn.b(grid), "derivative": fn.b_prime(grid)}
        m_grid = default_m_grid(family, sample.n)
        cache = DesignCache(sample, family, max(m_grid), interval)
        errors = _oracle_error_sweep(cache, m_grid, trim_interval(sample),
                                     {"regression": fn.b, "derivative": fn.b_prime})
        expected = n_space_errors(sample, cache.spec_for, list(errors), grid, targets)
        assert list(errors) == [m for m in m_grid if not is_singular(cache.eigvals(m))]
        for m, cell in errors.items():
            for kind in targets:
                assert cell[kind] == pytest.approx(expected[m][kind], rel=1e-10)


@pytest.mark.parametrize("family_name", ["hermite", "half-trig"])
def test_gl_choice_is_invariant_under_permuting_the_sample(family_name):
    for i, (family, sample, interval) in enumerate(draws(family_name)):
        perm = np.random.default_rng(i).permutation(sample.n)
        shuffled = Sample(x=sample.x[perm], y=sample.y[perm])
        selection, _ = gl_select(sample, family, interval=interval)
        permuted, _ = gl_select(shuffled, family, interval=interval)
        assert permuted.members == selection.members and permuted.m_hat == selection.m_hat
        np.testing.assert_allclose(permuted.v_hat, selection.v_hat, rtol=1e-10)
        np.testing.assert_allclose(permuted.compare()[1], selection.compare()[1],
                                   rtol=1e-10)
