"""Basis families: values, derivatives, link matrices, sup factors."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derivfit.design
from derivfit.basis import (EVAL_BLOCK, BasisSpec, Family, admissible_dims,
                            delta_matrix, eval_basis, eval_basis_derivative,
                            l_factor, parse_family)
from derivfit.design import Sample
from derivfit.estimators import Strategy, evaluate_fit
from derivfit.selection import DesignCache
from oracles import derivative_recursion, l_prime_factor

ALL_FAMILIES = [Family.TRIG_ODD, Family.HALF_TRIG, Family.LAGUERRE,
                Family.HERMITE, Family.LEGENDRE]
ORTHONORMAL = [Family.TRIG_ODD, Family.LAGUERRE, Family.HERMITE, Family.LEGENDRE]


def make_spec(family, m, interval=(0.25, 1.75)):
    if family is Family.HALF_TRIG:
        return BasisSpec(family, m, interval)
    if family is Family.TRIG_ODD and m % 2 == 0:
        m += 1
    return BasisSpec(family, m)


def panel_gauss(lo, hi, panels=64, order=12):
    """Composite Gauss-Legendre rule (independent quadrature oracle)."""
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * base_x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def quad_domain(spec):
    if spec.family is Family.HALF_TRIG:
        return spec.interval
    if spec.family is Family.LAGUERRE:
        return 0.0, 2.0 * spec.m + 40.0
    if spec.family is Family.HERMITE:
        cut = math.sqrt(2.0 * spec.m + 3.0) + 10.0
        return -cut, cut
    return spec.support


def interior_points(spec, rng, size):
    lo, hi = quad_domain(spec)
    pts = rng.uniform(lo, hi, size)
    return np.clip(pts, lo + 1e-3, hi - 1e-3)


# ---------------------------------------------------------------------------
# Point values from the defining formulas
# ---------------------------------------------------------------------------

def test_trig_values_at_zero():
    vals = eval_basis(BasisSpec(Family.TRIG_ODD, 3), 0.0)
    np.testing.assert_allclose(vals, [1.0, math.sqrt(2), 0.0], atol=1e-15)


def test_laguerre_values_at_zero():
    vals = eval_basis(BasisSpec(Family.LAGUERRE, 2), 0.0)
    np.testing.assert_allclose(vals, [math.sqrt(2), math.sqrt(2)], rtol=1e-14)


def test_legendre_values_at_zero():
    vals = eval_basis(BasisSpec(Family.LEGENDRE, 2), 0.0)
    np.testing.assert_allclose(vals, [1 / math.sqrt(2), 0.0], atol=1e-15)


def test_hermite_value_at_zero():
    vals = eval_basis(BasisSpec(Family.HERMITE, 1), 0.0)
    np.testing.assert_allclose(vals, [math.pi ** -0.25], rtol=1e-14)


def test_outside_support_is_zero_vector():
    for family in ALL_FAMILIES:
        spec = make_spec(family, 5)
        lo, hi = spec.support
        for x in ([lo - 0.5] if math.isfinite(lo) else []) + \
                 ([hi + 0.5] if math.isfinite(hi) else []):
            assert np.all(eval_basis(spec, x) == 0.0)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_values_are_c_ordered_with_zero_rows_outside_the_support(family):
    spec = make_spec(family, 12)
    lo, hi = spec.support
    inside = interior_points(spec, np.random.default_rng(5), 40)
    beyond = [b for b in (lo - 0.5, hi + 0.5) if math.isfinite(b)] + [math.nan]
    mixed = np.concatenate([beyond[:1], inside[:20], beyond[1:], inside[20:]])
    for x in (inside, mixed):
        vals = eval_basis(spec, x)
        assert vals.shape == (x.size, spec.m) and vals.flags.c_contiguous
        outside = ~((x >= lo) & (x <= hi))
        assert np.all(vals[outside] == 0.0) and not np.signbit(vals[outside]).any()
        assert np.isfinite(vals[~outside]).all()
        # column j depends only on the columns before it
        narrow = eval_basis(spec.with_m(spec.m - 2), x)
        assert narrow.tobytes() == np.ascontiguousarray(vals[:, :spec.m - 2]).tobytes()
        for point, row in zip(x, vals):
            value = eval_basis(spec, point)
            assert value.shape == (spec.m,) and value.tobytes() == row.tobytes()


BLOCK_EDGES = [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 3]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(ALL_FAMILIES), m=st.integers(1, 16),
       n=st.sampled_from(BLOCK_EDGES).flatmap(lambda e: st.integers(max(1, e - 2), e + 2)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_values_do_not_depend_on_the_blocking(family, m, n, seed, data):
    """eval_basis runs its recurrence EVAL_BLOCK points at a time; every
    step is elementwise, so any split of the points gives the same bits."""
    spec = make_spec(family, m)
    lo, hi = spec.support
    rng = np.random.default_rng(seed)
    x = interior_points(spec, rng, n)
    odd = [b for b in (lo - 0.5, hi + 0.5) if math.isfinite(b)] + [math.nan]
    at = rng.choice(n, size=min(n, 3 * len(odd)), replace=False)
    x[at] = np.resize(odd, at.size)
    vals = eval_basis(spec, x)
    assert vals.shape == (n, spec.m) and vals.flags.c_contiguous
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=6, unique=True)
                     if n > 1 else st.just([]))
    edges = [0, *sorted(cuts), n]
    for a, b in zip(edges, edges[1:]):
        assert eval_basis(spec, x[a:b]).tobytes() == vals[a:b].tobytes()


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_values_need_no_transient_copy_of_the_result(family):
    """The result is the one allocation of its size: the traced peak of a
    large evaluation stays within 1.25 times the result's bytes."""
    spec = make_spec(family, 42)
    x = np.random.default_rng(3).standard_normal(20_000)
    tracemalloc.start()
    try:
        vals = eval_basis(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * vals.nbytes


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_cache_panels_are_views_of_the_cache_values(family):
    rng = np.random.default_rng(8)
    spec = make_spec(family, 3)
    x = interior_points(spec, rng, 300)
    cache = DesignCache(Sample(x, rng.standard_normal(300)), family, 21,
                        spec.interval)
    panels = derivfit.design._panels(cache._phi)
    full = cache._phi.shape[1] // derivfit.design.PANEL_WIDTH
    assert cache._phi.flags.c_contiguous and len(panels) > full >= 1
    assert all(panel.base is cache._phi for panel in panels[:full])


EPS = np.finfo(float).eps


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the reference needs an extended-precision long double")
@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from([Family.HALF_TRIG, Family.TRIG_ODD]),
       m=st.integers(1, 81), log_width=st.floats(-3.0, 3.0),
       shift=st.floats(-10.0, 10.0),
       u=st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=40))
def test_trig_recurrence_drift_grows_linearly_in_the_frequency(family, m, log_width,
                                                               shift, u):
    """The pair of frequency j stays within 2 j eps amp of amp sin(j theta),
    amp cos(j theta), the reference taken in extended precision at the
    double angle theta the basis forms, so the bound measures the drift of
    the powers of e^{i theta} alone.  Half-trig points reach three widths
    beyond [a, b], where the functions extend periodically.  j theta is
    exact in a 64-bit mantissa for j < 2^11."""
    u = np.asarray(u)
    if family is Family.HALF_TRIG:
        width = 10.0 ** log_width
        spec = BasisSpec(family, m, (shift * width, shift * width + width))
        a, b = spec.interval
        x = a + (b - a) * u
        theta, amp, sine_first = np.pi * ((x - a) / (b - a)), math.sqrt(2.0 / (b - a)), True
    else:
        spec = make_spec(family, m)
        x = (u + 3.0) / 7.0
        theta, amp, sine_first = 2.0 * np.pi * x, math.sqrt(2.0), False
    vals = eval_basis(spec, x)
    theta = theta.astype(np.longdouble)
    for col in range(1, spec.m):
        j = (col + 1) // 2
        ref = np.sin(j * theta) if (col % 2 == 1) == sine_first else np.cos(j * theta)
        drift = float(np.abs(vals[:, col] - np.longdouble(amp) * ref).max())
        assert drift <= 2.0 * j * EPS * amp, (col, drift / (j * EPS * amp))


def _phase_rounding(x, a, b):
    """Bound on the rounding of the phase (x - a)/(b - a) over the points x."""
    return EPS * (np.abs(x).max() + abs(a) + abs(b)) / (b - a)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 15), n=st.integers(5, 200), log_alpha=st.floats(-2.0, 2.0),
       shift=st.floats(-10.0, 10.0), a=st.floats(-2.0, 2.0),
       log_width=st.floats(-0.3, 0.3), seed=st.integers(0, 2 ** 16))
def test_half_trig_is_equivariant_under_affine_maps(m, n, log_alpha, shift, a,
                                                    log_width, seed):
    """x -> alpha x + c, with [a, b] mapped alike, keeps the phase
    (x - a)/(b - a): the basis values scale by alpha^-1/2, the Gram by
    1/alpha (so m_singular stays), theta by alpha^1/2, the regression curve
    stays and the derivative curve scales by 1/alpha.  Points reach a
    tenth of a width beyond [a, b].

    Rounding bound: the phase moves by at most delta, the sum of
    _phase_rounding before and after the map, and the pair of frequency j
    by pi j delta of its amplitude, so the values by 4 m delta of the
    largest one.  The Gram and the solve add n eps, and the solve
    amplifies both by the Gram's condition number kappa: theta within
    16 kappa (m delta + n eps) of its norm, the curves within that of
    max|phi_{m+p}(g)| |theta|, the derivative's times ||Delta||."""
    alpha, width = 10.0 ** log_alpha, 10.0 ** log_width
    rng = np.random.default_rng(seed)
    x = a + width * rng.uniform(-0.1, 1.1, n)
    y = np.sin(3.0 * x) + 0.25 * rng.standard_normal(n)
    interval = (a, a + width)
    mapped = tuple(alpha * end + shift for end in interval)
    cache = DesignCache(Sample(x=x, y=y), Family.HALF_TRIG, m, interval)
    image = DesignCache(Sample(x=alpha * x + shift, y=y), Family.HALF_TRIG, m, mapped)
    delta = _phase_rounding(x, *interval) + _phase_rounding(alpha * x + shift, *mapped)

    values = eval_basis(cache.spec, x)
    mapped_values = eval_basis(image.spec, alpha * x + shift)
    assert (np.abs(mapped_values - values / math.sqrt(alpha)).max()
            <= 4 * m * delta * np.abs(values).max() / math.sqrt(alpha))
    assert image.m_singular == cache.m_singular
    # the largest solvable dimension up to m; the constant column alone is never singular
    k = min(m, cache.m_singular - 1)
    lam = cache.eigvals(k)
    tol = 16 * lam[-1] / lam[0] * (m * delta + n * EPS)
    theta = cache.theta(k)
    assert (np.linalg.norm(image.theta(k) - math.sqrt(alpha) * theta)
            <= tol * math.sqrt(alpha) * np.linalg.norm(theta))
    spec = cache.spec_for(k)
    grid = np.linspace(*interval, 64)
    ext = eval_basis(spec.extended(), grid)
    scale = tol * np.linalg.norm(ext, axis=1).max() * np.linalg.norm(theta)
    regression = eval_basis(image.spec_for(k), alpha * grid + shift) @ image.theta(k)
    assert np.abs(regression - ext[:, :k] @ theta).max() <= scale
    derivative = [evaluate_fit(c.fit(k, Strategy.DERIV_OF_PROJECTION), g) for c, g in
                  ((cache, grid), (image, alpha * grid + shift))]
    assert (np.abs(alpha * derivative[1] - derivative[0]).max()
            <= scale * np.linalg.norm(delta_matrix(spec), 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(Family.HERMITE, 0)
    with pytest.raises(ValueError):
        BasisSpec(Family.TRIG_ODD, 4)
    with pytest.raises(ValueError):
        BasisSpec(Family.HALF_TRIG, 3)           # missing interval
    with pytest.raises(ValueError):
        BasisSpec(Family.HALF_TRIG, 3, (2.0, 1.0))
    with pytest.raises(ValueError):
        BasisSpec(Family.LEGENDRE, 3, (0.0, 1.0))  # fixed support


def test_spec_rejects_a_non_integer_dimension():
    with pytest.raises(TypeError, match=r"m = 3\.0"):
        BasisSpec(Family.HERMITE, 3.0)
    with pytest.raises(TypeError, match="m = '3'"):
        BasisSpec(Family.HERMITE, "3")
    assert BasisSpec(Family.HERMITE, np.int64(3)).m == 3  # numpy integers pass


def test_spec_rejects_a_half_trig_interval_that_is_not_a_pair():
    for interval in ((0.0,), (0.0, 1.0, 2.0), 0.5):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(interval))}"):
            BasisSpec(Family.HALF_TRIG, 3, interval)


def test_derivative_overflow_p():
    assert BasisSpec(Family.LAGUERRE, 4).p == 0
    assert BasisSpec(Family.LEGENDRE, 4).p == 0
    assert BasisSpec(Family.TRIG_ODD, 5).p == 0
    assert BasisSpec(Family.HERMITE, 4).p == 1
    assert BasisSpec(Family.HALF_TRIG, 5, (0, 1)).p == 0
    assert BasisSpec(Family.HALF_TRIG, 4, (0, 1)).p == 1


def test_admissible_dims_parity():
    assert admissible_dims(Family.TRIG_ODD, 6) == [1, 3, 5]
    assert admissible_dims(Family.HALF_TRIG, 4) == [1, 2, 3, 4]


def test_parse_family_aliases():
    assert parse_family("Hermite") is Family.HERMITE
    assert parse_family("half-trig") is Family.HALF_TRIG
    with pytest.raises(ValueError):
        parse_family("fourier")


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def test_laguerre_derivative_at_zero():
    vals = eval_basis_derivative(BasisSpec(Family.LAGUERRE, 1), 0.0)
    np.testing.assert_allclose(vals, [-math.sqrt(2)], rtol=1e-14)


def test_hermite_derivative_at_zero():
    vals = eval_basis_derivative(BasisSpec(Family.HERMITE, 1), 0.0)
    np.testing.assert_allclose(vals, [0.0], atol=1e-15)


def test_trig_derivative_at_zero():
    vals = eval_basis_derivative(BasisSpec(Family.TRIG_ODD, 3), 0.0)
    np.testing.assert_allclose(vals, [0.0, 0.0, 2 * math.pi * math.sqrt(2)], atol=1e-12)


def test_derivative_outside_support_raises():
    with pytest.raises(ValueError):
        eval_basis_derivative(BasisSpec(Family.LAGUERRE, 3), -0.1)
    with pytest.raises(ValueError):
        eval_basis_derivative(BasisSpec(Family.LEGENDRE, 3), 1.5)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_derivative_matches_finite_differences(family):
    spec = make_spec(family, 12)
    rng = np.random.default_rng(42)
    pts = interior_points(spec, rng, 200)
    h = 1e-5
    lo, hi = spec.support
    pts = pts[(pts - h > lo) & (pts + h < hi)]
    fd = (eval_basis(spec, pts + h) - eval_basis(spec, pts - h)) / (2 * h)
    exact = eval_basis_derivative(spec, pts)
    scale = np.abs(exact).max() + 1.0
    assert np.abs(fd - exact).max() <= 1e-6 * scale


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_link_matrix_exactness(family):
    for m in (1, 2, 3, 7, 18, 30):
        spec = make_spec(family, m)
        ext = spec.extended()
        delta = delta_matrix(spec)
        rng = np.random.default_rng(m)
        pts = interior_points(spec, rng, 1000)
        derivs = derivative_recursion(spec, pts)
        linked = eval_basis(ext, pts) @ delta.T
        bound = 1e-9 * (1.0 + np.abs(linked).max())
        assert np.abs(derivs - linked).max() <= bound


def test_delta_laguerre_m2():
    delta = delta_matrix(BasisSpec(Family.LAGUERRE, 2))
    np.testing.assert_allclose(delta, [[-1.0, 0.0], [-2.0, -1.0]], atol=1e-15)


def test_delta_hermite_m2():
    delta = delta_matrix(BasisSpec(Family.HERMITE, 2))
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(delta, [[0.0, -s, 0.0], [s, 0.0, -1.0]], rtol=1e-14)


def test_delta_trig_m3():
    delta = delta_matrix(BasisSpec(Family.TRIG_ODD, 3))
    w = 2 * math.pi
    np.testing.assert_allclose(delta, [[0, 0, 0], [0, 0, -w], [0, w, 0]], atol=1e-14)


def test_delta_legendre_m2():
    delta = delta_matrix(BasisSpec(Family.LEGENDRE, 2))
    np.testing.assert_allclose(delta, [[0.0, 0.0], [math.sqrt(3), 0.0]], rtol=1e-14)


def test_delta_trig_antisymmetric_blocks():
    for m in (3, 5, 9):
        delta = delta_matrix(BasisSpec(Family.TRIG_ODD, m))
        assert np.all(delta[0] == 0.0)
        assert np.all(delta[:, 0] == 0.0)
        np.testing.assert_allclose(delta, -delta.T, atol=1e-14)
        for j in range(1, (m - 1) // 2 + 1):
            block = delta[2 * j - 1:2 * j + 1, 2 * j - 1:2 * j + 1]
            w = 2 * math.pi * j
            np.testing.assert_allclose(block, [[0, -w], [w, 0]], atol=1e-14)


def test_delta_triangular_structure():
    dl = delta_matrix(BasisSpec(Family.LAGUERRE, 6))
    assert np.all(np.triu(dl, k=1) == 0.0)
    dg = delta_matrix(BasisSpec(Family.LEGENDRE, 6))
    assert np.all(np.triu(dg, k=0) == 0.0)  # zero diagonal too


# ---------------------------------------------------------------------------
# Orthonormality and sup bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ORTHONORMAL)
def test_orthonormality(family):
    spec = make_spec(family, 20)
    if family is Family.TRIG_ODD:
        spec = BasisSpec(family, 21)
    lo, hi = quad_domain(spec)
    nodes, weights = panel_gauss(lo, hi, panels=192, order=12)
    vals = eval_basis(spec, nodes)
    gram = vals.T @ (weights[:, None] * vals)
    assert np.abs(gram - np.eye(spec.m)).max() <= 1e-6


def test_half_trig_unit_norms_and_subblocks():
    spec = BasisSpec(Family.HALF_TRIG, 21, (-1.3, 2.2))
    nodes, weights = panel_gauss(*spec.interval, panels=192, order=12)
    vals = eval_basis(spec, nodes)
    gram = vals.T @ (weights[:, None] * vals)
    np.testing.assert_allclose(np.diag(gram), np.ones(21), atol=1e-9)
    sin_idx = list(range(1, 21, 2))
    cos_idx = [0] + list(range(2, 21, 2))  # constant + cosines
    for idx in (sin_idx, cos_idx):
        sub = gram[np.ix_(idx, idx)]
        assert np.abs(sub - np.eye(len(idx))).max() <= 1e-9
    # the full dictionary is not orthogonal: sin(pi u) vs cos(2pi u)
    assert abs(gram[1, 4]) > 0.1


def test_hermite_uniform_bound():
    spec = BasisSpec(Family.HERMITE, 30)
    pts = np.linspace(-12, 12, 20001)
    assert np.abs(eval_basis(spec, pts)).max() <= math.pi ** -0.25 + 1e-12


def test_laguerre_uniform_bound():
    spec = BasisSpec(Family.LAGUERRE, 30)
    pts = np.linspace(0, 120, 40001)
    assert np.abs(eval_basis(spec, pts)).max() <= math.sqrt(2) + 1e-12


def test_l_factor_closed_forms():
    assert l_factor(BasisSpec(Family.TRIG_ODD, 5)) == 5.0
    assert l_factor(BasisSpec(Family.LAGUERRE, 3)) == 6.0
    assert l_factor(BasisSpec(Family.LEGENDRE, 4)) == 8.0
    assert l_factor(BasisSpec(Family.HALF_TRIG, 5, (0.0, 2.0))) == 2.5
    assert l_factor(BasisSpec(Family.HALF_TRIG, 4, (0.0, 1.0))) == 5.0


def test_l_factor_hermite_numeric_below_analytic():
    for m in (1, 4, 9, 25):
        spec = BasisSpec(Family.HERMITE, m)
        numeric = l_factor(spec)
        analytic = m / math.sqrt(math.pi)
        assert 0 < numeric <= analytic + 1e-12
        # grows like sqrt(m): K stays in a narrow band
        assert 0.4 <= numeric / math.sqrt(m) <= 0.6


def test_l_factor_trig_is_exact_sum():
    # complete pairs make the squared sum constant in x
    spec = BasisSpec(Family.TRIG_ODD, 7)
    pts = np.linspace(0, 1, 101)
    sums = (eval_basis(spec, pts) ** 2).sum(axis=1)
    np.testing.assert_allclose(sums, 7.0, rtol=1e-12)


def test_l_prime_factor_trig_m1_zero():
    assert l_prime_factor(BasisSpec(Family.TRIG_ODD, 1), np.linspace(0, 1, 11)) == 0.0


def test_l_prime_factor_trig_m3():
    grid = np.linspace(0, 1, 4001)
    val = l_prime_factor(BasisSpec(Family.TRIG_ODD, 3), grid)
    assert abs(val - 8 * math.pi ** 2) <= 1e-3 * 8 * math.pi ** 2


def test_l_prime_factor_hermite_grid_max_oracle():
    spec = BasisSpec(Family.HERMITE, 2)
    coarse = np.linspace(-6, 6, 2001)
    fine = np.linspace(-6, 6, 4001)
    val = l_prime_factor(spec, coarse)
    oracle = (eval_basis_derivative(spec, fine) ** 2).sum(axis=1).max()
    assert val >= oracle - 1e-4
    with pytest.raises(ValueError):
        l_prime_factor(spec, np.array([]))
