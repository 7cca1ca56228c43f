"""Regression fit and the two derivative estimators."""

import math

import numpy as np
import pytest

from derivfit.basis import BasisSpec, Family, eval_basis
from derivfit.design import Sample, truncation_gate
from derivfit.errors import SingularGramError
from derivfit.estimators import DerivativeFit, Strategy, evaluate_fit
from derivfit.selection import fit_derivative
from oracles import (build_design, derivative_recursion, empirical_norm, fit_regression,
                     fitted_derivative_at_sample, projection_coefficients)


def uniform_sample(rng, n, y=None):
    x = rng.uniform(0, 1, n)
    return Sample(x=x, y=np.zeros(n) if y is None else y(x))


def test_fit_recovers_single_basis_element():
    rng = np.random.default_rng(0)
    for family, xgen in [(Family.TRIG_ODD, lambda: rng.uniform(0, 1, 200)),
                         (Family.HERMITE, lambda: rng.standard_normal(200)),
                         (Family.LEGENDRE, lambda: rng.uniform(-1, 1, 200))]:
        spec = BasisSpec(family, 5)
        x = xgen()
        y = eval_basis(spec, x)[:, 0]  # first basis element exactly
        fit = fit_regression(Sample(x=x, y=y), spec)
        expected = np.zeros(5)
        expected[0] = 1.0
        np.testing.assert_allclose(fit.theta, expected, atol=1e-10)


def test_fit_hermite_in_span_coefficient():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10000)
    sample = Sample(x=x, y=np.exp(-x * x / 2.0))
    fit = fit_regression(sample, BasisSpec(Family.HERMITE, 1))
    assert fit.theta[0] == pytest.approx(math.pi ** 0.25, abs=1e-10)


def test_interpolation_when_n_equals_m():
    x = np.array([0.1, 0.35, 0.6, 0.73, 0.9])
    y = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    fit = fit_regression(Sample(x=x, y=y), BasisSpec(Family.TRIG_ODD, 5))
    np.testing.assert_allclose(fit(x), y, atol=1e-8)


def test_residual_orthogonality():
    rng = np.random.default_rng(2)
    sample = uniform_sample(rng, 300, lambda x: np.sin(7 * x) + 0.1 * rng.standard_normal(300))
    spec = BasisSpec(Family.TRIG_ODD, 7)
    phi = eval_basis(spec, sample.x)
    fit = fit_regression(sample, spec)
    resid = sample.y - phi @ fit.theta
    assert np.abs(phi.T @ resid / sample.n).max() <= 1e-12


def test_least_squares_optimality_under_perturbation():
    rng = np.random.default_rng(3)
    sample = uniform_sample(rng, 200, lambda x: x + 0.2 * rng.standard_normal(200))
    spec = BasisSpec(Family.TRIG_ODD, 5)
    phi = eval_basis(spec, sample.x)
    fit = fit_regression(sample, spec)
    base = empirical_norm(sample.y - phi @ fit.theta) ** 2
    for _ in range(20):
        delta = 1e-3 * rng.standard_normal(5)
        perturbed = empirical_norm(sample.y - phi @ (fit.theta + delta)) ** 2
        assert perturbed >= base - 1e-15


def test_linearity_in_y():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(150)
    y = np.sin(x)
    spec = BasisSpec(Family.HERMITE, 4)
    for strategy in Strategy:
        t1 = fit_derivative(Sample(x=x, y=y), spec, strategy).theta
        t3 = fit_derivative(Sample(x=x, y=3.0 * y), spec, strategy).theta
        np.testing.assert_allclose(t3, 3.0 * t1, rtol=1e-9)


def test_singular_gram_raises():
    sample = Sample(x=np.array([0.2, 0.4]), y=np.array([1.0, 2.0]))
    with pytest.raises(SingularGramError):
        fit_regression(sample, BasisSpec(Family.TRIG_ODD, 5))
    with pytest.raises(SingularGramError):
        fit_derivative(sample, BasisSpec(Family.HERMITE, 5), Strategy.PROJECTION_OF_DERIV)


# ---------------------------------------------------------------------------
# Strategy 1
# ---------------------------------------------------------------------------

def test_derivative_1_hermite_in_span():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5000)
    sample = Sample(x=x, y=np.exp(-x * x / 2.0))
    fit = fit_derivative(sample, BasisSpec(Family.HERMITE, 1))
    grid = np.linspace(-2, 2, 101)
    np.testing.assert_allclose(evaluate_fit(fit, grid),
                               -grid * np.exp(-grid * grid / 2.0), atol=1e-10)


def test_derivative_1_constant_basis_is_zero():
    rng = np.random.default_rng(6)
    sample = uniform_sample(rng, 50, lambda x: x)
    fit = fit_derivative(sample, BasisSpec(Family.TRIG_ODD, 1))
    assert np.all(evaluate_fit(fit, np.linspace(0, 1, 20)) == 0.0)


def test_derivative_1_sample_point_identity():
    rng = np.random.default_rng(7)
    sample = uniform_sample(rng, 200, lambda x: np.cos(3 * x))
    spec = BasisSpec(Family.TRIG_ODD, 9)
    fit = fit_derivative(sample, spec)
    direct = evaluate_fit(fit, sample.x)
    via_matrix = derivative_recursion(spec, sample.x) @ fit.theta
    scale = np.abs(via_matrix).max()
    assert np.abs(direct - via_matrix).max() <= 1e-12 * max(scale, 1.0)
    np.testing.assert_allclose(fitted_derivative_at_sample(fit, sample.x),
                               via_matrix)


# ---------------------------------------------------------------------------
# Strategy 2
# ---------------------------------------------------------------------------

def test_derivative_2_zero_response():
    rng = np.random.default_rng(8)
    sample = uniform_sample(rng, 100)
    fit = fit_derivative(sample, BasisSpec(Family.TRIG_ODD, 3), Strategy.PROJECTION_OF_DERIV)
    np.testing.assert_allclose(fit.theta, np.zeros(3), atol=1e-15)
    assert fit.strategy is Strategy.PROJECTION_OF_DERIV


def test_derivative_2_trig_recovers_projection_of_derivative():
    # quadrature oracle: coefficients of 2*pi*cos(2*pi*x) on the trig basis
    spec = BasisSpec(Family.TRIG_ODD, 3)
    oracle = projection_coefficients(lambda x: 2 * np.pi * np.cos(2 * np.pi * x), spec, 3)
    np.testing.assert_allclose(oracle, [0.0, math.sqrt(2) * math.pi, 0.0], atol=1e-9)
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, 20000)
    sample = Sample(x=x, y=np.sin(2 * np.pi * x))
    fit = fit_derivative(sample, spec, Strategy.PROJECTION_OF_DERIV)
    np.testing.assert_allclose(fit.theta, oracle, atol=0.05)


def test_derivative_2_hermite_odd_symmetry():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(20000)
    sample = Sample(x=x, y=np.exp(-x * x / 2.0))
    fit = fit_derivative(sample, BasisSpec(Family.HERMITE, 1), Strategy.PROJECTION_OF_DERIV)
    # the derivative is odd, so its first (even) projection coefficient vanishes
    assert abs(fit.theta[0]) <= 0.05


def test_strategies_agree_for_periodic_function():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 40000)
    b = lambda t: np.sin(2 * np.pi * t) + 0.3 * np.cos(4 * np.pi * t)
    sample = Sample(x=x, y=b(x))
    spec = BasisSpec(Family.TRIG_ODD, 5)
    f1 = fit_derivative(sample, spec)
    f2 = fit_derivative(sample, spec, Strategy.PROJECTION_OF_DERIV)
    grid = np.linspace(0, 1, 512)
    gap = np.sqrt(np.mean((evaluate_fit(f1, grid) - evaluate_fit(f2, grid)) ** 2))
    assert gap <= 0.1  # Monte Carlo error at n = 40000


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def _in_lambda(sample, spec):
    ext = spec.extended()
    return truncation_gate(ext, build_design(sample, ext), sample.n)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_truncation_behavior(strategy):
    rng = np.random.default_rng(12)
    sample = uniform_sample(rng, 1000, lambda x: np.sin(2 * np.pi * x))
    spec = BasisSpec(Family.TRIG_ODD, 3)
    fit = fit_derivative(sample, spec, strategy)
    assert _in_lambda(sample, spec)
    kept = fit_derivative(sample, spec, strategy, truncate=True)
    assert not kept.truncated_to_zero
    assert np.array_equal(kept.theta, fit.theta)

    # four points carry the fit at m+p = 4, but not the gate there
    bad_sample = Sample(x=sample.x[:4], y=sample.y[:4])
    bad = _in_lambda(bad_sample, spec)
    assert not bad
    truncated = fit_derivative(bad_sample, spec, strategy, truncate=True)
    assert truncated.truncated_to_zero
    assert np.all(evaluate_fit(truncated, np.linspace(0, 1, 7)) == 0.0)


def test_evaluate_fit_unit_vectors():
    spec = BasisSpec(Family.LEGENDRE, 4)
    theta = np.zeros(4)
    theta[0] = 1.0
    grid = np.linspace(-1, 1, 33)
    s2 = DerivativeFit(theta=theta, strategy=Strategy.PROJECTION_OF_DERIV, spec=spec)
    np.testing.assert_allclose(evaluate_fit(s2, grid), eval_basis(spec, grid)[:, 0])
    s1 = DerivativeFit(theta=theta, strategy=Strategy.DERIV_OF_PROJECTION, spec=spec)
    np.testing.assert_allclose(evaluate_fit(s1, grid),
                               derivative_recursion(spec, grid)[:, 0])


def test_evaluate_fit_outside_support_is_zero():
    spec = BasisSpec(Family.LEGENDRE, 3)
    fit = DerivativeFit(theta=np.ones(3), strategy=Strategy.DERIV_OF_PROJECTION, spec=spec)
    vals = evaluate_fit(fit, np.array([-2.0, 0.0, 2.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0 and vals[1] != 0.0
