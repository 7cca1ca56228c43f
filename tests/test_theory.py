"""Quadrature oracles: coefficients, population Gram, weighted links, gaps."""

import math

import numpy as np
import pytest

from derivfit.basis import BasisSpec, Family, delta_matrix, eval_basis
from derivfit.design import Sample, gram
from oracles import (DensitySpec, TheoreticalGram, derivative_coefficients,
                     projection_coefficients, projection_gap, theoretical_gram,
                     theoretical_penalty, weighted_delta)

UNIFORM01 = DensitySpec(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                        (0.0, 1.0), 1.0)
STD_NORMAL = DensitySpec(lambda x: np.exp(-np.asarray(x, float) ** 2 / 2) / math.sqrt(2 * math.pi),
                         (-12.0, 12.0), 1.0 / math.sqrt(2 * math.pi))


def test_density_must_integrate_to_one():
    with pytest.raises(ValueError):
        DensitySpec(lambda x: 2.0 * np.ones_like(np.asarray(x, float)), (0.0, 1.0), 2.0)


def test_projection_recovers_basis_element():
    for family in (Family.TRIG_ODD, Family.LAGUERRE, Family.HERMITE, Family.LEGENDRE):
        spec = BasisSpec(family, 5)
        target = lambda x, s=spec: eval_basis(s, x)[1]  # second element
        coeffs = projection_coefficients(target, spec, 5)
        expected = np.zeros(5)
        expected[1] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-8)


def test_projection_gaussian_bump_on_hermite():
    spec = BasisSpec(Family.HERMITE, 4)
    coeffs = projection_coefficients(lambda x: np.exp(-x * x / 2.0), spec, 4)
    np.testing.assert_allclose(coeffs, [math.pi ** 0.25, 0, 0, 0], atol=1e-9)


def test_projection_sine_on_half_trig():
    spec = BasisSpec(Family.HALF_TRIG, 4, (0.0, 1.0))
    coeffs = projection_coefficients(lambda x: 2.0 * np.sin(np.pi * x), spec, 4)
    # 2 sin(pi x) = sqrt2 * [sqrt2 sin(pi x)], the second element
    expected = np.zeros(4)
    expected[1] = math.sqrt(2)
    # nonzero leakage onto the constant: the dictionary is not orthogonal
    assert coeffs[1] == pytest.approx(math.sqrt(2), abs=1e-9)
    np.testing.assert_allclose(coeffs[2:], expected[2:], atol=1e-9)


def test_theoretical_gram_uniform_trig_is_identity():
    gram = theoretical_gram(BasisSpec(Family.TRIG_ODD, 5), UNIFORM01)
    np.testing.assert_allclose(gram.psi, np.eye(5), atol=1e-8)


def test_theoretical_gram_nested_blocks():
    g3 = theoretical_gram(BasisSpec(Family.HERMITE, 3), STD_NORMAL)
    g4 = theoretical_gram(BasisSpec(Family.HERMITE, 4), STD_NORMAL)
    np.testing.assert_allclose(g4.leading_block(3), g3.psi, atol=1e-10)


def test_theoretical_gram_normal_hermite_against_dense_oracle():
    gram = theoretical_gram(BasisSpec(Family.HERMITE, 2), STD_NORMAL)
    # dense-trapezoid oracle, independent of the quad path
    grid = np.linspace(-12, 12, 400001)
    vals = eval_basis(BasisSpec(Family.HERMITE, 2), grid)
    f = STD_NORMAL(grid)
    oracle = (vals[:, :, None] * vals[:, None, :] * f[:, None, None])
    oracle = np.trapezoid(oracle, grid, axis=0)
    np.testing.assert_allclose(gram.psi, oracle, atol=1e-8)
    # diagonal known analytically: <h_j^2 f> with three-Gaussian products
    assert gram.psi[0, 0] == pytest.approx(1.0 / math.sqrt(3 * math.pi), abs=1e-10)
    assert gram.psi[1, 1] == pytest.approx(2.0 / (3 * math.sqrt(3 * math.pi)), abs=1e-10)
    assert gram.psi[0, 1] == pytest.approx(0.0, abs=1e-10)


def test_monte_carlo_gram_converges_at_root_n():
    spec = BasisSpec(Family.HERMITE, 3)
    target = theoretical_gram(spec, STD_NORMAL).psi
    errs = []
    sizes = [1000, 10000, 100000]
    for i, n in enumerate(sizes):
        rng = np.random.default_rng(100 + i)
        sample = Sample(x=rng.standard_normal(n), y=np.zeros(n))
        psi_hat = gram(eval_basis(spec, sample.x))
        errs.append(np.abs(psi_hat - target).max())
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.8 <= slope <= -0.25  # consistent with 1/sqrt(n)


def test_weighted_delta_identity_gram():
    spec = BasisSpec(Family.HERMITE, 3)
    gram = _identity_gram(spec)
    d1 = weighted_delta(spec, gram, 1)
    d2 = weighted_delta(spec, gram, 2)
    delta_t = delta_matrix(spec).T
    np.testing.assert_allclose(d1, delta_t, atol=1e-12)
    np.testing.assert_allclose(d2, delta_t, atol=1e-12)


def _identity_gram(spec):
    ext = spec.extended()
    return TheoreticalGram(psi=np.eye(ext.m), spec=ext, density=UNIFORM01)


def test_weighted_delta_frobenius_cubic_scaling_trig():
    # cubic-in-m scaling under the uniform density; the exact value is
    # (4 pi^2 / 3) p(p+1)(2p+1) <= pi^2 m^3 / 3 for m = 2p+1
    for m in (3, 5, 7):
        spec = BasisSpec(Family.TRIG_ODD, m)
        gram = theoretical_gram(spec, UNIFORM01)
        d1 = weighted_delta(spec, gram, 1)
        d2 = weighted_delta(spec, gram, 2)
        fro2 = (d1 ** 2).sum()
        p = (m - 1) // 2
        exact = 4 * math.pi ** 2 / 3 * p * (p + 1) * (2 * p + 1)
        assert fro2 == pytest.approx(exact, rel=1e-8)
        assert fro2 <= math.pi ** 2 * m ** 3 / 3 + 1e-6
        assert fro2 == pytest.approx((d2 ** 2).sum(), rel=1e-9)


def test_theoretical_penalty_values():
    spec1 = BasisSpec(Family.TRIG_ODD, 1)
    gram1 = theoretical_gram(spec1, UNIFORM01)
    assert theoretical_penalty(spec1, gram1, sigma2=1.0, n=100) == pytest.approx(0.0, abs=1e-12)
    spec = BasisSpec(Family.TRIG_ODD, 5)
    gram = theoretical_gram(spec, UNIFORM01)
    v = theoretical_penalty(spec, gram, sigma2=1.0, n=100)
    assert theoretical_penalty(spec, gram, 3.0, 100) == pytest.approx(3 * v, rel=1e-12)
    assert theoretical_penalty(spec, gram, 1.0, 300) == pytest.approx(v / 3, rel=1e-12)
    for m in (3, 5, 7):
        s = BasisSpec(Family.TRIG_ODD, m)
        g = theoretical_gram(s, UNIFORM01)
        assert theoretical_penalty(s, g, 1.0, 100) <= math.pi ** 2 * m ** 3 / 100 + 1e-9


# ---------------------------------------------------------------------------
# Integration by parts and Parseval
# ---------------------------------------------------------------------------

def test_integration_by_parts_identity():
    cases = [
        (BasisSpec(Family.TRIG_ODD, 5),
         lambda x: np.sin(np.pi * x) ** 2, lambda x: np.pi * np.sin(2 * np.pi * x)),
        (BasisSpec(Family.HERMITE, 5),
         lambda x: np.exp(-x * x), lambda x: -2 * x * np.exp(-x * x)),
        (BasisSpec(Family.LAGUERRE, 5),
         lambda x: x * np.exp(-x), lambda x: (1 - x) * np.exp(-x)),
        (BasisSpec(Family.LEGENDRE, 5),
         lambda x: (1 - x * x), lambda x: -2 * x),
    ]
    for spec, b, b_prime in cases:
        lhs = derivative_coefficients(b, spec, spec.m, b_prime=b_prime)
        rhs = derivative_coefficients(b, spec, spec.m, b_prime=None)
        np.testing.assert_allclose(lhs, rhs, atol=1e-7)


def test_parseval_partial_sums_increase_to_norm():
    spec = BasisSpec(Family.LEGENDRE, 24)
    b = lambda x: np.exp(x)
    norm2 = (math.e ** 2 - math.e ** -2) / 2.0  # integral of e^{2x} on [-1,1]
    coeffs = projection_coefficients(b, spec, 24)
    partial = np.cumsum(coeffs ** 2)
    assert np.all(np.diff(partial) >= -1e-15)
    assert partial[-1] <= norm2 + 1e-9
    assert partial[-1] == pytest.approx(norm2, rel=1e-8)


# ---------------------------------------------------------------------------
# Projection/derivative commutation gap
# ---------------------------------------------------------------------------

def test_gap_trig_odd_is_zero():
    spec = BasisSpec(Family.TRIG_ODD, 5)
    numeric, closed = projection_gap(lambda x: 2 * np.sin(np.pi * x), spec,
                                     b_prime=lambda x: 2 * np.pi * np.cos(np.pi * x))
    assert closed == 0.0
    assert abs(numeric) <= 1e-8


def test_gap_hermite_single_element():
    spec3 = BasisSpec(Family.HERMITE, 3)
    h3 = lambda x: eval_basis(BasisSpec(Family.HERMITE, 4), x)[..., 3]
    numeric, closed = projection_gap(h3, spec3)
    assert closed == pytest.approx(1.5, abs=1e-9)
    assert numeric == pytest.approx(closed, abs=1e-6)


def test_gap_hermite_gaussian_bump():
    b = lambda x: np.exp(-x * x / 2.0)
    b_prime = lambda x: -x * np.exp(-x * x / 2.0)
    numeric1, closed1 = projection_gap(b, BasisSpec(Family.HERMITE, 1), b_prime=b_prime)
    assert closed1 == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-9)
    assert numeric1 == pytest.approx(closed1, abs=1e-6)
    numeric3, closed3 = projection_gap(b, BasisSpec(Family.HERMITE, 3), b_prime=b_prime)
    assert closed3 == pytest.approx(0.0, abs=1e-12)
    assert abs(numeric3) <= 1e-6


def test_gap_laguerre_partial_and_tail_forms_agree():
    b = lambda x: x * np.exp(-x / 2.0)          # b(0) = 0, smooth
    b_prime = lambda x: (1 - x / 2.0) * np.exp(-x / 2.0)
    for m in (2, 4):
        spec = BasisSpec(Family.LAGUERRE, m)
        numeric, partial = projection_gap(b, spec, b_prime=b_prime)
        _, tail = projection_gap(b, spec, b_prime=b_prime, laguerre_tail_form=True)
        assert partial == pytest.approx(tail, abs=1e-6)
        assert numeric == pytest.approx(partial, abs=1e-6)


def test_gap_legendre_even_dimension_cubic():
    b = lambda x: x ** 3 - x                    # vanishes at the endpoints
    b_prime = lambda x: 3 * x ** 2 - 1
    numeric, closed = projection_gap(b, BasisSpec(Family.LEGENDRE, 2), b_prime=b_prime)
    assert closed == pytest.approx(0.32, abs=1e-9)   # 3 * (2/5)^2 * (2/3)
    assert numeric == pytest.approx(closed, abs=1e-6)
    # the cubic lies inside the span at m = 4, so the gap closes
    numeric4, closed4 = projection_gap(b, BasisSpec(Family.LEGENDRE, 4), b_prime=b_prime)
    assert closed4 == pytest.approx(0.0, abs=1e-10)
    assert abs(numeric4) <= 1e-8


def test_gap_legendre_generic_smooth_function():
    b = lambda x: (1 - x * x) * np.exp(x)       # vanishes at the endpoints
    b_prime = lambda x: (1 - 2 * x - x * x) * np.exp(x)
    for m in (2, 4, 6):
        numeric, closed = projection_gap(b, BasisSpec(Family.LEGENDRE, m), b_prime=b_prime)
        assert closed is not None
        assert numeric == pytest.approx(closed, abs=1e-6)
    _, closed_odd = projection_gap(b, BasisSpec(Family.LEGENDRE, 3), b_prime=b_prime)
    assert closed_odd is None


def test_gap_rejects_half_trig():
    with pytest.raises(ValueError):
        projection_gap(lambda x: x, BasisSpec(Family.HALF_TRIG, 3, (0, 1)))
