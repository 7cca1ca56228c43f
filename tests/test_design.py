"""Design matrices, norms, stability gates, trimming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivfit.basis import BasisSpec, Family, eval_basis, l_factor
from derivfit.design import (STABILITY_C, Sample, default_d_constant, gram,
                             is_singular, stability_check, trim_interval,
                             truncation_gate)
from derivfit.errors import DataFormatError
from derivfit.selection import DesignCache
from oracles import (build_design, derivative_recursion, empirical_inner,
                     empirical_norm, frobenius_norm, histogram_d_constant,
                     operator_norm, whitener)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(x=np.array([1.0, 2.0]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(x=np.array([]), y=np.array([]))
    with pytest.raises(ValueError):
        Sample(x=np.array([np.nan]), y=np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(x=np.array([1.0]), y=np.array([np.inf]))


def test_build_design_single_point_constant():
    sample = Sample(x=np.array([0.5]), y=np.array([2.0]))
    phi = eval_basis(BasisSpec(Family.TRIG_ODD, 1), sample.x)
    np.testing.assert_allclose(phi, [[1.0]])
    np.testing.assert_allclose(gram(phi), [[1.0]])


def test_build_design_constant_gram_any_n():
    rng = np.random.default_rng(0)
    sample = Sample(x=rng.uniform(0, 1, 2), y=np.zeros(2))
    psi_hat = gram(eval_basis(BasisSpec(Family.TRIG_ODD, 1), sample.x))
    np.testing.assert_allclose(psi_hat, [[1.0]])


def test_gram_concentration_uniform_trig():
    rng = np.random.default_rng(7)
    n = 500
    sample = Sample(x=rng.uniform(0, 1, n), y=np.zeros(n))
    psi_hat = gram(eval_basis(BasisSpec(Family.TRIG_ODD, 5), sample.x))
    assert np.abs(psi_hat - np.eye(5)).max() <= 5 / math.sqrt(n)


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(3)
    sample = Sample(x=rng.standard_normal(200), y=np.zeros(200))
    psi_hat = gram(eval_basis(BasisSpec(Family.HERMITE, 8), sample.x))
    assert np.abs(psi_hat - psi_hat.T).max() == 0.0


@pytest.mark.parametrize("family,xgen", [
    (Family.TRIG_ODD, lambda rng, n: rng.uniform(0, 1, n)),
    (Family.HALF_TRIG, lambda rng, n: rng.uniform(-0.5, 1.5, n)),
    (Family.LAGUERRE, lambda rng, n: rng.exponential(1.0, n)),
    (Family.HERMITE, lambda rng, n: rng.standard_normal(n)),
    (Family.LEGENDRE, lambda rng, n: rng.uniform(-1, 1, n)),
])
def test_phi_prime_consistency_with_link(family, xgen):
    rng = np.random.default_rng(11)
    sample = Sample(x=xgen(rng, 300), y=np.zeros(300))
    m = 7 if family is Family.TRIG_ODD else 8
    cache = DesignCache(sample, family, m,
                        (-0.5, 1.5) if family is Family.HALF_TRIG else None)
    # the cache's derivative Gram comes through the link matrix; the
    # recursion evaluates the derivative columns without it
    phi_prime = derivative_recursion(cache.spec_for(m), sample.x)
    reference = phi_prime.T @ phi_prime / sample.n
    root = cache.derivative_root(m)
    assert np.abs(root @ root.T - reference).max() <= 1e-12 * np.abs(reference).max()


def test_operator_and_frobenius_norms():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0)
    assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3))
    d = np.diag([2.0, 1.0])
    assert operator_norm(d) == pytest.approx(2.0)
    assert frobenius_norm(d) == pytest.approx(math.sqrt(5))


def test_trace_product_inequality():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        a = a @ a.T
        b = b @ b.T
        lhs = np.trace(a @ b)
        rhs = operator_norm(a) * np.trace(b)
        assert lhs <= rhs + 1e-9 * abs(rhs)


def test_empirical_norm_and_inner():
    assert empirical_norm([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert empirical_inner([1.0, -1.0], [1.0, 1.0]) == pytest.approx(0.0)
    rng = np.random.default_rng(9)
    u, v = rng.standard_normal(50), rng.standard_normal(50)
    lhs = empirical_norm(u + v) ** 2
    rhs = empirical_norm(u) ** 2 + 2 * empirical_inner(u, v) + empirical_norm(v) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        empirical_inner([1.0], [1.0, 2.0])


def test_stability_identity_gram_passes():
    rng = np.random.default_rng(1)
    n = 1000
    sample = Sample(x=rng.uniform(0, 1, n), y=np.zeros(n))
    spec = BasisSpec(Family.TRIG_ODD, 3)
    eigvals = build_design(sample, spec)
    in_lambda = truncation_gate(spec, eigvals, n)
    in_collection = stability_check(spec, eigvals, n, default_d_constant(sample.x))
    assert in_lambda and in_collection
    assert l_factor(spec) == 3.0
    # frozen constant value
    assert STABILITY_C == pytest.approx(0.0240439, abs=1e-7)


def test_stability_singular_gram_fails_both():
    # two points cannot identify three coefficients
    sample = Sample(x=np.array([0.1, 0.2]), y=np.zeros(2))
    spec = BasisSpec(Family.TRIG_ODD, 3)
    eigvals = build_design(sample, spec)
    assert is_singular(eigvals)
    flags = (truncation_gate(spec, eigvals, 2),
             stability_check(spec, eigvals, 2, default_d_constant(sample.x)))
    assert flags == (False, False)


@pytest.mark.parametrize("family", [Family.HERMITE, Family.HALF_TRIG])
def test_stability_membership_monotone_in_m(family):
    rng = np.random.default_rng(123)
    n = 250
    sample = Sample(x=rng.standard_normal(n), y=np.zeros(n))
    d_const = default_d_constant(sample.x)
    flags_lambda, flags_coll = [], []
    for m in range(1, 22):
        spec = (BasisSpec(family, m, (-2.0, 2.0)) if family is Family.HALF_TRIG
                else BasisSpec(family, m))
        ext = spec.extended()
        eigvals = build_design(sample, ext)
        flags_lambda.append(truncation_gate(ext, eigvals, n))
        flags_coll.append(stability_check(ext, eigvals, n, d_const))
    assert flags_coll[0]  # m=1 is in the collection with the default constant
    for flags in (flags_lambda, flags_coll):
        seen_false = False
        for flag in flags:
            if seen_false:
                assert not flag
            seen_false = seen_false or not flag


def test_variance_trace_monotone():
    rng = np.random.default_rng(77)
    n = 800
    sample = Sample(x=rng.standard_normal(n), y=np.zeros(n))
    traces = []
    for m in range(1, 11):
        spec = BasisSpec(Family.HERMITE, m)
        phi_prime = derivative_recursion(spec, sample.x)
        psi_prime = phi_prime.T @ phi_prime / n
        w = whitener(gram(eval_basis(spec, sample.x)))
        traces.append(np.trace(w @ psi_prime @ w))
    diffs = np.diff(traces)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(traces[:-1])))


def _d_sample(kind: str, n: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.standard_normal(n)
    elif kind == "uniform":
        x = rng.uniform(-1.0, 3.0, n)
    elif kind == "tenths":  # points on the bin edges
        x = np.round(rng.uniform(-3.0, 3.0, n), 1)
    else:
        x = np.full(n, rng.standard_normal())
    return x * scale


def _assert_d_is_histograms(x):
    got, expected = default_d_constant(x), histogram_d_constant(x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["normal", "uniform", "tenths", "constant"]),
       n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-5, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e5]))
def test_default_d_is_bitwise_numpy_histogram(kind, n, seed, scale):
    """default_d_constant writes out np.histogram's equal-width path: d
    keeps the bits of the np.histogram plug-in."""
    _assert_d_is_histograms(_d_sample(kind, n, seed, scale))


@pytest.mark.parametrize("n", [1, 2, 20_000])
@pytest.mark.parametrize("kind", ["normal", "uniform", "tenths", "constant"])
@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_default_d_is_bitwise_numpy_histogram_at_fixed_sizes(kind, n, scale):
    _assert_d_is_histograms(_d_sample(kind, n, 29, scale))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [np.linspace(-1.0, 1.0, 300) * 1e308,  # the range overflows
                               np.linspace(1e-320, 3e-320, 300),  # densities overflow: d = 0
                               np.full(300, 1e17)])  # x - 0.5 == x: no width to widen
def test_a_sample_the_default_d_cannot_bin_is_a_data_error(x):
    """np.histogram raised a ValueError or gave d = 0, with warnings."""
    with pytest.raises(DataFormatError, match=r"--d-const"):
        default_d_constant(x)


def test_trim_interval_linear_interpolation_rule():
    sample = Sample(x=np.arange(1.0, 101.0), y=np.zeros(100))
    lo, hi = trim_interval(sample)
    assert lo == pytest.approx(3.97)
    assert hi == pytest.approx(97.03)


def test_trim_interval_constant_and_permutation():
    sample = Sample(x=np.full(10, 2.5), y=np.zeros(10))
    assert trim_interval(sample) == (2.5, 2.5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(101)
    s1 = Sample(x=x, y=np.zeros(101))
    s2 = Sample(x=x[rng.permutation(101)], y=np.zeros(101))
    assert trim_interval(s1) == trim_interval(s2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1),
       ties=st.sampled_from([None, 0, 1, 3]), constant=st.booleans(),
       scale=st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e5, 1e300]))
def test_trim_interval_is_bitwise_numpy_quantile(n, seed, ties, constant, scale):
    """trim_interval spells out numpy's linear rule on one partition; its
    ends are np.quantile's bits, signed zeros of tied values included."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    if ties is not None:
        x = np.round(x, ties)
    x = np.full(n, x[0]) if constant else x * scale  # scale 0: -0.0 and 0.0 only
    expected = np.quantile(x, [0.03, 0.97])
    got = trim_interval(Sample(x=x, y=np.zeros(n)))
    assert all(type(end) is float for end in got)
    assert np.array(got).tobytes() == expected.tobytes()
