"""Independent reference computations that the tests compare the package against.

Nothing here runs in the package's pipeline.  The basis recurrences are
written one vector expression per step, the form the package's in-place
recurrences must match bit for bit.  The derivative recursion
evaluates each family's derivatives from its own formulas, never through
the link matrix.  The quadrature oracles compute
projection coefficients, population Grams, density-weighted link
matrices, the projection/derivative commutation gap with its per-family
closed forms and the population penalty from integrals, never from the
empirical machinery.  The remaining helpers (a Gram's eigenvalues from a
basis evaluation and Gram of its own, matrix and empirical norms, the Gram's
symmetric inverse square root, fitted derivatives at the design points,
the derivative sup factor, the derivative Gram formed in full and the
penalties from all of its whitened eigenvalues) are direct n-space or
dense forms of quantities the package computes another way.  The
regression fit is the exception: it wraps the package's one
least-squares solve, so the tests of its residual orthogonality and
optimality check that solve.  Two keep expressions the package once
used, which its faster forms must match bit for bit: the default
collection constant from np.histogram itself, and the grid scorer with
np.trapezoid's expression on fresh temporaries.
report_row looks up one cell of an experiment report, and gl_record
reads a selection pass's gl terms as one comparable value.

Tests import them as ``from oracles import ...``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import quad

from derivfit.basis import BasisSpec, Family, delta_matrix, eval_basis
from derivfit.design import SINGULAR_RTOL, Sample, design_from_matrices, gram
from derivfit.errors import DerivfitError, SingularGramError
from derivfit.estimators import DerivativeFit, Strategy
from derivfit.selection import EVAL_GRID_POINTS, DesignCache, eval_on_grid
from derivfit.simulation import ExperimentReport, ReportRow


class QuadratureError(DerivfitError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Basis recurrences
# ---------------------------------------------------------------------------

def basis_rows(spec: BasisSpec, x) -> np.ndarray:
    """The basis values at the 1-D points x as an (m, n) array, each step
    of a recurrence one vector expression of whole rows: the reference
    that the package's in-place recurrences must match bit for bit.  The
    trigonometric pairs are the powers of z = e^{i theta}, one out-of-place
    complex product per frequency.  No clipping or masking: x is used as
    given."""
    x = np.asarray(x, dtype=float)
    m = spec.m
    fam = spec.family
    out = np.empty((m, x.size))
    if fam in (Family.TRIG_ODD, Family.HALF_TRIG):
        if fam is Family.TRIG_ODD:
            out[0] = 1.0
            theta, amp = 2.0 * np.pi * x, np.sqrt(2.0)
        else:
            a, b = spec.interval  # type: ignore[misc]
            w = b - a
            out[0] = 1.0 / np.sqrt(w)
            theta, amp = np.pi * ((x - a) / w), np.sqrt(2.0 / w)
        z = np.empty(x.size, dtype=complex)
        z.real = np.cos(theta)
        z.imag = np.sin(theta)
        p = z
        for row in range(1, m, 2):
            if row > 1:
                p = p * z
            pair = (p.imag, p.real) if fam is Family.HALF_TRIG else (p.real, p.imag)
            out[row] = pair[0] * amp
            if row + 1 < m:
                out[row + 1] = pair[1] * amp
    elif fam is Family.LAGUERRE:
        e = np.exp(-x)
        out[0] = np.sqrt(2.0) * e
        if m > 1:
            out[1] = np.sqrt(2.0) * (1.0 - 2.0 * x) * e
        for j in range(2, m):
            out[j] = ((2 * j - 1 - 2.0 * x) * out[j - 1] - (j - 1) * out[j - 2]) / j
    elif fam is Family.HERMITE:
        out[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
        if m > 1:
            out[1] = np.sqrt(2.0) * x * out[0]
        for j in range(2, m):
            out[j] = np.sqrt(2.0 / j) * x * out[j - 1] - np.sqrt((j - 1) / j) * out[j - 2]
    else:  # LEGENDRE
        out[0] = 1.0 / np.sqrt(2.0)
        if m > 1:
            out[1] = np.sqrt(1.5) * x
        for j in range(2, m):
            a_j = np.sqrt((2 * j + 1) * (2 * j - 1)) / j
            c_j = (j - 1) / j * np.sqrt((2 * j + 1) / (2 * j - 3))
            out[j] = a_j * x * out[j - 1] - c_j * out[j - 2]
    return out


# ---------------------------------------------------------------------------
# Derivative recursion
# ---------------------------------------------------------------------------

def derivative_recursion(spec: BasisSpec, x) -> np.ndarray:
    """Values (phi_1'(x), ..., phi_m'(x)) from each family's own
    derivative formulas: the closed forms for the trigonometric families,
    and three-term or running-sum relations on the basis values for the
    polynomial ones.  x must lie in the closed support; a scalar gives
    shape (m,), a 1-D array (n, m)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    m = spec.m
    fam = spec.family
    if fam is Family.TRIG_ODD:
        out = np.zeros((x.size, m))
        for col in range(1, m):
            j = (col + 1) // 2
            om = 2.0 * np.pi * j
            phase = om * x
            if col % 2 == 1:   # derivative of sqrt2 cos
                out[:, col] = -np.sqrt(2.0) * om * np.sin(phase)
            else:              # derivative of sqrt2 sin
                out[:, col] = np.sqrt(2.0) * om * np.cos(phase)
    elif fam is Family.HALF_TRIG:
        a, b = spec.interval  # type: ignore[misc]
        w = b - a
        u = (x - a) / w
        amp = np.sqrt(2.0 / w)
        out = np.zeros((x.size, m))
        for col in range(1, m):
            j = (col + 1) // 2
            om = np.pi * j / w
            phase = np.pi * j * u
            if col % 2 == 1:   # derivative of sin column
                out[:, col] = amp * om * np.cos(phase)
            else:              # derivative of cos column
                out[:, col] = -amp * om * np.sin(phase)
    elif fam is Family.LAGUERRE:
        vals = eval_basis(spec, x)
        out = np.empty(vals.shape)
        running = np.zeros(x.size)
        for j in range(m):
            out[:, j] = -vals[:, j] - 2.0 * running
            running += vals[:, j]
    elif fam is Family.HERMITE:
        vals = eval_basis(spec.with_m(m + 1), x)
        out = np.empty((x.size, m))
        for j in range(m):
            lower = np.sqrt(j) * vals[:, j - 1] if j >= 1 else 0.0
            out[:, j] = (lower - np.sqrt(j + 1) * vals[:, j + 1]) / np.sqrt(2.0)
    else:
        # LEGENDRE: derivative of element n expands over lower elements of
        # the opposite parity; keep running weighted sums per parity.
        vals = eval_basis(spec, x)
        out = np.zeros((x.size, m))
        sum_even = np.zeros(x.size)   # sum of sqrt(4k+1) g_{2k}
        sum_odd = np.zeros(x.size)    # sum of sqrt(4k+3) g_{2k+1}
        for n in range(1, m):
            if n % 2 == 1:
                q = (n - 1) // 2
                sum_even += np.sqrt(4 * q + 1) * vals[:, 2 * q]
                out[:, n] = np.sqrt(4 * q + 3) * sum_even
            else:
                q = (n - 2) // 2
                sum_odd += np.sqrt(4 * q + 3) * vals[:, 2 * q + 1]
                out[:, n] = np.sqrt(4 * q + 5) * sum_odd
    return out[0] if scalar else out


def l_prime_factor(spec: BasisSpec, probe_grid) -> float:
    """Grid supremum of sum_{j<=m} phi_j'(x)^2 (diagnostic lower bound)."""
    grid = np.asarray(probe_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("probe grid must be nonempty")
    lo, hi = spec.support
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid.size == 0:
        raise ValueError("probe grid lies outside the basis support")
    dv = derivative_recursion(spec, grid)
    return float((dv ** 2).sum(axis=1).max())


# ---------------------------------------------------------------------------
# Direct designs, norms, the regression fit and fitted values at the sample
# ---------------------------------------------------------------------------

def build_design(sample: Sample, spec: BasisSpec) -> np.ndarray:
    """The ascending eigenvalues of spec's Gram at the sample points, from
    a basis evaluation and a Gram of its own (no DesignCache)."""
    return design_from_matrices(gram(eval_basis(spec, sample.x)))


def operator_norm(matrix) -> float:
    """Largest singular value, via the symmetric eigensolver on M*M."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    lam = scipy.linalg.eigvalsh(gram)
    return math.sqrt(max(lam[-1], 0.0))


def frobenius_norm(matrix) -> float:
    m = np.asarray(matrix, dtype=float)
    return float(np.sqrt((m * m).sum()))


def empirical_norm(values) -> float:
    """Root mean square over the design points: sqrt((1/n) sum v_i^2)."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt((v * v).mean()))


def empirical_inner(u, v) -> float:
    """(1/n) sum u_i v_i."""
    a = np.asarray(u, dtype=float)
    b = np.asarray(v, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch in empirical inner product")
    return float((a * b).mean())


def whitener(psi_hat: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a Gram."""
    lam, u = scipy.linalg.eigh(psi_hat)
    if lam[0] <= SINGULAR_RTOL * max(lam[-1], 0.0) or lam[-1] <= 0.0:
        raise SingularGramError(f"Gram matrix is numerically singular at m={len(lam)}")
    return (u * lam ** -0.5) @ u.T


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares coefficients on the first m basis elements."""

    theta: np.ndarray
    spec: BasisSpec

    def __call__(self, grid) -> np.ndarray:
        return eval_basis(self.spec, np.asarray(grid, dtype=float)) @ self.theta


def fit_regression(sample: Sample, spec: BasisSpec) -> RegressionFit:
    """Least-squares fit of the responses on the m-dimensional span,
    through the package's one solve (DesignCache.theta)."""
    cache = DesignCache(sample, spec.family, spec.m, spec.interval)
    return RegressionFit(theta=cache.theta(spec.m), spec=spec)


def derivative_columns(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    """The (n, m) derivative columns at the points x from the derivative
    recursion, zero outside the support like the values."""
    lo, hi = spec.support
    inside = (x >= lo) & (x <= hi)
    out = np.zeros((x.size, spec.m))
    if inside.any():
        out[inside] = derivative_recursion(spec, x[inside])
    return out


def fitted_derivative_at_sample(fit: DerivativeFit, x: np.ndarray) -> np.ndarray:
    """Values at the design points x, from the value columns (strategy 2)
    or the recursion's derivative columns (strategy 1)."""
    if fit.truncated_to_zero:
        return np.zeros(x.size)
    if fit.strategy is Strategy.PROJECTION_OF_DERIV:
        return eval_basis(fit.spec, x) @ fit.theta
    return derivative_columns(fit.spec, x) @ fit.theta


def derivative_gram(cache: DesignCache, m: int) -> np.ndarray:
    """Dimension m's derivative Gram formed in full, Delta Gram_{m+p}
    Delta^T of the cache's Gram, exactly symmetric: the matrix whose root
    DesignCache.derivative_root is."""
    spec = cache.spec_for(m)
    ext = spec.extended().m
    delta = delta_matrix(spec)
    raw = delta @ cache._gram[:ext, :ext] @ delta.T
    return (raw + raw.T) / 2.0


def penalties_from_all_eigenvalues(cache: DesignCache, members, sigma2: float
                                   ) -> np.ndarray:
    """V-hat per member from the whitened derivative Gram formed in full:
    S = L^-1 Psi' L^-T at the top member by two triangular solves (LAPACK
    dtrtrs), symmetrized, and every eigenvalue of each member's leading
    block (eigvalsh), of which V-hat reads the largest."""
    k = members[-1]
    factor = cache.factor[:k, :k]
    half = scipy.linalg.lapack.dtrtrs(factor, derivative_gram(cache, k), lower=1)[0]
    s = scipy.linalg.lapack.dtrtrs(factor, half.T, lower=1)[0]
    whitened = (s + s.T) / 2.0
    n = cache.sample.n
    return np.array([sigma2 * m / n * max(np.linalg.eigvalsh(whitened[:m, :m])[-1], 0.0)
                     for m in members])


def histogram_d_constant(x) -> float:
    """The default collection constant n^3 / (max(f_sup_hat, 1) + 1/3)
    with f_sup_hat the largest density of np.histogram(x, bins,
    density=True), bins = max(10, sqrt(n)): the form that
    design.default_d_constant writes out."""
    x = np.asarray(x, dtype=float)
    bins = max(10, int(math.sqrt(x.size)))
    counts, _ = np.histogram(x, bins=bins, density=True)
    return x.size ** 3 / (max(float(counts.max()), 1.0) + 1.0 / 3.0)


def trapezoid_error_sweep(cache: DesignCache, m_grid, interval, targets: dict
                          ) -> dict[int, dict[str, float]]:
    """selection._oracle_error_sweep with np.trapezoid's expression as
    written, (steps * (sq[1:] + sq[:-1]) / 2.0).sum(0), on the squared
    errors sq of each target's curves: the same curves, each operation
    on a fresh temporary."""
    dims = [m for m in m_grid if cache.solvable(m)]
    grid = np.linspace(*interval, EVAL_GRID_POINTS)
    steps = np.diff(grid)[:, None]
    thetas = cache.thetas(dims)
    spec = cache.spec_for(thetas.shape[0])
    ext = eval_basis(spec.extended(), grid)
    errors = {}
    for kind, target in targets.items():
        curves = (ext[:, :spec.m] @ thetas if kind == "regression"
                  else ext @ (cache.link(spec.m).T @ thetas))
        sq = (curves - eval_on_grid(target, grid)[:, None]) ** 2
        errors[kind] = (steps * (sq[1:] + sq[:-1]) / 2.0).sum(0).tolist()
    return {m: {kind: err[col] for kind, err in errors.items()}
            for col, m in enumerate(dims)}


def report_row(report: ExperimentReport, function: str, family: str, n: int,
               target: str) -> ReportRow:
    """The report's row for one (function, family, n, target) cell."""
    for r in report.rows:
        if (r.function, r.family, r.n, r.target) == (function, family, n, target):
            return r
    raise KeyError((function, family, n, target))


def gl_record(selection, kappa0=None, kappa1=None) -> tuple:
    """The pass's (members, m_hat, V-hat, A) under kappa0 and kappa1 (None:
    its own), the arrays as lists, so == compares them entry by entry."""
    m_hat, a_value = selection.compare(kappa0, kappa1)
    return selection.members, m_hat, selection.v_hat.tolist(), a_value.tolist()


# ---------------------------------------------------------------------------
# Quadrature oracles
# ---------------------------------------------------------------------------

_QUAD_LIMIT = 400


def integration_bounds(spec: BasisSpec, margin: float = 8.0) -> tuple[float, float]:
    """Finite bounds for Lebesgue inner products with the basis.

    Compact supports are returned as-is; the half-trigonometric family
    integrates over its rescaling interval (its reference inner product).
    For the exponential-weight families the bound covers the oscillatory
    region of the highest element plus a margin where the weight has
    decayed below 1e-16.
    """
    if spec.family is Family.HALF_TRIG:
        return spec.interval  # type: ignore[return-value]
    lo, hi = spec.support
    if math.isfinite(lo) and math.isfinite(hi):  # a compact support
        return lo, hi
    if spec.family is Family.LAGUERRE:
        return 0.0, 2.0 * spec.m + 30.0 + margin
    cut = math.sqrt(2.0 * spec.m + 3.0) + margin
    return -cut, cut


def _quad(fn, lo, hi, tol) -> float:
    val, err = quad(fn, lo, hi, epsabs=tol, epsrel=1e-10, limit=_QUAD_LIMIT)
    if err > max(100.0 * tol, 1e-8 * abs(val)):
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds tolerance on [{lo}, {hi}]")
    return val


@dataclass(frozen=True)
class DensitySpec:
    """A design density: callable, support, and a bound on its sup."""

    evaluator: object
    support: tuple[float, float]
    sup_bound: float

    def __post_init__(self):
        lo, hi = self.support
        mass = _quad(self.evaluator, lo, hi, 1e-8)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {mass:.8f}, not 1")

    def __call__(self, x):
        return self.evaluator(x)


@dataclass(frozen=True)
class TheoreticalGram:
    """Population Gram: entries are the f-weighted products of basis elements."""

    psi: np.ndarray
    spec: BasisSpec
    density: DensitySpec

    def leading_block(self, m: int) -> np.ndarray:
        return self.psi[:m, :m]


def projection_coefficients(b, spec: BasisSpec, j_max: int,
                            tol: float = 1e-9) -> np.ndarray:
    """Inner products of b with the first j_max basis elements (Lebesgue weight)."""
    lo, hi = integration_bounds(spec.with_m(max(j_max, 1)))
    out = np.empty(j_max)
    probe = spec.with_m(j_max)
    for j in range(j_max):
        out[j] = _quad(lambda x: b(x) * eval_basis(probe, x)[j], lo, hi, tol)
    return out


def derivative_coefficients(b, spec: BasisSpec, j_max: int, b_prime=None,
                            tol: float = 1e-9) -> np.ndarray:
    """Inner products of b' with the basis elements.

    With b_prime given they are integrated directly; otherwise integration
    by parts is used (the caller asserts the boundary terms vanish) and
    the integrand is b times the basis derivatives.
    """
    lo, hi = integration_bounds(spec.with_m(max(j_max, 1)))
    probe = spec.with_m(j_max)
    out = np.empty(j_max)
    for j in range(j_max):
        if b_prime is not None:
            out[j] = _quad(lambda x: b_prime(x) * eval_basis(probe, x)[j], lo, hi, tol)
        else:
            out[j] = -_quad(lambda x: b(x) * derivative_recursion(probe, x)[j],
                            lo, hi, tol)
    return out


def theoretical_gram(spec: BasisSpec, density: DensitySpec,
                     tol: float = 1e-8) -> TheoreticalGram:
    """Entrywise quadrature of phi_j phi_k f: the expectation of the
    empirical Gram under the design density."""
    dlo, dhi = density.support
    if spec.family is Family.HALF_TRIG:
        # periodic extension contributes wherever the density lives
        lo, hi = dlo, dhi
    else:
        blo, bhi = integration_bounds(spec)
        lo, hi = max(blo, dlo), min(bhi, dhi)
    if not lo < hi:
        raise ValueError("density support does not meet the basis support")
    m = spec.m
    psi = np.empty((m, m))
    for j in range(m):
        for k in range(j + 1):
            psi[j, k] = psi[k, j] = _quad(
                lambda x, j=j, k=k: (v := eval_basis(spec, x))[j] * v[k] * density(x),
                lo, hi, tol)
    return TheoreticalGram(psi=psi, spec=spec, density=density)


def _psd_power(mat: np.ndarray, power: float) -> np.ndarray:
    """Symmetric PSD matrix power through the eigendecomposition."""
    lam, u = scipy.linalg.eigh(mat)
    if lam[0] <= 1e-12 * max(lam[-1], 0.0):
        raise ValueError("matrix is not numerically positive definite")
    return (u * lam ** power) @ u.T


def weighted_delta(spec: BasisSpec, gram: TheoreticalGram, which: int) -> np.ndarray:
    """Density-weighted link matrix, variant 1 or 2.

    gram must be the population Gram at the extended dimension m+p; the
    m-dimensional Gram is its leading block.  Variant 1 is
    Psi_{m+p}^{1/2} Delta^T Psi_m^{-1/2}; variant 2 swaps the powers.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    m, p = spec.m, spec.p
    if gram.psi.shape[0] != m + p:
        raise ValueError(f"gram has dimension {gram.psi.shape[0]}, expected {m + p}")
    delta_t = delta_matrix(spec).T
    psi_m = gram.leading_block(m)
    psi_ext = gram.psi
    if which == 1:
        return _psd_power(psi_ext, 0.5) @ delta_t @ _psd_power(psi_m, -0.5)
    return _psd_power(psi_ext, -0.5) @ delta_t @ _psd_power(psi_m, 0.5)


def theoretical_penalty(spec: BasisSpec, gram: TheoreticalGram,
                        sigma2: float, n: int) -> float:
    """Population penalty: (sigma^2 m / n) times the squared operator norm
    of the variant-1 weighted link matrix."""
    d1 = weighted_delta(spec, gram, which=1)
    lam = scipy.linalg.eigvalsh(d1.T @ d1)
    return sigma2 * spec.m / n * max(lam[-1], 0.0)


# ---------------------------------------------------------------------------
# Projection/derivative commutation gap
# ---------------------------------------------------------------------------

def _legendre_gap_closed(c: np.ndarray, m: int) -> float:
    """Even-dimension Legendre closed form, assembled from the family's
    derivative expansion and integration by parts.

    c holds the coefficients of b on the first m elements (0-based).
    """
    p = m // 2
    c_odd = c[1:m:2]    # indices 1, 3, ..., m-1  -> elements g_{2k+1}
    c_even = c[0:m:2]   # indices 0, 2, ..., m-2  -> elements g_{2k}
    w_odd = np.sqrt(4.0 * np.arange(p) + 3.0)
    w_even = np.sqrt(4.0 * np.arange(p) + 1.0)
    total = 0.0
    # components on even elements g_{2i}
    for i in range(p):
        high = float((w_odd[i:] * c_odd[i:]).sum())
        low = float((w_odd[:i] * c_odd[:i]).sum())
        total += (4 * i + 1) * (high + low) ** 2
    # components on odd elements g_{2i+1}, i < p-1
    w5 = np.sqrt(4.0 * np.arange(p - 1) + 5.0)
    for i in range(p - 1):
        high = float((w5[i:] * c_even[i + 1:p]).sum())
        low = float((w_even[:i + 1] * c_even[:i + 1]).sum())
        total += (4 * i + 3) * (high + low) ** 2
    # component on the top odd element g_{m-1}
    total += (4 * p - 1) * float((w_even * c_even).sum()) ** 2
    return total


def projection_gap(b, spec: BasisSpec, b_prime=None,
                   laguerre_tail_form: bool = False,
                   tol: float = 1e-9) -> tuple[float, float | None]:
    """Squared distance between (projection of b)' and projection of b'.

    Returns (numeric, closed) where numeric integrates the squared
    difference directly and closed is the family formula: zero for the
    odd trigonometric case, a two-coefficient expression for Hermite, a
    squared coefficient sum (partial or, when b(0)=0, tail form) for
    Laguerre, and the even-dimension expression for Legendre (None for
    odd Legendre dimensions).  The caller asserts the family's boundary
    condition on b.
    """
    fam = spec.family
    if fam is Family.HALF_TRIG:
        raise ValueError("the commutation gap is defined for the orthonormal families")
    m = spec.m
    c = projection_coefficients(b, spec, m + spec.p, tol=tol)
    d = derivative_coefficients(b, spec, m, b_prime=b_prime, tol=tol)
    lo, hi = integration_bounds(spec)

    def diff_sq(x):
        vals = eval_basis(spec, x)
        derivs = derivative_recursion(spec, x)
        return (float(c[:m] @ derivs) - float(d @ vals)) ** 2

    numeric = _quad(diff_sq, lo, hi, tol)

    closed: float | None
    if fam is Family.TRIG_ODD:
        closed = 0.0
    elif fam is Family.HERMITE:
        closed = m / 2.0 * (c[m - 1] ** 2 + c[m] ** 2)
    elif fam is Family.LAGUERRE:
        if laguerre_tail_form:
            closed = 4.0 * m * _laguerre_tail_sum(b, spec, m, tol) ** 2
        else:
            closed = 4.0 * m * float(c[:m].sum()) ** 2
    else:  # LEGENDRE
        closed = _legendre_gap_closed(c, m) if m % 2 == 0 else None
    return numeric, closed


def _laguerre_tail_sum(b, spec: BasisSpec, m: int, tol: float) -> float:
    """Sum of coefficients from index m on, extended until it converges."""
    block, k_max = 40, m + 400
    total, start = 0.0, m
    while start < k_max:
        stop = min(start + block, k_max)
        coeffs = projection_coefficients(b, spec, stop, tol=tol)[start:stop]
        total += float(coeffs.sum())
        if np.abs(coeffs[-5:]).max() < 1e-10:
            return total
        start = stop
    raise QuadratureError("Laguerre tail coefficients did not converge by index "
                          f"{k_max}; is b smooth with b(0) = 0?")
