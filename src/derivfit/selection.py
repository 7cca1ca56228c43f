"""The one least-squares sweep, the fits it gives, and dimension selection
(data-driven, oracle and reuse).

The data-driven selector compares every pair of candidate fits through
their empirical-norm distance at the sample points, penalized by a
variance proxy, and restricts candidates to the collection whose Gram
conditioning passes the squared-norm gate.  Both live in coefficient
space and no derivative columns are formed: the derivatives of the
first m elements are the link matrix Delta applied to the first m+p, so
the derivative Gram is Psi' = Delta Gram_{m+p} Delta^T = B B^T with
B = Delta L_{m+p} for the Gram's Cholesky factor L, and Psi' itself is
never built.  The distance of two fits at the sample points is
|B^T (theta_i - theta_j)|^2 with zero-padded coefficients, one product
B^T Theta for all members and O(k M^2) for all pairs, and each member's
penalty is the top eigenvalue alone of the leading block of one
whitened W = C C^T, C = L^-1 B.
The oracle selector uses the known target (simulation only); the reuse
selector picks the dimension by a penalized least-squares contrast on
the regression fit and reuses it for the derivative.

Each sample gets one sweep: a DesignCache evaluates the basis once,
builds one panel Gram, one Phi^T y and one prefix Cholesky factor of the
Gram at the top dimension, whose leading blocks are every dimension's
Gram, moments and factor, and B from the factor once per pass when gl
needs it.  One forward substitution z = L^-1 Phi^T y / n, prefix-exact
like the factor, serves every member's coefficients: theta_m is one
back-substitution of z[:m] against the leading block of L^T.  The
residual mean squares come from n-space products y - Phi theta: the
noise estimate's, of the top member alone, and then the reuse
contrast's, of the other members.  No dimension's Gram is
eigendecomposed for a solve or a penalty: the edge of the collection and
the first singular dimension are monotone in m (Cauchy interlacing,
assumed to hold for the rounded eigenvalues too), so each is found by
bisection.  The prefix factor settles most probes
with no eigendecomposition (design.certified_dims): every dimension up
to c is proved not singular and every one from u on singular, and a
gate probe at m+p <= c is passed or failed from ||L^-1||_F^2 wherever
the bounds decide it (design.certified_collection).  Only a probe the
bounds leave open, between c and u or at a gate edge, costs one
values-only eigendecomposition, memoized in the cache (eigvals); the
gate and the singular rule read those eigenvalues alone, and each
settled probe has the answer they would give.  A gated draw bisects
once: a member passes the gate at m+p, so no Gram up to m+p is
singular, and the first singular dimension is sought only by the
oracle, a fixed-dimension fit or a solve above every member, and only
between c and u.
A Selection is the one selection pass over a sample, which
estimate_sigma2, gl_select, reuse_select, the harness's gl and reuse
draws and calibrate_kappa's draws all build.  It resolves its inputs in
one prologue before any cache: _check_tuning, the one check of kappa0,
kappa1 (KAPPA by default), sigma2 (None: estimate it) and d, which the
harness's config and `derivfit select` also make in every mode and
calibrate_kappa once per kappa; the grid is taken ascending and without
repeats and must be admissible, and an estimate of sigma2 must have room.
Then it builds one cache, at the largest grid entry the sample can carry
(a Gram of more columns than points is singular), gates the grid
(collection_members) and estimates sigma^2; the reuse contrast and gl's
penalties and pairwise distances are computed on first use, once per
pass; compare() is gl's choice from them under the pass's kappa0 and
kappa1 (or others given to it) and m_hat that choice under its own.
The pass is the selection's one record: gl_select returns it, and its
grid, members, v_hat, compare()[1] and m_hat are what a caller reads.
The cache is the package's one least-squares solve: every theta, the
fixed-dimension fits included, is one of its leading-block solves, and
DesignCache.fit turns theta_m into the strategy-1 fit and theta_{m+p}
into the strategy-2 fit -Delta theta_{m+p}.
fit_derivative_1/2 are that call on a cache of their own, built at the
fit's dimension once the sample can carry it (m, or m+p for strategy 2,
at most n).  Grid scoring (_oracle_error_sweep, the one scoring path of
the oracle and the harness) builds the EVAL_GRID_POINTS grid over the
interval it is given, evaluates the basis and the target functions once
on it, and all dimensions' curves in one product per target, the
derivative curves as Phi_{m+p} (Delta^T theta); when no candidate
dimension is solvable it raises the package's one SingularGramError for
that.  Every selector, the oracle included, scans its candidates in
order and keeps the earlier one unless a later one is better by more
than CRITERION_TIE_TOL.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import operator

import numpy as np
from scipy.linalg import blas, lapack

from .basis import BasisSpec, Family, admissible_dims, delta_matrix, eval_basis
from .design import (Sample, certified_collection, certified_dims, default_d_constant,
                     design_from_matrices, gram, is_singular, moments, prefix_cholesky,
                     stability_check, trim_interval)
from .errors import EmptyCollectionError, SingularGramError
from .estimators import DerivativeFit, Strategy

CRITERION_TIE_TOL = 1e-12
KAPPA = 1.0  # the default of both comparison constants, kappa0 and kappa1
EVAL_GRID_POINTS = 512  # the oracle's scoring grid


def _none_or_positive(value) -> bool:
    return value is None or (isinstance(value, numbers.Real) and math.isfinite(value)
                             and value > 0)


def _check_tuning(sigma2: float | None, d_constant: float | None,
                  kappa0: float, kappa1: float) -> None:
    """The one check of the selectors' tuning constants: finite
    0 < kappa0 <= kappa1, and sigma2 (None: estimate it) and the
    collection constant d (None: the sample-dependent default) positive
    and finite."""
    if not (isinstance(kappa0, numbers.Real) and isinstance(kappa1, numbers.Real)
            and math.isfinite(kappa1) and 0 < kappa0 <= kappa1):
        raise ValueError(f"require finite 0 < kappa0 <= kappa1, got kappa0 = "
                         f"{kappa0}, kappa1 = {kappa1}")
    if not _none_or_positive(sigma2):
        raise ValueError(f"sigma2 must be positive and finite (None: estimate it), "
                         f"got sigma2 = {sigma2!r}")
    if not _none_or_positive(d_constant):
        raise ValueError(f"the collection constant d must be finite and "
                         f"positive, got d = {d_constant!r}")


class DesignCache:
    """The one sweep over nested dimensions that a sample gets.

    The basis is evaluated once, at the top dimension's m+p columns;
    every dimension's values are a column slice of that evaluation.  The
    Gram, Phi^T y / n and the Gram's prefix Cholesky factor are built
    once there: dimension m's Gram is the leading m-by-m block (a view),
    its right-hand side the first m moments and its factor the leading
    m-by-m block of the factor, bitwise what a direct build at m
    computes.  z = L^-1 Phi^T y / n is one forward substitution, on
    first use, and its first m entries are dimension m's, so theta(m) is
    one back-substitution of z[:m] (memoized; the one solve behind every
    fit, ranking and score), fit(m, strategy) is either strategy's
    derivative fit from those coefficients, and residual_ms forms
    (1/n)|y - Phi theta_m|^2 for every uncached m from one product.

    The singular dimensions form a suffix of 1..K (Cauchy interlacing:
    the Gram's smallest eigenvalue does not grow with m, its largest does
    not shrink), and this monotonicity is assumed wherever the cache
    reads a bound.  certified, computed on first use from the Gram and
    the factor alone, proves every dimension up to c not singular and
    every one from u on singular.  eigvals(m), the ascending eigenvalues
    of the leading m-by-m block (one values-only eigendecomposition,
    memoized), is computed only for probes of a bisection that those
    bounds leave open: the collection gate's, at m+p, and m_singular's,
    which bisects only between c and u.  Every dimension up to c, or up
    to a probed Gram that is not singular within the factor, is
    solvable, so solvable(m) bisects for m_singular only above both:
    after the gate, every member's theta, residual and score needs no
    further eigendecomposition, while the oracle and a fixed-dimension
    fit bisect as they need.

    trimmed, the sample's 3%-97% quantile range, is computed once: it is
    half-trig's interval when none is given, and the harness's scoring
    interval.  The gate, the noise estimate, every selector and the error
    scoring share one cache.  The derivative Gram is never formed:
    derivative_root(k) is its square root B = Delta_k L_{k+p}, with
    Psi'_k = Delta Gram_{k+p} Delta^T = B B^T, from the factor alone.
    The first m rows of Delta are zero past dimension m's m+p columns and
    L is lower triangular, so the first m rows of B are exactly zero
    there too: they are the root of dimension m's derivative Gram.
    """

    def __init__(self, sample: Sample, family: Family, m_hi: int,
                 interval: tuple[float, float] | None = None):
        self.sample = sample
        self.family = family
        if family is Family.HALF_TRIG and interval is None:
            interval = self.trimmed
        # the top spec, so BasisSpec rejects an interval for a fixed-support
        # family before the basis is evaluated
        self.spec = BasisSpec(family, m_hi, interval)
        self._phi = eval_basis(self.spec.extended(), sample.x)
        self._gram = gram(self._phi)
        self._rhs = moments(self._phi, sample.y)
        self.factor = prefix_cholesky(self._gram)
        self._eigvals: dict[int, np.ndarray] = {}
        self._solvable_to = 0  # the largest non-singular Gram probed within the factor
        self._thetas: dict[int, np.ndarray] = {}
        self._residuals: dict[int, float] = {}

    @functools.cached_property
    def trimmed(self) -> tuple[float, float]:
        """The sample's 3%-97% quantile range: half-trig's default interval
        and the harness's scoring interval."""
        return trim_interval(self.sample)

    def spec_for(self, m: int) -> BasisSpec:
        return self.spec.with_m(m)

    def eigvals(self, m: int) -> np.ndarray:
        """The ascending eigenvalues of dimension m's Gram, the leading
        m-by-m block of the cache's Gram (memoized); a non-singular one
        within the factor raises the bound that solvable reads."""
        if m > len(self._gram):
            raise ValueError(f"dimension {m} exceeds the cache's top dimension "
                             f"{len(self._gram)}")
        if m not in self._eigvals:
            lam = design_from_matrices(self._gram[:m, :m])
            if not is_singular(lam) and m <= len(self.factor):
                self._solvable_to = max(self._solvable_to, m)
            self._eigvals[m] = lam
        return self._eigvals[m]

    @functools.cached_property
    def certified(self) -> tuple[np.ndarray, int, int]:
        """certified_dims of the cache's Gram and factor, (F, c, u): the
        dimensions up to c are proved not singular, those from u on
        singular, with no eigendecomposition."""
        return certified_dims(self._gram, self.factor)

    @functools.cached_property
    def m_singular(self) -> int:
        """The first admissible dimension whose Gram is singular, by
        bisection over eigvals between the certified bounds c and u; one
        past the factor's rows if none is (a non-positive pivot at row i
        makes dimension i + 1 singular)."""
        dims = admissible_dims(self.family, len(self.factor))
        _, proved_to, singular_from = self.certified
        i = bisect.bisect_left(dims, True, bisect.bisect_right(dims, proved_to),
                               bisect.bisect_left(dims, singular_from),
                               key=lambda m: is_singular(self.eigvals(m)))
        return dims[i] if i < len(dims) else len(self.factor) + 1

    def solvable(self, m: int) -> bool:
        """Whether m lies below m_singular: no bisection at or under c or
        the largest non-singular Gram probed so far, since by monotonicity
        no smaller Gram is singular either."""
        return (m <= self._solvable_to or m <= self.certified[1]
                or m < self.m_singular)

    def theta(self, m: int) -> np.ndarray:
        """Least-squares coefficients at dimension m, L_m^T theta = z[:m]
        (raises SingularGramError)."""
        if m not in self._thetas:
            if not self.solvable(m):
                raise _singular_at(m, self.family)
            self._thetas[m] = blas.dtrsv(self.factor[:m, :m], self.z[:m], lower=1, trans=1)
        return self._thetas[m]

    def fit(self, m: int, strategy: Strategy) -> DerivativeFit:
        """The derivative fit at dimension m: theta_m for strategy 1,
        -Delta theta_{m+p} for strategy 2 (raises SingularGramError)."""
        spec = self.spec_for(m)
        if strategy is Strategy.DERIV_OF_PROJECTION:
            theta = self.theta(m)
        else:
            theta = -(delta_matrix(spec) @ self.theta(spec.extended().m))
        return DerivativeFit(theta=theta, strategy=strategy, spec=spec)

    @functools.cached_property
    def z(self) -> np.ndarray:
        """z = L^-1 Phi^T y / n, one forward substitution against the
        factor, prefix-exact like the factor: its first m entries are
        dimension m's, and theta_m solves L_m^T theta = z[:m]."""
        return blas.dtrsv(self.factor, self._rhs[:len(self.factor)], lower=1)

    def thetas(self, dims) -> np.ndarray:
        """The coefficient vectors of dims as columns, zero-padded to max(dims)."""
        out = np.zeros((max(dims), len(dims)))
        for col, m in enumerate(dims):
            out[:m, col] = self.theta(m)
        return out

    def derivative_root(self, m: int) -> np.ndarray:
        """B = Delta_m L_{m+p}, the m-by-(m+p) square root of dimension m's
        derivative Gram Phi'^T Phi' / n = B B^T (m+p within the factor);
        its first j rows are dimension j's root."""
        ext = self.spec_for(m).extended().m
        return delta_matrix(self.spec_for(m)) @ self.factor[:ext, :ext]

    def residual_ms(self, dims) -> np.ndarray:
        """Residual mean squares (1/n)|y - Phi theta_m|^2 for m in dims
        (memoized), the uncached ones from one product (raises
        SingularGramError)."""
        todo = sorted(set(dims) - self._residuals.keys())
        if todo:
            thetas = self.thetas(todo)
            resid = thetas.T @ self._phi[:, :len(thetas)].T  # one fit per row
            resid -= self.sample.y
            values = np.einsum("ij,ij->i", resid, resid) / self.sample.n
            self._residuals.update(zip(todo, values.tolist()))
        return np.array([self._residuals[m] for m in dims])


def _singular_at(m: int, family: Family) -> SingularGramError:
    return SingularGramError(f"Gram matrix is numerically singular at m={m} "
                             f"(family {family.value})")


def _fit_cache(sample: Sample, spec: BasisSpec, strategy: Strategy) -> DesignCache:
    """The cache of strategy's fit at spec, built at the fit's dimension.
    The fit solves at m (strategy 1) or m+p (strategy 2), and a Gram of
    that many columns on n points has rank <= n, so one wider than the
    sample raises SingularGramError before the basis is evaluated."""
    solved_at = spec.m if strategy is Strategy.DERIV_OF_PROJECTION else spec.extended().m
    if solved_at > sample.n:
        raise _singular_at(solved_at, spec.family)
    return DesignCache(sample, spec.family, spec.m, spec.interval)


def fit_derivative_1(sample: Sample, spec: BasisSpec) -> DerivativeFit:
    """Derivative of the regression fit (same coefficients, derivative basis)."""
    strategy = Strategy.DERIV_OF_PROJECTION
    return _fit_cache(sample, spec, strategy).fit(spec.m, strategy)


def fit_derivative_2(sample: Sample, spec: BasisSpec) -> DerivativeFit:
    """Projection estimator of the derivative: theta =
    -(1/n) Delta Gram_{m+p}^-1 Phi_{m+p}^T y, evaluated against
    (phi_1..phi_m)."""
    strategy = Strategy.PROJECTION_OF_DERIV
    return _fit_cache(sample, spec, strategy).fit(spec.m, strategy)


def default_m_grid(family: Family, n: int, m_max: int | None = None) -> tuple[int, ...]:
    """Admissible dimensions up to min(40, n // 10) (or an explicit cap, at most n)."""
    if m_max is None:
        m_max = min(40, max(1, n // 10))
    elif m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    # a Gram of more columns than points is singular: no entry above n is a member
    return tuple(admissible_dims(family, min(m_max, n)))


def _checked_m_grid(m_grid, family: Family, n: int) -> tuple[int, ...]:
    """m_grid as ascending ints without repeats, or default_m_grid for
    None: the one place a grid is normalized.  An empty grid, or one with
    entries the family does not admit, is rejected before any cache (a
    non-integer entry with a TypeError)."""
    if m_grid is None:
        return default_m_grid(family, n)
    grid = tuple(sorted({operator.index(m) for m in m_grid}))
    if not grid:
        raise ValueError("the dimension grid m_grid is empty")
    bad = sorted(set(grid) - set(admissible_dims(family, grid[-1])))
    if bad:
        raise ValueError(f"the dimension grid m_grid has entries the {family.value} "
                         f"family does not admit: {bad}")
    return grid


def penalty_v_hat(whitened: np.ndarray, sigma2: float, n: int) -> float:
    """Variance proxy: (sigma^2 m / n) times the top eigenvalue of the
    m-by-m derivative Gram in the Gram's metric, whitened = L^-1 Psi' L^-T
    with L L^T the Gram (the spectrum of Gram^-1 Psi'; see _whitened).
    LAPACK dsyevr computes that one eigenvalue alone (tridiagonalization
    and bisection), reading the lower triangle; a 1-by-1 block is its own."""
    m = len(whitened)
    top = lapack.dsyevr(whitened, compute_v=0, range="I", il=m, iu=m, lower=1)[0][0]
    return sigma2 * m / n * max(top, 0.0)


def _whitened(factor: np.ndarray, root: np.ndarray) -> np.ndarray:
    """W = C C^T with C = L^-1 B, for the lower Cholesky factor L of the
    Gram and the derivative Gram's root B: L^-1 Psi' L^-T, exactly
    symmetric.  L^-1 is lower triangular, so the first m rows of C are
    L_m^-1 B_m and W's leading m-by-m block is dimension m's."""
    # LAPACK dtrtrs, the routine solve_triangular calls, without its
    # checks: BLAS dtrsm rounds a 1-by-1 factor (one member) differently
    c = lapack.dtrtrs(factor, root, lower=1)[0]
    return c @ c.T  # numpy forms a matrix times its own transpose with one syrk


def collection_members(cache: DesignCache, m_grid, d_constant: float) -> list[int]:
    """The dimensions of the ascending grid m_grid (as _checked_m_grid
    returns it) whose extended Gram's conditioning passes the gate under
    the collection constant d; an empty collection raises
    EmptyCollectionError.

    Membership is checked at m+p: m is a member when m+p is within the
    cache's factor, its Gram is not singular and the collection gate of
    stability_check passes on eigvals(m+p).  By the monotonicity the cache
    assumes, no Gram smaller than a member's m+p is singular either:
    every member is solvable with no bisection for m_singular.  L(m+p)
    and ||Gram^-1|| do not decrease with m, so the members are a prefix
    of the grid, found by bisection.  A probe at or above the cache's
    certified u fails with no eigenvalue and no L(m+p); one at or under
    its c is settled by certified_collection where the bounds decide it;
    the rest read stability_check on eigvals(m+p), which fails a singular
    Gram.
    """
    if any(a >= b for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError(f"the grid must be ascending without repeats, got {list(m_grid)}")
    n = cache.sample.n
    f, proved_to, singular_from = cache.certified

    def fails(m: int) -> bool:
        ext = cache.spec_for(m).extended()
        # a singular Gram fails the gate, proved or probed: skip L(m+p)
        if ext.m >= singular_from:
            return True
        if ext.m <= proved_to:
            settled = certified_collection(ext, f[ext.m - 1], n, d_constant)
            if settled is not None:
                return not settled
        return not stability_check(ext, cache.eigvals(ext.m), n, d_constant)

    members = list(m_grid[:bisect.bisect_left(m_grid, True, key=fails)])
    if not members:
        raise EmptyCollectionError(
            f"no dimension in {list(m_grid)} passes the collection gate "
            f"(d={d_constant:.3g}, n={n})")
    return members


def _cache_top(m_grid, n: int) -> int:
    """The dimension a selector builds its cache at: the largest entry of
    the ascending grid m_grid that n points can carry.  A Gram of more
    than n columns has rank <= n, so it is singular and no entry above n
    is ever a member or a solvable dimension; the entries above the cache
    fail the gate and the oracle's scan as they would in a wider cache.
    If every entry is above n, a one-column cache lets them fail alike."""
    i = bisect.bisect_right(m_grid, n)
    return m_grid[i - 1] if i else 1


def _check_room_for_sigma2(n: int, m_grid, family: Family) -> None:
    """The residual estimate of sigma^2 needs n > 2 m_max: the one check
    of that rule, made before the first cache by every Selection that
    estimates sigma^2, by the harness's config in gl and reuse mode and by
    calibrate_kappa before its sweep."""
    m_max = max(m_grid)
    if n <= 2 * m_max:
        raise ValueError(f"estimating sigma2 needs n > 2*m_max, but n = {n} with "
                         f"m_max = {m_max} ({family.value}); raise n or lower m_max")


def _first_minimum(dims, values) -> int:
    """The tie rule of every selector: scanning dims in order, the current
    pick stays unless a later value is lower by more than CRITERION_TIE_TOL."""
    best_m, best = dims[0], math.inf
    for m, value in zip(dims, values):
        if value < best - CRITERION_TIE_TOL:
            best_m, best = m, value
    return best_m


class Selection:
    """One selection pass over a sample: the gate, sigma^2-hat and the
    terms both choices read, on the sample's one DesignCache.

    Building it runs the prologue before any cache (_check_tuning, the
    grid as _checked_m_grid returns it and, when sigma2 is None, the room
    for its estimate), builds the cache at _cache_top of the grid, gates
    the grid (collection_members) and resolves sigma^2: the given value,
    or the residual mean square at the largest member, corrected for the
    fitted degrees of freedom.  cache, grid, members, sigma2,
    d_constant, kappa0 and kappa1 are the values as used; compare uses
    the pass's kappa0 and kappa1 unless given others, and m_hat is its
    choice under them.

    The rest is computed on first use, once per pass: the reuse contrast
    (the residual mean square of each member plus 2 sigma^2 m / n) with
    its choice m_reuse, and gl's penalty V-hat per member and the squared
    empirical distances of every pair of member fits, from which
    compare(kappa0, kappa1) makes gl's choice with one comparison per
    kappa.  sigma^2-hat reads the top member's residual in a product of
    its own, before the contrast reads the rest, so each has the bits of
    its own product.
    """

    def __init__(self, sample: Sample, family: Family, m_grid=None,
                 sigma2: float | None = None, d_constant: float | None = None,
                 interval: tuple[float, float] | None = None,
                 kappa0: float = KAPPA, kappa1: float = KAPPA):
        _check_tuning(sigma2, d_constant, kappa0, kappa1)
        self.kappa0, self.kappa1 = kappa0, kappa1
        self.grid = _checked_m_grid(m_grid, family, sample.n)
        if sigma2 is None:
            _check_room_for_sigma2(sample.n, self.grid, family)
        self.cache = DesignCache(sample, family, _cache_top(self.grid, sample.n), interval)
        # the checks above leave d and sigma2 None or positive
        self.d_constant = d_constant or default_d_constant(sample.x)
        self.members = collection_members(self.cache, self.grid, self.d_constant)
        n, top = sample.n, self.members[-1]
        self.sigma2 = float(sigma2 or self.cache.residual_ms([top])[0] * n / (n - top))

    @functools.cached_property
    def m_reuse(self) -> int:
        """The member minimizing the reuse contrast: the residual mean
        square plus 2 sigma^2 m / n."""
        n = self.cache.sample.n
        return _first_minimum(self.members, self.cache.residual_ms(self.members)
                              + 2.0 * self.sigma2 * np.asarray(self.members) / n)

    @functools.cached_property
    def _root(self) -> np.ndarray:
        """The root B of the top member's derivative Gram, which the
        penalties and the distances both read."""
        return self.cache.derivative_root(self.members[-1])

    @functools.cached_property
    def v_hat(self) -> np.ndarray:
        """gl's penalty per member, each from the leading block of one
        whitened derivative Gram."""
        n, k = self.cache.sample.n, self.members[-1]
        whitened = _whitened(self.cache.factor[:k, :k], self._root)
        return np.array([penalty_v_hat(whitened[:m, :m], self.sigma2, n) for m in self.members])

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """The squared empirical distances of the member fits, all pairs at
        once: with zero-padded coefficients, (theta_i - theta_j)^T Psi'
        (theta_i - theta_j) = |B^T theta_i - B^T theta_j|^2."""
        u = self._root.T @ self.cache.thetas(self.members)
        diff = u[:, :, None] - u[:, None, :]
        return np.einsum("rij,rij->ij", diff, diff)

    def compare(self, kappa0=None, kappa1=None) -> tuple[int, np.ndarray]:
        """The pairwise-comparison choice under kappa0 and kappa1 (None:
        the pass's own, else checked as _check_tuning does) and the bias
        proxy A per member: (m_hat, A)."""
        kappa0 = self.kappa0 if kappa0 is None else kappa0
        kappa1 = self.kappa1 if kappa1 is None else kappa1
        _check_tuning(None, None, kappa0, kappa1)
        # strict upper pairs (the m-wedge fit coincides with the m2 fit for
        # m2 <= m); the zeros left on and below the diagonal clip A at 0
        a = np.triu(self.distances - kappa0 * self.v_hat, 1).max(axis=1)
        return _first_minimum(self.members, a + kappa1 * self.v_hat), a

    @functools.cached_property
    def m_hat(self) -> int:
        """gl's choice under the pass's own kappa0 and kappa1."""
        return self.compare()[0]


def estimate_sigma2(sample: Sample, family: Family,
                    m_grid=None, d_constant: float | None = None,
                    interval: tuple[float, float] | None = None) -> float:
    """Residual mean square at the largest collection member, corrected
    for the fitted degrees of freedom."""
    return Selection(sample, family, m_grid, None, d_constant, interval).sigma2


def gl_select(sample: Sample, family: Family, m_grid=None,
              sigma2: float | None = None,
              d_constant: float | None = None,
              interval: tuple[float, float] | None = None,
              kappa0: float = KAPPA, kappa1: float = KAPPA
              ) -> tuple[Selection, DerivativeFit]:
    """Pick the dimension minimizing the pairwise-comparison criterion.

    For each member m, the bias proxy is the largest clipped excess of
    the empirical-norm distance to every other member's strategy-1 fit
    over the penalized variance proxy; the criterion adds kappa1 times
    the member's own penalty.  Ties within 1e-12 go to the smaller m.
    m_grid None means the family's admissible dimensions up to
    min(40, n // 10), sigma2 None an estimate from the residuals and
    d_constant None the sample-dependent default, as in reuse_select.
    Returns the pass, whose m_hat is the chosen dimension, and the
    strategy-1 fit there.
    """
    selection = Selection(sample, family, m_grid, sigma2, d_constant, interval, kappa0, kappa1)
    return selection, selection.cache.fit(selection.m_hat, Strategy.DERIV_OF_PROJECTION)


def oracle_select(sample: Sample, family: Family, m_grid, truth,
                  eval_interval: tuple[float, float],
                  interval: tuple[float, float] | None = None
                  ) -> tuple[int, float, DerivativeFit]:
    """Dimension minimizing the true squared L2 error of the derivative
    fit (simulation only).

    truth is the target derivative function; the error is a
    trapezoid-rule integral on EVAL_GRID_POINTS uniform points over
    eval_interval (_oracle_error_sweep).  Singular dimensions are
    skipped; if every fit is singular the sweep's SingularGramError is
    raised.  Errors within CRITERION_TIE_TOL of each other tie, and ties
    go to the smaller dimension.  Returns (chosen m, its error,
    strategy-1 derivative fit at m), the fit from the same cache as the
    errors, as gl_select and reuse_select do.
    """
    m_grid = _checked_m_grid(m_grid, family, sample.n)
    cache = DesignCache(sample, family, _cache_top(m_grid, sample.n), interval)
    errors = _oracle_error_sweep(cache, m_grid, eval_interval, {"derivative": truth})
    best_m = _first_minimum(list(errors), [e["derivative"] for e in errors.values()])
    return best_m, errors[best_m]["derivative"], cache.fit(best_m, Strategy.DERIV_OF_PROJECTION)


def eval_on_grid(fn, grid: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function on a grid, vectorized when possible."""
    try:
        vals = np.asarray(fn(grid), dtype=float)
        if vals.shape == grid.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.asarray([fn(float(x)) for x in grid], dtype=float)


def _oracle_error_sweep(cache: DesignCache, m_grid, interval: tuple[float, float],
                        targets: dict) -> dict[int, dict[str, float]]:
    """Trapezoid-rule squared errors per non-singular dimension of m_grid
    for each named target function, on EVAL_GRID_POINTS uniform points
    over interval: one basis evaluation on that grid at the top
    dimension's m+p columns, then one curve product and one trapezoid
    sum per target; derivative curves are Phi_{m+p} (Delta^T theta).
    The sum is np.trapezoid's own expression, with the grid's steps
    taken once.  Raises SingularGramError when no dimension of m_grid is
    solvable."""
    dims = [m for m in m_grid if cache.solvable(m)]
    if not dims:
        raise SingularGramError("every candidate dimension has a singular Gram")
    grid = np.linspace(*interval, EVAL_GRID_POINTS)
    steps = np.diff(grid)[:, None]
    thetas = cache.thetas(dims)
    spec = cache.spec_for(thetas.shape[0])
    ext = eval_basis(spec.extended(), grid)
    errors = {}
    for kind, target in targets.items():
        curves = (ext[:, :spec.m] @ thetas if kind == "regression"
                  else ext @ (delta_matrix(spec).T @ thetas))
        sq = (curves - eval_on_grid(target, grid)[:, None]) ** 2
        errors[kind] = (steps * (sq[1:] + sq[:-1]) / 2.0).sum(0).tolist()
    return {m: {kind: err[col] for kind, err in errors.items()}
            for col, m in enumerate(dims)}


def reuse_select(sample: Sample, family: Family, m_grid=None,
                 sigma2: float | None = None,
                 d_constant: float | None = None,
                 interval: tuple[float, float] | None = None
                 ) -> tuple[int, DerivativeFit]:
    """Select the dimension for the regression fit by penalized contrast
    (residual empirical norm plus 2 sigma^2 m / n) and reuse it for the
    derivative.  Returns (chosen m, strategy-1 derivative fit)."""
    selection = Selection(sample, family, m_grid, sigma2, d_constant, interval)
    return selection.m_reuse, selection.cache.fit(selection.m_reuse,
                                                  Strategy.DERIV_OF_PROJECTION)
