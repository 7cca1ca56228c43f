"""Empirical Grams, their eigenvalues and the stability checks.

For a sample (X_1..X_n) and basis values at its points this module
builds the m-by-m empirical Gram (the matrix of empirical scalar
products) and the moments Phi^T y / n, factors the Gram, and evaluates
the two conditioning gates used downstream.  No derivative columns are
formed: the derivatives of the first m elements are the link matrix
Delta applied to the first m+p elements, so everything a derivative
needs is in coefficient space (the derivative Gram is
Delta Gram_{m+p} Delta^T).  The Gram and the moments are products of
fixed-width column panels, so those of the first m columns are bitwise
the leading blocks of those of all columns, and the Gram's Cholesky
factor is built row by row, so the factor of a leading block is bitwise
the leading block of the factor: one top-dimension product and one
factorization serve every nested dimension.  A Gram's ascending
eigenvalues (design_from_matrices, values only) are what the gates
read: is_singular is the singular rule on them, and 1/lambda_min is the
inverse's operator norm.  The factor bounds both for every leading
block at once (certified_dims: one triangular inverse and two
cumulative sums), which settles most dimensions' singular rule, and
certified_collection most collection gates, with no eigendecomposition
and with the answer the eigenvalues give; an eigendecomposition is left
for the dimensions the bounds leave open.  The basis values, the Gram,
its eigenvalues per dimension and every least-squares coefficient
vector belong to selection.DesignCache, which owns the factor.  Each gate
has one function, on spec, eigenvalues and n:

* truncation_gate: L(m) * (||Gram^-1||_op or 1) <= c * n/log(n) with
  the fixed constant c = (3 log(3/2) - 1)/9;
* stability_check, the collection gate: L(m) * (||Gram^-1||_op^2 or 1)
  <= d * n/log(n) with a configurable constant d, its fourth argument.

Both gates are meant to be evaluated at the extended dimension m+p of the
fit under consideration; singular Grams fail both.

A sample's trimmed range, the 3%-97% quantile range of its design points
(trim_interval), is computed once per sample, by whoever asks first
(Sample.trimmed).  sample_spec, the basis spec of a fit on a sample,
which the library's caches and the command line both build, holds the
one rule for half-trig's rescaling interval when none is given: the
trimmed range, when it has finite width and lo < hi, and a
DataFormatError naming it otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import BasisSpec, Family, l_factor
from .errors import DataFormatError

# c = (3 log(3/2) - 1)/9, approx 0.0240439
STABILITY_C = (3.0 * math.log(1.5) - 1.0) / 9.0

# relative eigenvalue cutoff below which the Gram counts as singular
SINGULAR_RTOL = 1e-10

# rounding margin of certified_dims' bounds, so that each dimension they
# settle is settled as the eigenvalues of design_from_matrices settle it.
# Wherever either answer is "not singular", kappa(G) <~ 1e10, and there:
# the computed factor L is the exact factor of G + dG with ||dG|| <=
# m gamma_{m+1} ||G|| (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., Thm 10.3; < 2e-13 ||G|| for m <= 41), which moves
# lambda_min by < 2e-3 relative; the computed inverse X has residual
# |XL - I| <= c m eps |X||L|, ~ m eps sqrt(kappa) < 1e-8, so F is exact
# to that; eigh's error, ~ m eps lambda_max, moves lambda_min by < 1e-4.
# All sit far inside 10 %, so neither rule can contradict eigh.  The
# margin was measured to settle most probes; it is not a knob.
SINGULAR_MARGIN = 1.1

# column width of the panels that gram and moments multiply; each entry
# comes from a BLAS call of one shape on the same columns whatever the
# total width, so the products of a column prefix are leading blocks
PANEL_WIDTH = 8

# rows per block of gram's panel products: a block of every panel stays
# in cache while all panel pairs use it; bounds depend on n only
ROW_BLOCK = 4096


@dataclass(frozen=True)
class Sample:
    """Paired observations; x and y must be finite 1-D arrays of equal length."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if x.size < 1:
            raise ValueError("sample must contain at least one observation")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("sample contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    @functools.cached_property
    def trimmed(self) -> tuple[float, float]:
        """The 3%-97% quantile range of x (trim_interval), computed once
        per sample: half-trig's default interval (sample_spec) and the
        harness's scoring interval."""
        return trim_interval(self)


def _panels(phi: np.ndarray) -> list[np.ndarray]:
    """The columns of phi as n-by-PANEL_WIDTH panels with unit column
    stride (views where phi has it), the last one zero-padded; one
    layout keeps every panel product on the same BLAS code path."""
    if phi.dtype != np.float64 or phi.strides[1] != phi.itemsize:
        phi = np.ascontiguousarray(phi, dtype=float)
    n, k = phi.shape
    full = k - k % PANEL_WIDTH
    panels = [phi[:, a:a + PANEL_WIDTH] for a in range(0, full, PANEL_WIDTH)]
    if full < k:
        panels.append(np.zeros((n, PANEL_WIDTH)))
        panels[-1][:, :k - full] = phi[:, full:]
    return panels


def gram(phi: np.ndarray) -> np.ndarray:
    """The empirical Gram phi^T phi / n from panel products, exactly
    symmetric; gram(phi[:, :m]) is bitwise gram(phi)[:m, :m].

    Each panel pair's product is summed over ROW_BLOCK-row blocks in
    row order, the first block assigned and later ones added, so for
    n <= ROW_BLOCK it is one full-height product."""
    panels = _panels(phi)
    (n, k), p, w = phi.shape, len(panels), PANEL_WIDTH
    blocks = np.empty((p, w, p, w))
    for r in range(0, n, ROW_BLOCK):
        rows = [panel[r:r + ROW_BLOCK] for panel in panels]
        for a in range(p):
            for b in range(a, p):
                product = rows[a].T @ rows[b]  # numpy: syrk if a == b
                blocks[a, :, b] = blocks[a, :, b] + product if r else product
                blocks[b, :, a] = blocks[a, :, b].T
    raw = blocks.reshape(p * w, p * w)[:k, :k] / n
    return (raw + raw.T) / 2.0  # exact symmetry by construction


def moments(phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """phi^T y / n from panel products; moments(phi[:, :m], y) is bitwise
    moments(phi, y)[:m]."""
    rhs = np.concatenate([panel.T @ y for panel in _panels(phi)])
    return rhs[:phi.shape[1]] / phi.shape[0]


def prefix_cholesky(psi_hat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of psi_hat, built row by row: row i is one
    triangular solve against rows < i and one dot product, so it depends
    on psi_hat[:i+1, :i+1] alone and the factor of a leading block is
    bitwise the leading block of the factor (LAPACK's blocked dpotrf is
    not).  The build stops at the first non-positive pivot, so the
    factor has fewer rows than psi_hat when a leading block is not
    positive definite."""
    k = psi_hat.shape[0]
    factor = np.zeros((k, k))
    for i in range(k):
        row = (scipy.linalg.blas.dtrsv(factor[:i, :i], psi_hat[i, :i], lower=1)
               if i else psi_hat[0, :0])
        pivot = psi_hat[i, i] - row @ row
        if not pivot > 0.0:
            return factor[:i, :i].copy()
        factor[i, :i] = row
        factor[i, i] = math.sqrt(pivot)
    return factor


def certified_dims(psi_hat: np.ndarray, factor: np.ndarray
                   ) -> tuple[np.ndarray, int, int]:
    """What the prefix factor proves about every leading block, with no
    eigendecomposition: (F, c, u).

    F[m-1] = ||L_m^-1||_F^2, from one triangular inverse of factor (whose
    leading blocks are the L_m^-1), bounds the smallest eigenvalue,
    1/F_m <= lambda_min(G_m) <= m/F_m, and t_m = trace(G_m) the largest,
    t_m/m <= lambda_max(G_m) <= t_m.  So dimension m is proved not
    singular where SINGULAR_MARGIN * SINGULAR_RTOL * F_m t_m < 1, and
    singular where SINGULAR_RTOL * F_m t_m >= SINGULAR_MARGIN * m^2.
    c is the longest prefix of the factor's dimensions proved not
    singular (F_m t_m does not decrease), u the first dimension proved
    singular, or one past the factor if none is."""
    k = len(factor)
    if not k:
        return np.empty(0), 0, 1
    inverse, _ = scipy.linalg.lapack.dtrtri(factor, lower=1)
    with np.errstate(over="ignore"):  # an inf F_m proves m singular
        f = np.cumsum(np.einsum("ij,ij->i", inverse, inverse))
        ratio = SINGULAR_RTOL * f * np.cumsum(np.diagonal(psi_hat)[:k])
    proved = SINGULAR_MARGIN * ratio < 1.0
    singular = np.flatnonzero(ratio >= SINGULAR_MARGIN * np.arange(1, k + 1) ** 2)
    return (f, k if proved.all() else int(np.argmin(proved)),
            int(singular[0]) + 1 if singular.size else k + 1)


def design_from_matrices(psi_hat: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues (values only) of the Gram psi_hat, e.g.
    the leading block of a wider Gram."""
    return scipy.linalg.eigh(psi_hat, eigvals_only=True)


def is_singular(eigvals: np.ndarray) -> bool:
    """The singular rule on a Gram's ascending eigenvalues:
    lambda_min <= SINGULAR_RTOL * lambda_max, or lambda_max <= 0."""
    return eigvals[0] <= SINGULAR_RTOL * max(eigvals[-1], 0.0) or eigvals[-1] <= 0.0


def trim_interval(sample: Sample) -> tuple[float, float]:
    """The 3%-97% empirical quantile range of the design points.

    Each quantile q interpolates linearly between order statistics, by
    numpy's default rule, which np.quantile(x, q) computes with the same
    operations: at the zero-based position v = (n-1)q, with i = floor(v),
    t = v - i, a = x_(i) and b = x_(i+1), it is a + (b-a)t, or
    b - (b-a)(1-t) where t >= 0.5.  One partition places the order
    statistics; it partitions at np.quantile's ranks, so tied values of
    either sign (+0.0 and -0.0) come out as np.quantile's do.
    """
    n = sample.n
    if n < 2:
        raise ValueError("need at least two observations to trim")
    at = [(n - 1) * q for q in (0.03, 0.97)]
    first = [math.floor(v) for v in at]  # v < n - 1, so x_(i+1) exists
    ordered = np.partition(sample.x, sorted({0, n - 1, *first, *(i + 1 for i in first)}))
    ends = []
    for v, i in zip(at, first):
        t = v - i
        a, b = float(ordered[i]), float(ordered[i + 1])
        ends.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return ends[0], ends[1]


def sample_spec(sample: Sample, family: Family, m: int,
                interval: tuple[float, float] | None = None) -> BasisSpec:
    """The basis spec of a fit on sample, and the one rule for half-trig's
    rescaling interval when none is given: the sample's trimmed range (a
    one-observation sample's is its one point), which must have finite
    width and lo < hi, else DataFormatError naming it.  BasisSpec rejects
    an interval for a fixed-support family.  Both fail before any basis
    evaluation."""
    if family is Family.HALF_TRIG and interval is None:
        lo, hi = interval = sample.trimmed if sample.n > 1 else (float(sample.x[0]),) * 2
        if not (math.isfinite(hi - lo) and lo < hi):
            raise DataFormatError(f"degenerate design for half-trig: the {sample.n} x "
                                  f"values' 3%-97% range [{lo!r}, {hi!r}] has no finite "
                                  f"width > 0; pass --interval a,b")
    return BasisSpec(family, m, interval)


# ---------------------------------------------------------------------------
# Stability / collection membership
# ---------------------------------------------------------------------------

def default_d_constant(x) -> float:
    """Default collection constant d = n^3 / (max(f_sup_hat, 1) + 1/3).

    The theoretical d (1/[192(||f||_inf or 1 + 1/3)]) empties the
    collection at any practical n, so the shipped default keeps the
    density-dependent denominator but rescales with n^3, calibrated on
    the simulation study so the collection reaches the oracle
    dimensions.  This is a knob: pass an explicit d to override.

    f_sup_hat is the largest density of a histogram of max(10, sqrt(n))
    equal-width bins over [min x, max x] (widened by 0.5 each way for a
    constant sample), each bin closed on the left and the last on both
    sides.  The binning is numpy's equal-width path of np.histogram(x,
    bins, density=True), written out with the same operations so that d
    keeps its bits without histogram's argument handling: a point's bin
    is its scaled offset truncated, corrected by one step against the
    np.linspace edges.  A sample whose edges are not strictly increasing
    (a range that overflows, or too narrow for the bins) or whose d is
    not finite and positive raises DataFormatError.
    """
    x = np.asarray(x, dtype=float)
    bins = max(10, int(math.sqrt(x.size)))
    lo, hi = x.min(), x.max()
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    d = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, bins + 1)
        if (edges[:-1] < edges[1:]).all():
            index = ((x - lo) / (hi - lo) * bins).astype(np.intp)
            index[index == bins] -= 1
            index[x < edges[index]] -= 1
            index[(x >= edges[index + 1]) & (index != bins - 1)] += 1
            counts = np.bincount(index, minlength=bins)
            f_sup = float((counts / np.diff(edges) / counts.sum()).max())
            d = x.size ** 3 / (max(f_sup, 1.0) + 1.0 / 3.0)
    if not (math.isfinite(d) and d > 0.0):
        raise DataFormatError(
            f"the default collection constant d cannot be computed from a histogram "
            f"of x over [{float(x.min())!r}, {float(x.max())!r}] in {bins} equal-width bins; "
            f"pass d explicitly (--d-const)")
    return d


def _budget(n: int) -> float:
    return n / math.log(n) if n > 1 else math.inf


def _in_lambda(lfac: float, op_inv: float, n: int) -> bool:
    return lfac * max(op_inv, 1.0) <= STABILITY_C * _budget(n)


def _in_collection(lfac: float, op_inv: float, n: int, d_constant: float) -> bool:
    return lfac * max(op_inv ** 2, 1.0) <= d_constant * _budget(n)


def truncation_gate(spec: BasisSpec, eigvals: np.ndarray, n: int) -> bool:
    """The truncation gate, with the first power of the Gram-inverse norm,
    on the ascending eigenvalues of spec's Gram (evaluate it at dimension
    m+p).  A singular Gram fails it."""
    return not is_singular(eigvals) and _in_lambda(l_factor(spec), 1.0 / eigvals[0], n)


def stability_check(spec: BasisSpec, eigvals: np.ndarray, n: int,
                    d_constant: float) -> bool:
    """The collection gate, with the square of the Gram-inverse norm and
    the constant d, on the ascending eigenvalues of spec's Gram (evaluate
    it at dimension m+p).  A singular Gram fails it."""
    return (not is_singular(eigvals)
            and _in_collection(l_factor(spec), 1.0 / eigvals[0], n, d_constant))


def certified_collection(spec: BasisSpec, f_m: float, n: int,
                         d_constant: float) -> bool | None:
    """stability_check at spec's dimension m, settled
    from f_m = ||L_m^-1||_F^2 (certified_dims' F) of a Gram proved not
    singular, with no eigenvalue: ||Gram^-1||_op lies in [f_m/m, f_m],
    so the gate passes where it passes at SINGULAR_MARGIN * f_m and fails
    where it fails at f_m / (SINGULAR_MARGIN * m).  None where the bounds
    leave it open."""
    lfac = l_factor(spec)
    if _in_collection(lfac, SINGULAR_MARGIN * f_m, n, d_constant):
        return True
    if not _in_collection(lfac, f_m / (SINGULAR_MARGIN * spec.m), n, d_constant):
        return False
    return None
