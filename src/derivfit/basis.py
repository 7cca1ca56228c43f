"""Orthonormal function families and their exact derivative structure.

Five families are supported:

* ``TRIG_ODD`` on [0, 1]: the constant 1 followed by sqrt(2)cos(2*pi*j*x),
  sqrt(2)sin(2*pi*j*x) pairs; only odd dimensions are admissible.
* ``HALF_TRIG`` rescaled to a configurable [a, b]: the constant plus
  sqrt(2/(b-a))sin/cos(pi*j*(x-a)/(b-a)) pairs in the order
  (1, sin, cos, sin, cos, ...); every dimension is admissible, and the
  functions extend periodically beyond [a, b].
* ``LAGUERRE`` on [0, inf): sqrt(2)*L_j(2x)*exp(-x).
* ``HERMITE`` on the real line: normalized Hermite functions.
* ``LEGENDRE`` on [-1, 1]: normalized Legendre polynomials.

Every family is evaluated by a recurrence, one vector step per column.
The polynomial families use normalized three-term recurrences with the
weights folded in, so values stay O(1) up to large degree.  The
trigonometric families take the sin/cos pair of frequency j from the
power z^j of z = e^{i theta}, one complex product per frequency, whose
rounding drift grows linearly in j.  ``eval_basis`` runs the recurrence
at the points clipped to the support, zeroes the rows of points outside
it and returns C-ordered (n, m) values, allocated once and filled block
by block of EVAL_BLOCK points, with no transient copy of the result.

Each family's derivatives lie in the span of the first m+p elements;
``delta_matrix`` returns that exact expansion, row j holding the
coefficients of the j-th element's derivative, and
``eval_basis_derivative`` evaluates the derivatives through it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class Family(enum.Enum):
    TRIG_ODD = "trig-odd"
    HALF_TRIG = "half-trig"
    LAGUERRE = "laguerre"
    HERMITE = "hermite"
    LEGENDRE = "legendre"


# Families whose derivatives stay inside the same m-dimensional span.
_P_ZERO = {Family.TRIG_ODD, Family.LAGUERRE, Family.LEGENDRE}

_FAMILY_ALIASES = {
    "trig": Family.TRIG_ODD,
    "trig-odd": Family.TRIG_ODD,
    "trigonometric": Family.TRIG_ODD,
    "half-trig": Family.HALF_TRIG,
    "halftrig": Family.HALF_TRIG,
    "half-trigonometric": Family.HALF_TRIG,
    "laguerre": Family.LAGUERRE,
    "hermite": Family.HERMITE,
    "legendre": Family.LEGENDRE,
}


def parse_family(name: str) -> Family:
    """Map a user-facing family name (CLI/config) to a Family member."""
    try:
        return _FAMILY_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown basis family {name!r}; choose from "
                         f"{sorted(set(_FAMILY_ALIASES))}") from None


@dataclass(frozen=True)
class BasisSpec:
    """A basis family together with a dimension m.

    HALF_TRIG carries its rescaling interval; the other families have a
    fixed support.  ``p`` is the derivative overflow: derivatives of the
    first m elements live in the span of the first m+p elements.
    """

    family: Family
    m: int
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        try:  # numpy integers pass, as in the selectors' grids
            operator.index(self.m)
        except TypeError:
            raise TypeError(f"dimension m must be an integer, "
                            f"got m = {self.m!r}") from None
        if self.m < 1:
            raise ValueError(f"dimension m must be >= 1, got {self.m}")
        if self.family is Family.TRIG_ODD and self.m % 2 == 0:
            raise ValueError("TRIG_ODD admits only odd dimensions")
        if self.family is Family.HALF_TRIG:
            if self.interval is None:
                raise ValueError("HALF_TRIG requires a rescaling interval (a, b)")
            try:
                a, b = self.interval
            except (TypeError, ValueError):
                raise ValueError(f"the HALF_TRIG interval must be a pair (a, b), "
                                 f"got {self.interval!r}") from None
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ValueError(f"invalid HALF_TRIG interval {self.interval}")
        elif self.interval is not None:
            raise ValueError(f"{self.family} has a fixed support; interval not allowed")

    @property
    def p(self) -> int:
        if self.family in _P_ZERO:
            return 0
        if self.family is Family.HERMITE:
            return 1
        # HALF_TRIG: odd m closes under differentiation (complete sin/cos
        # pairs); even m leaves a dangling sine whose derivative is the
        # cosine one index up.
        return 0 if self.m % 2 == 1 else 1

    @property
    def support(self) -> tuple[float, float]:
        """Where the functions live; evaluation outside gives zero.

        The half-trigonometric family extends over the whole line (its
        interval is a rescaling/normalization parameter, not a mask):
        clamping it to [a, b] makes the dictionary's own Gram
        exponentially ill-conditioned, while the periodic extension keeps
        design points beyond [a, b] informative.
        """
        if self.family is Family.TRIG_ODD:
            return (0.0, 1.0)
        if self.family is Family.LAGUERRE:
            return (0.0, math.inf)
        if self.family is Family.LEGENDRE:
            return (-1.0, 1.0)
        return (-math.inf, math.inf)

    def with_m(self, m: int) -> "BasisSpec":
        return BasisSpec(self.family, m, self.interval)

    def extended(self) -> "BasisSpec":
        """The spec at dimension m+p (identity when p = 0)."""
        return self if self.p == 0 else self.with_m(self.m + self.p)


def admissible_dims(family: Family, m_max: int) -> list[int]:
    """Dimensions the family admits, up to m_max."""
    if family is Family.TRIG_ODD:
        return list(range(1, m_max + 1, 2))
    return list(range(1, m_max + 1))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# Points per recurrence block in eval_basis.  A transient as large as the
# result grows the heap past its trim threshold, so its pages went back to
# the OS after every call and were faulted in again on the next; blocks of
# 2048 keep the paper's table (n <= 4000) at a few faults per repetition
# where 4096 (one block for n = 4000) leaves it at ~200, and in short
# perfbench pairs ran faster than 1024 on all three workloads.
EVAL_BLOCK = 2048


def eval_basis(spec: BasisSpec, x) -> np.ndarray:
    """Values (phi_1(x), ..., phi_m(x)); zero outside the support.

    Accepts a scalar (returns shape (m,)) or a 1-D array (returns a
    C-ordered (n, m) array).  The result is allocated once and filled
    block by block: the recurrence runs on at most EVAL_BLOCK consecutive
    points at a time, and each block's (m, B) rows are written transposed
    into the block's rows of the result, so no transient array is as
    large as the result.  Every recurrence step is elementwise, so the
    values do not depend on the blocking.  The recurrences run at the
    points clipped to the support, and the rows of points outside it are
    zeroed afterwards.
    """
    scalar = np.ndim(x) == 0
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = spec.support
    clipped = np.clip(pts, lo, hi)
    out = np.empty((pts.size, spec.m))
    for r in range(0, pts.size, EVAL_BLOCK):
        out[r:r + EVAL_BLOCK] = _eval_rows(spec, clipped[r:r + EVAL_BLOCK]).T
    out[~((pts >= lo) & (pts <= hi))] = 0.0
    return out[0] if scalar else out


def _eval_rows(spec: BasisSpec, x: np.ndarray) -> np.ndarray:
    """The values as an (m, n) array: row j holds phi_j at every point, so
    each step of a recurrence writes one contiguous row."""
    m = spec.m
    fam = spec.family
    out = np.empty((m, x.size))
    if fam is Family.TRIG_ODD:
        # order: 1, sqrt2 cos(2pi x), sqrt2 sin(2pi x), sqrt2 cos(4pi x), ...
        out[0] = 1.0
        _trig_pairs(out, 2.0 * np.pi * x, np.sqrt(2.0), sine_first=False)
    elif fam is Family.HALF_TRIG:
        # order: 1/sqrt(w), then amp sin(pi j u), amp cos(pi j u) pairs
        a, b = spec.interval  # type: ignore[misc]
        w = b - a
        out[0] = 1.0 / np.sqrt(w)
        _trig_pairs(out, np.pi * ((x - a) / w), np.sqrt(2.0 / w), sine_first=True)
    elif fam is Family.LAGUERRE:
        # l_j(x) = sqrt2 L_j(2x) e^{-x}; weight folded into the start values.
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


def _trig_pairs(out: np.ndarray, theta: np.ndarray, amp: float,
                sine_first: bool) -> None:
    """Fill rows 1, 2, ... of out with amp sin(j theta), amp cos(j theta)
    for j = 1, 2, ... (the cosine first unless sine_first).

    The pair of frequency j is the power p = z^j of z = e^{i theta}, one
    complex product p <- p z per frequency (two np.sin/np.cos calls in
    all).  Its rounding drift grows linearly in j, where the three-term
    form sin((j+1)t) = 2 cos t sin(jt) - sin((j-1)t) amplifies errors near
    t = 0, pi.  Row j depends only on the rows before it, so a leading
    block of rows is what a smaller dimension evaluates.
    """
    z = np.empty(theta.size, dtype=complex)
    z.real = np.cos(theta)
    z.imag = np.sin(theta)
    p = z
    for row in range(1, out.shape[0], 2):
        if row > 1:
            # not in place: numpy rounds an in-place product of one element
            # differently, and a point's values must not depend on how many
            # points are evaluated with it
            p = p * z
        first, second = (p.imag, p.real) if sine_first else (p.real, p.imag)
        np.multiply(first, amp, out=out[row])
        if row + 1 < out.shape[0]:
            np.multiply(second, amp, out=out[row + 1])


def eval_basis_derivative(spec: BasisSpec, x) -> np.ndarray:
    """Values (phi_1'(x), ..., phi_m'(x)), as the values of the first m+p
    elements times the transposed link matrix.

    x must lie in the closed support; strictly outside raises ValueError.
    """
    pts = np.asarray(x, dtype=float)
    lo, hi = spec.support
    if ((pts < lo) | (pts > hi)).any():
        raise ValueError("derivative evaluation outside the basis support")
    return eval_basis(spec.extended(), pts) @ delta_matrix(spec).T


# ---------------------------------------------------------------------------
# Derivative link matrix
# ---------------------------------------------------------------------------

def delta_matrix(spec: BasisSpec) -> np.ndarray:
    """Exact expansion of the first m derivatives in the first m+p elements:
    row j holds the coefficients of phi_j'."""
    m, p = spec.m, spec.p
    fam = spec.family
    delta = np.zeros((m, m + p))
    if fam is Family.TRIG_ODD:
        # first row zero, then antisymmetric 2x2 blocks per frequency
        for col in range(1, m):
            j = (col + 1) // 2
            om = 2.0 * np.pi * j
            if col % 2 == 1:   # cos row: cos' = -om * sin (next element)
                delta[col, col + 1] = -om
            else:              # sin row: sin' = om * cos (previous element)
                delta[col, col - 1] = om
    elif fam is Family.HALF_TRIG:
        a, b = spec.interval  # type: ignore[misc]
        w = b - a
        for col in range(1, m):
            j = (col + 1) // 2
            om = np.pi * j / w
            if col % 2 == 1:   # sin row: sin' = om * cos (next element)
                delta[col, col + 1] = om
            else:              # cos row: cos' = -om * sin (previous element)
                delta[col, col - 1] = -om
    elif fam is Family.LAGUERRE:
        for j in range(m):
            delta[j, j] = -1.0
            delta[j, :j] = -2.0
    elif fam is Family.HERMITE:
        for j in range(m):
            if j >= 1:
                delta[j, j - 1] = np.sqrt(j / 2.0)
            delta[j, j + 1] = -np.sqrt((j + 1) / 2.0)
    else:  # LEGENDRE, lower triangular with zero diagonal
        for n in range(1, m):
            if n % 2 == 1:
                q = (n - 1) // 2
                for k in range(q + 1):
                    delta[n, 2 * k] = np.sqrt(4 * q + 3) * np.sqrt(4 * k + 1)
            else:
                q = (n - 2) // 2
                for k in range(q + 1):
                    delta[n, 2 * k + 1] = np.sqrt(4 * q + 5) * np.sqrt(4 * k + 3)
    return delta


# ---------------------------------------------------------------------------
# Sup-norm factors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _hermite_sup_factor(m: int) -> float:
    """Numeric sup over x of sum_{j<m} h_j(x)^2 (grows like 0.45 sqrt(m))."""
    lim = math.sqrt(2 * m + 1) + 4.0
    grid = np.linspace(-lim, lim, 40001)
    spec = BasisSpec(Family.HERMITE, m)
    # a tenth of the grid at a time bounds the memory; the squares are in C
    # order, so each point's sum runs over its contiguous values
    return max(float(np.square(_eval_rows(spec, part).T, order="C").sum(axis=1).max())
               for part in np.array_split(grid, 10))


def l_factor(spec: BasisSpec) -> float:
    """sup_x of sum_{j<=m} phi_j(x)^2.

    Exact closed forms where they exist; the Hermite value is a cached
    numeric supremum, below the analytic bound m/sqrt(pi).
    """
    m = spec.m
    fam = spec.family
    if fam is Family.TRIG_ODD:
        return float(m)
    if fam is Family.HALF_TRIG:
        a, b = spec.interval  # type: ignore[misc]
        # complete pairs sum to a constant; a dangling sine adds up to 1 more
        return (m if m % 2 == 1 else m + 1) / (b - a)
    if fam is Family.LAGUERRE:
        return 2.0 * m
    if fam is Family.LEGENDRE:
        return m * m / 2.0
    return _hermite_sup_factor(m)
