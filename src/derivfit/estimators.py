"""What a derivative fit is, and how its curve is drawn.

Two strategies build a derivative estimate from the least-squares fit.
Strategy 1 differentiates the regression fit: the coefficient vector
theta_m of the m-dimensional fit is evaluated against the basis
derivatives, which are the first m+p basis functions times the
transposed link matrix, so the curve is Phi_{m+p} (Delta^T theta).
Strategy 2 estimates the projection of the derivative directly:
integration by parts turns the derivative's projection coefficients into
minus the link matrix applied to the (m+p)-dimensional regression
coefficients, -Delta theta_{m+p}, and the result is evaluated against
the basis functions themselves.

This module holds the fit record (DerivativeFit and its Strategy), the
truncation rule and the curve evaluation.  The fits themselves come from
the one least-squares solve, selection.DesignCache.fit; the
fixed-dimension fit_derivative_1/2 live beside it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, delta_matrix, eval_basis


class Strategy(enum.Enum):
    DERIV_OF_PROJECTION = 1
    PROJECTION_OF_DERIV = 2


@dataclass(frozen=True)
class DerivativeFit:
    """A derivative estimate: coefficients plus the evaluation strategy."""

    theta: np.ndarray
    strategy: Strategy
    spec: BasisSpec
    truncated_to_zero: bool = False

    @property
    def m(self) -> int:
        return self.spec.m


def truncate_fit(fit: DerivativeFit, in_lambda: bool) -> DerivativeFit:
    """Zero out the fit unless the truncation gate at m+p passed
    (in_lambda: design.truncation_gate)."""
    truncated = fit.truncated_to_zero or not in_lambda
    if truncated == fit.truncated_to_zero:
        return fit
    return replace(fit, truncated_to_zero=truncated)


def evaluate_fit(fit: DerivativeFit, grid) -> np.ndarray:
    """Pointwise values on the grid; zero outside the support or when
    truncated.  Strategy 2 is Phi_m theta; strategy 1 is
    Phi_{m+p} (Delta^T theta), the basis values' zero rows outside the
    support included."""
    pts = np.atleast_1d(np.asarray(grid, dtype=float))
    if fit.truncated_to_zero:
        return np.zeros(pts.shape)
    if fit.strategy is Strategy.PROJECTION_OF_DERIV:
        return eval_basis(fit.spec, pts) @ fit.theta
    return eval_basis(fit.spec.extended(), pts) @ (delta_matrix(fit.spec).T @ fit.theta)
