"""The two derivative estimators, both built on the least-squares fit.

Strategy 1 differentiates the regression fit: the coefficient vector of
the m-dimensional least-squares fit is evaluated against the basis
derivatives, which are the first m+p basis functions times the
transposed link matrix, so the curve is Phi_{m+p} (Delta^T theta).
Strategy 2 estimates the projection of the derivative directly:
integration by parts turns the derivative's projection coefficients into
minus the link matrix applied to the (m+p)-dimensional regression
coefficients, and the result is evaluated against the basis functions
themselves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisSpec, delta_matrix, eval_basis
from .design import DesignSet, Sample, StabilityVerdict, build_design, moments


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


def _solve_theta(design: DesignSet, y: np.ndarray) -> np.ndarray:
    """theta = Gram^-1 (1/n) Phi^T y (raises SingularGramError)."""
    return design.solve_psi(moments(design.phi, y))


def fit_derivative_1(sample: Sample, spec: BasisSpec,
                     design: DesignSet | None = None) -> DerivativeFit:
    """Derivative of the regression fit (same coefficients, derivative basis)."""
    if design is None:
        design = build_design(sample, spec)
    theta = _solve_theta(design, sample.y)
    return DerivativeFit(theta=theta, strategy=Strategy.DERIV_OF_PROJECTION, spec=spec)


def fit_derivative_2(sample: Sample, spec: BasisSpec,
                     design_ext: DesignSet | None = None) -> DerivativeFit:
    """Projection estimator of the derivative.

    theta = -(1/n) Delta Gram_{m+p}^-1 Phi_{m+p}^T y, evaluated against
    (phi_1..phi_m).  design_ext, when given, must be the design at the
    extended dimension m+p.
    """
    ext = spec.extended()
    if design_ext is None:
        design_ext = build_design(sample, ext)
    elif design_ext.spec.m != ext.m:
        raise ValueError(f"extended design has m={design_ext.spec.m}, expected {ext.m}")
    theta_ext = _solve_theta(design_ext, sample.y)
    return DerivativeFit(theta=-(delta_matrix(spec) @ theta_ext),
                         strategy=Strategy.PROJECTION_OF_DERIV, spec=spec)


def truncate_fit(fit: DerivativeFit, verdict: StabilityVerdict) -> DerivativeFit:
    """Zero out the fit unless the truncation gate (at m+p) passed."""
    truncated = fit.truncated_to_zero or not verdict.in_lambda
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
