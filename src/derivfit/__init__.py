"""Orthogonal-series estimation of regression-function derivatives.

Given i.i.d. pairs (X_i, Y_i) with Y_i = b(X_i) + noise, the package
estimates b' by least-squares projection on trigonometric, Laguerre,
Hermite or Legendre bases: either the derivative of the regression fit
(strategy 1) or a direct projection estimate of the derivative through
the basis's exact derivative expansion (strategy 2).  Dimension choice is
oracle-based (simulation), data-driven via pairwise-comparison penalties,
or reused from the regression fit; a Monte Carlo harness benchmarks all
of it.
"""

from .basis import (BasisSpec, Family, admissible_dims, delta_matrix, eval_basis,
                    eval_basis_derivative, l_factor, parse_family)
from .design import (Sample, default_d_constant, stability_check, trim_interval,
                     truncation_gate, STABILITY_C)
from .errors import (DataFormatError, DerivfitError, EmptyCollectionError,
                     SingularGramError)
from .estimators import DerivativeFit, Strategy, evaluate_fit, truncate_fit
from .selection import (Selection, default_m_grid, estimate_sigma2, fit_derivative_1,
                        fit_derivative_2, gl_select, oracle_select, reuse_select)
from .simulation import (ExperimentConfig, ExperimentReport, TEST_FUNCTIONS,
                         TestFunction, calibrate_kappa, generate_sample,
                         rng_for, run_experiment)

__version__ = "0.1.0"
