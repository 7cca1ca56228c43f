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

from .basis import BasisSpec, Family
from .design import Sample
from .errors import (DataFormatError, DerivfitError, EmptyCollectionError,
                     SingularGramError)
from .estimators import DerivativeFit, Strategy, evaluate_fit
from .selection import Selection, fit_derivative, gl_select, oracle_select, reuse_select
from .simulation import (ExperimentConfig, TEST_FUNCTIONS, calibrate_kappa,
                         generate_sample, run_experiment)

__version__ = "0.1.0"
