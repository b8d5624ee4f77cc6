"""Quantile functionals of unobservable regression errors.

Estimates CVaR/expected shortfall, mean excess, Lorenz curve and quantile
inequality ratios of the error variable in a linear model, using the
averaged two-step regression quantile built on a rank-based slope estimate,
plus exact check-loss quantile regression and a Monte Carlo rate harness.
"""

from .errors import (DataError, DomainError, IdentifiabilityError,
                     QuantfuncError, SolverFailure)
from .model import (Dataset, DesignDiagnostics, StepQuantileProcess,
                    design_diagnostics, empirical_quantile_process, order_index)
from .regression import (QuantileFit, averaged_regression_quantile,
                         fit_regression_quantile)
from .ranks import REstimate, fit_r_estimator, jaeckel_dispersion
from .two_step import (AveragedTwoStepProcess, TwoStepQuantile,
                       averaged_two_step_process, centered_process,
                       two_step_quantile)
from .functionals import (FunctionalEstimate, cvar, gastwirth_j,
                          linear_functional, lorenz, mean_excess, staudte_r)
from .simulation import (ErrorDistribution, RateReport, SimulationConfig,
                         functional_consistency_study, generate,
                         rate_study_r_estimator, rate_study_two_step)

__version__ = "0.1.0"
