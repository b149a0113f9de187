"""Variance-based global sensitivity analysis with Shapley effects.

Estimates all d Shapley effects of a model simultaneously from a single
Monte Carlo pass of (d+1)N evaluations, with unbiased variance estimates and
confidence intervals, alongside classic pick-freeze main/total effect
estimators, closed-form references for the analytic benchmarks, a brute-force
ANOVA oracle, and convergence-study tooling.
"""

__version__ = "0.7.0"

from .analysis import (ConvergenceStudy, convergence_csv_lines,
                       convergence_study, sse_exact, sse_samplemean,
                       trial_seed)
from .errors import (CapacityError, ConfigError, EvaluationError,
                     ParameterError, SensitivityError)
from .estimators import (EstimatorConfig, Report, estimate_main_effects,
                         estimate_shapley_all, estimate_shapley_winding,
                         estimate_total_effects)
from .inputs import InputSpace, LogNormal, Normal, RngStream, Uniform
from .models import (ExternalModel, ModelFunction, constant_model, ishigami,
                     ishigami_space, plate_buckling, plate_buckling_space,
                     sobol_g, sobol_g_space)
from .reference import (AnovaDecomposition, SensitivityIndices, anova_oracle,
                        indices_from_anova, ishigami_anova, ishigami_exact,
                        main_total_from_anova, shapley_from_anova,
                        sobol_g_anova, sobol_g_exact)

# The public names are the ones imported above, after the version. The
# imports also bind each submodule here, such as errors; those stay out.
__all__ = ["__version__", *sorted(name for name, value in globals().items()
                                 if not (name.startswith("_") or isinstance(value, type(errors))))]
