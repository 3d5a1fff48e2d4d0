"""Linear estimation of dynamic fixed-effects logit panels with time effects.

The package provides three layers:

* estimation -- window kernels, stacked just-identified linear systems for
  the A/B (period-dummy) and C (trend) parameterizations, weighted
  asymptotic variances, original-parameter recovery with delta-method
  standard errors, a two-step estimator of the pre-window effect step, and
  Wald tests of the log-linear parameter restrictions;
* verification -- an exact enumeration oracle checking every moment
  identity, zero-mean property, population recovery and rank condition
  without simulation error;
* experimentation -- a deterministic, parallel-safe Monte Carlo harness
  with per-parameter summary statistics and failure accounting.
"""

__version__ = "0.1.0"

from .aggregation import AggregateStats, aggregate
from .estimators import (EstimationError, LinearSystem, SingularSystem,
                         SingularWeight, TransformedEstimate, build_system,
                         build_system_c, parse_variant, solve, variance)
from .inference import (NonpositiveAlpha, NonpositivePhiHat, OriginalEstimate,
                        ParamEstimate, SingularRestrictionCovariance,
                        TwoStepResult, WaldResult, ZeroDenominator,
                        recover_original, two_step_dtd_tm1, wald_test)
from .kernels import (GhCoefficients, alpha_from_spec, alpha_labels,
                      alpha_values, all_windows, gh_coefficients, hbar_u,
                      hbar_upsilon)
from .mc import AllReplicationsFailed, McConfig, McSummary, run_mc
from .model import (DgpConfig, ModelSpec, TimeDummiesSpec, TimeTrendSpec,
                    history_law, simulate_histogram, simulate_panel, true_values)
from .oracle import (moment_rank, population_aggregates, population_system,
                     run_checks, spec_with_steps)
from .panel import PanelData, read_panel_csv, write_panel_csv
from .workflow import EstimationResult, EstimatorRun, estimate_panel

__all__ = [name for name in dir() if not name.startswith("_")]
