"""Scenario-based tail-risk portfolio optimization by closed-form quadratic
projection steps chained along a cost-parameter continuation path."""

from .continuation import (ContinuationConfig, ContinuationResult, PathRecord, apply_step,
                           convergence_study, rescale_fixed_risk, run)
from .data import (PATH_COLUMNS, GeneratorSpec, RunConfig, generate, parse_run_config,
                   read_scenario_file, write_path, write_scenarios)
from .errors import (ConfigError, DataError, DegenerateProblemError, DomainError,
                     InfeasibleStepError, PortfolioError)
from .oracle import cvar_tail_average
from .projection import (Coefficients, ConstraintMode, ConstraintVariant, ExtremumAutopilot,
                         FixedKappas, ObjectiveKind, StepConstants, constants, effective_problem,
                         extremum_kappas, select_coefficients, solve_step, validate_mode)
from .risk import (LossTable, PortfolioState, RiskReport, ScenarioMatrix, TailSet,
                   build_losses, cvar, dar, initial_state, portfolio_losses, report,
                   tail_split, var)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
