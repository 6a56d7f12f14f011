"""The package surface: what ``cvarpath`` exports and how its modules import each other."""
import ast
from pathlib import Path

import cvarpath

EXPORTS = [
    "Coefficients", "ConfigError", "ConstraintMode", "ConstraintVariant", "ContinuationConfig",
    "ContinuationResult", "DataError", "DegenerateProblemError", "DomainError",
    "ExtremumAutopilot", "ExtremumSolution", "FixedKappas", "GeneratorSpec",
    "InfeasibleStepError", "LossTable", "ObjectiveKind", "PATH_COLUMNS", "PathParams",
    "PathRecord", "PortfolioError", "PortfolioState", "RiskReport", "RunConfig", "ScenarioFile",
    "ScenarioMatrix", "StepConstants", "StepSolution", "TailSet", "apply_step", "build_losses",
    "constants", "continuation", "convergence_study", "cvar", "cvar_tail_average", "dar", "data",
    "direction_parts", "effective_problem", "errors", "extremum_kappas", "generate",
    "hessian_sign_check", "initial_state", "oracle", "parse_run_config", "portfolio_losses",
    "projection", "read_scenario_file", "report", "rescale_fixed_risk", "risk", "run",
    "select_coefficients", "solve_step", "tail_split", "validate_mode", "var", "write_path",
    "write_scenarios",
]


def test_exports_and_no_private_sibling_imports():
    assert sorted(cvarpath.__all__) == EXPORTS
    for path in sorted(Path(cvarpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "cvarpath"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"
