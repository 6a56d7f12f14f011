"""The package surface: what ``cvarpath`` exports and how its modules import each other."""
import ast
import contextlib
import io
import re
import sys
from pathlib import Path

import cvarpath

EXPORTS = [
    "Coefficients", "ConfigError", "ConstraintMode", "ConstraintVariant", "ContinuationConfig",
    "ContinuationResult", "DataError", "DegenerateProblemError", "DomainError",
    "ExtremumAutopilot", "FixedKappas", "GeneratorSpec", "InfeasibleStepError", "LossTable",
    "ObjectiveKind", "PATH_COLUMNS", "PathRecord", "PortfolioError",
    "PortfolioState", "RiskReport", "RunConfig", "ScenarioMatrix", "StepConstants", "TailSet",
    "apply_step", "build_losses", "constants", "continuation", "convergence_study", "cvar",
    "cvar_tail_average", "dar", "data", "effective_problem", "errors",
    "extremum_kappas", "generate", "initial_state", "oracle", "parse_run_config",
    "portfolio_losses", "projection", "read_scenario_file", "report", "rescale_fixed_risk",
    "risk", "run", "select_coefficients", "solve_step", "tail_split", "validate_mode", "var",
    "write_path", "write_scenarios",
]


def test_exports_and_no_private_sibling_imports():
    assert sorted(cvarpath.__all__) == EXPORTS
    for path in sorted(Path(cvarpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "cvarpath"):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


def test_package_imports_only_the_stdlib_numpy_and_itself():
    """The runtime dependency is numpy alone: scipy and the other test-only
    references stay under ``tests/``."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "cvarpath"}
    for path in sorted(Path(cvarpath.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside = [name for name in names if name.split(".")[0] not in allowed]
            assert not outside, f"{path.name} imports {outside}"


def test_readme_library_use_runs(tmp_path, monkeypatch):
    """The README's ``Library use`` block, run as it stands in a scratch directory."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    reason, cvar = out.getvalue().split()
    assert reason and float(cvar) > 0.0
