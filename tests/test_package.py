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


# Imports a module keeps though it never reads them, each with its reason.
UNREAD_IMPORTS = {
    ("continuation.py", "extremum_kappas"): "perfbench/tracing.TARGETS wraps it there",
}


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module imports is read in it.  ``__init__.py`` is left
    out: its imports are the package surface that ``__all__`` lists."""
    for path in sorted(Path(cvarpath.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {name for name in imported - used if (path.name, name) not in UNREAD_IMPORTS}
        assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def readme_block(after, language):
    """The first ``language`` code block of the README after the text ``after``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"```{language}\n(.*?)```", readme.split(after, 1)[1], re.DOTALL)[1]


def test_readme_run_config_parses(tmp_path):
    """The README's example ``run.cfg``, read by ``parse_run_config`` as it stands."""
    path = tmp_path / "run.cfg"
    path.write_text(readme_block("Example `run.cfg`:", "ini"), encoding="utf-8")
    cfg = cvarpath.parse_run_config(path)
    assert cfg.scenarios == "scenarios.csv" and cfg.returns == 0.05 and cfg.costs == 1.0
    assert cfg.continuation == cvarpath.ContinuationConfig(
        objective=cvarpath.ObjectiveKind.MIN_RISK,
        mode=cvarpath.ConstraintMode(cvarpath.ConstraintVariant.BOTH, "return"),
        kappa_policy=cvarpath.ExtremumAutopilot(fixed_revenue=True),
        beta=0.95, delta_c=1e-4, total_cost=0.1)


def test_readme_library_use_runs(tmp_path, monkeypatch):
    """The README's ``Library use`` block, run as it stands in a scratch directory."""
    block = readme_block("## Library use", "python")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    reason, cvar = out.getvalue().split()
    assert reason and float(cvar) > 0.0
