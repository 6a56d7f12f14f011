"""The benchmark's workloads: their inputs, the timed call and the output check.

Inputs are made from the seed alone.  ``setup`` makes them with the program's
own calls (timed as set-up); ``save_inputs`` hands them to the worker process
that makes the timed calls; ``Timed`` makes one timed call and checks it.
"""
from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import cvarpath
from cvarpath import cli, continuation

RHOS = (0.8, 0.5, 0.2, 0.6, 0.0)  # one equicorrelation block of N/5 groups per value
TAIL = 0.8
LOSS_SCALE = 0.15
BETA = 0.95
DELTA_C = 1e-4
TOTAL_COST = 0.1
REASON = "budget"  # every workload ends by running its whole step budget

# Path-table columns must match the reference to this relative tolerance.
PATH_RTOL = 1e-12
# Engine CVaR against ``oracle.cvar_tail_average`` (different summation order).
ORACLE_RTOL = 1e-9
# Fixed total risk keeps CVaR_m / CVaR_0 at 1 within this (acceptance criterion 7).
FIXED_RISK_TOL = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    n_groups: int
    n_scenarios: int
    steps: int
    via_cli: bool


# Why each workload was chosen is stated in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("flagship", n_groups=50, n_scenarios=2000, steps=1000, via_cli=False),
    Workload("large_k", n_groups=50, n_scenarios=200_000, steps=8, via_cli=False),
    Workload("cli_wide", n_groups=500, n_scenarios=2000, steps=50, via_cli=True),
)}


def reference_for(workload, seed):
    """The committed path table of a full-size workload at the reference seed, or None."""
    if seed != REFERENCE_SEED or WORKLOADS.get(workload.name) != workload:
        return None
    return REFERENCE_DIR / f"{workload.name}-seed{REFERENCE_SEED}.csv"


def spec(workload, seed):
    size = workload.n_groups // len(RHOS)
    return cvarpath.GeneratorSpec(seed=seed, n_groups=workload.n_groups,
                                  n_scenarios=workload.n_scenarios,
                                  blocks=tuple((size, rho) for rho in RHOS),
                                  tail=TAIL, loss_scale=LOSS_SCALE)


def returns_and_costs(workload):
    if workload.via_cli:
        return 0.05, 0.1
    return np.random.default_rng(7).uniform(0.01, 0.12, workload.n_groups), 1.0


def run_config(workload):
    """The acceptance-criterion-9 min-risk path, cut at the workload's step count."""
    return cvarpath.ContinuationConfig(
        objective=cvarpath.ObjectiveKind.MIN_RISK,
        mode=cvarpath.ConstraintMode(cvarpath.ConstraintVariant.BOTH, "return"),
        kappa_policy=cvarpath.ExtremumAutopilot(fixed_revenue=True),
        beta=BETA, delta_c=DELTA_C, total_cost=TOTAL_COST, max_steps=workload.steps,
        steady_state_tol=0.0)


def cli_config_text(workload, scenarios):
    returns, costs = returns_and_costs(workload)
    return "\n".join([
        f"scenarios = {scenarios}",
        "objective = max_return_to_risk",
        "mode = revenue_only",
        "policy = fixed",
        "kappa1 = 0",
        "kappa2 = 0",
        "fixed_total_risk = true",
        f"costs = {costs}",
        f"returns = {returns}",
        f"beta = {BETA}",
        f"delta_c = {DELTA_C}",
        f"total_cost = {TOTAL_COST}",
        f"max_steps = {workload.steps}",
        "steady_tol = 0",
    ]) + "\n"


def setup(workload, seed, workdir):
    """The program calls made before the timed call.

    Returns the generated matrix and the seconds ``generate`` took.
    """
    t0 = perf_counter()
    matrix = cvarpath.generate(spec(workload, seed))
    generate_s = perf_counter() - t0
    if workload.via_cli:
        cvarpath.write_scenarios(matrix, workdir / "scenarios.csv")
    cvarpath.initial_state(matrix, *returns_and_costs(workload))
    return matrix, generate_s


def save_inputs(workload, matrix, workdir):
    """Hand the generated inputs to the worker process."""
    if workload.via_cli:
        (workdir / "run.cfg").write_text(cli_config_text(workload, workdir / "scenarios.csv"))
    else:
        np.save(workdir / "initial.npy", matrix.initial_values)
        np.save(workdir / "values.npy", matrix.values)
        np.save(workdir / "probabilities.npy", matrix.probabilities)


def read_path_table(path):
    """The CSV written by ``write_path``: column names and a float array."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def compare_to_reference(header, table, reference):
    """Problems found comparing a path table with the committed reference."""
    ref_header, ref = read_path_table(reference)
    if table.shape[0] != ref.shape[0]:
        return [f"path has {table.shape[0]} rows, reference {ref.shape[0]}"]
    problems = []
    for j, name in enumerate(ref_header):
        if name not in header:
            problems.append(f"path column {name} is missing")
            continue
        got = table[:, header.index(name)]
        bad = ~np.isclose(got, ref[:, j], rtol=PATH_RTOL, atol=0.0, equal_nan=True)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            problems.append(f"path column {name} differs at row {i}: {got[i]!r} vs "
                            f"{ref[i, j]!r} (rtol {PATH_RTOL})")
    return problems


def check_path(workload, header, table, reason, reference):
    """Termination reason, step count and, when there is one, the reference."""
    problems = []
    if reason != REASON:
        problems.append(f"termination reason {reason!r}, expected {REASON!r}")
    steps = table[:, header.index("m")] if "m" in header else None
    if steps is None or not np.array_equal(steps, np.arange(workload.steps + 1)):
        problems.append(f"path does not hold steps 0..{workload.steps}")
    if reference is not None:
        problems += compare_to_reference(header, table, reference)
    return problems


class Timed:
    """Loads the inputs in the worker, makes one timed call, checks its output."""

    def __init__(self, workload, workdir, reference):
        self.workload = workload
        self.workdir = Path(workdir)
        self.reference = reference
        self.output = self.workdir / "path.csv"
        if workload.via_cli:
            self.argv = ["optimize", "--config", str(self.workdir / "run.cfg"),
                         "--output", str(self.output)]
        else:
            self.matrix = cvarpath.ScenarioMatrix(
                initial_values=np.load(self.workdir / "initial.npy"),
                values=np.load(self.workdir / "values.npy"),
                probabilities=np.load(self.workdir / "probabilities.npy"))
            self.state = cvarpath.initial_state(self.matrix, *returns_and_costs(workload))
            self.config = run_config(workload)

    @property
    def root_span(self):
        return "cli.main" if self.workload.via_cli else "continuation.run"

    def call(self):
        """The timed call; its value goes to ``check``."""
        if self.workload.via_cli:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
            return code, out.getvalue()
        return continuation.run(self.matrix, self.state, self.config)

    def check(self, outcome):
        """Problems with one call's output; an empty list means it is correct."""
        if self.workload.via_cli:
            code, stdout = outcome
            if code != 0:
                return [f"cvarpath optimize exited {code}"]
            match = re.search(r"reason=(\S+)", stdout)
            reason = match.group(1) if match else None
        else:
            reason = outcome.reason
            cvarpath.write_path(outcome, self.output)
        header, table = read_path_table(self.output)
        self.output.unlink()
        problems = check_path(self.workload, header, table, reason, self.reference)
        if self.reference is None:
            problems += self._check_without_reference(outcome, header, table)
        return problems

    def _check_without_reference(self, outcome, header, table):
        if self.workload.via_cli:
            # The path file holds no weights, so check the fixed-risk invariant.
            drift = np.max(np.abs(table[:, header.index("cvar_rel")] - 1.0))
            if not drift <= FIXED_RISK_TOL:
                return [f"fixed total risk drifted: max |cvar_rel - 1| = {drift:.3e}"]
            return []
        # Losses at the terminal weights, without a K x N temporary that would
        # add to the worker's peak memory.
        state = outcome.terminal_state
        scale = state.weights / state.base_weights
        losses = self.matrix.initial_values @ scale - self.matrix.values @ scale
        expected = cvarpath.cvar_tail_average(losses, self.matrix.probabilities, BETA)
        got = outcome.terminal_record.cvar
        if not abs(got - expected) <= ORACLE_RTOL * abs(expected):
            return [f"terminal CVaR {got!r} vs oracle {expected!r} (rtol {ORACLE_RTOL})"]
        return []
