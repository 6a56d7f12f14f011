"""Path continuation: chained single-step optimizations along the cost parameter.

Each step re-evaluates the risk report at the current weights, rebuilds the
coefficient vectors over the active components, solves the closed-form step
under the configured rates policy, which ``solve_step`` resolves itself (or,
on the linear objectives, reuses the solve of its segment while the tail set
and frozen mask stand), applies the weight update with optional zero
clamping and fixed-risk rescaling, carrying the loss vector through both,
and records the resulting metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import (ConfigError, DegenerateProblemError, DomainError, InfeasibleStepError,
                     PortfolioError, check_type)
from .projection import extremum_kappas  # noqa: F401  wrapped by perfbench/tracing.TARGETS
from .projection import (ConstraintMode, ExtremumAutopilot, FixedKappas, ObjectiveKind,
                         constants, effective_problem, select_coefficients, solve_step,
                         validate_mode)
from .risk import build_losses, losses_at, portfolio_losses, report


_AT_REST = FixedKappas()  # the default policy, and the rates of the step-0 record
# A record holds N floats and its other fields, plus 8 B per tail row when its
# tail set is new (records share the signature while the set stands): about
# 1.5 KB a record on the flagship path, so this is about 1.5 GB of path.
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class ContinuationConfig:
    objective: ObjectiveKind
    mode: ConstraintMode
    kappa_policy: object = _AT_REST
    beta: float = 0.95
    delta_c: float = 1e-4
    total_cost: float = 0.1
    max_steps: int = None
    clamp_nonnegative: bool = True
    fixed_total_risk: bool = False
    steady_state_tol: float = 1e-12
    steady_state_window: int = 50

    def __post_init__(self):
        reals = [(name, getattr(self, name))
                 for name in ("beta", "delta_c", "total_cost", "steady_state_tol")]
        if isinstance(self.kappa_policy, FixedKappas):
            reals += [("kappa1", self.kappa_policy.kappa1), ("kappa2", self.kappa_policy.kappa2)]
        elif not isinstance(self.kappa_policy, ExtremumAutopilot):
            raise ConfigError("kappa_policy must be a FixedKappas or an ExtremumAutopilot, "
                              f"got {self.kappa_policy!r}")
        check_type(Real, "a real number", *reals)
        for name, value in reals:
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise ConfigError(f"{name} {value!r} is outside the float range") from None
            if not finite:
                raise ConfigError(f"{name} must be finite, got {value!r}")
        check_type((bool, np.bool_), "a bool", ("clamp_nonnegative", self.clamp_nonnegative),
                   ("fixed_total_risk", self.fixed_total_risk))
        if self.delta_c <= 0.0:
            raise ConfigError("delta_c must be positive")
        if not math.isfinite(self.total_cost / self.delta_c):
            raise ConfigError(f"delta_c {self.delta_c!r} is too small: total_cost / delta_c "
                              "overflows")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError("beta must be in [0, 1)")
        if self.total_cost < 0.0:
            raise ConfigError("total_cost must be non-negative")
        counts = [("steady_state_window", self.steady_state_window)]
        if self.max_steps is not None:
            counts.append(("max_steps", self.max_steps))
        check_type(Integral, "an integer", *counts)
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError(f"max_steps must be non-negative, got {self.max_steps}")
        if self.steady_state_window < 1:
            raise ConfigError(f"steady_state_window must be at least 1, "
                              f"got {self.steady_state_window}")
        if self.n_steps > _MAX_STEPS:
            raise ConfigError(f"delta_c {self.delta_c!r} asks for {self.n_steps:.3g} steps, "
                              f"more than {_MAX_STEPS}: raise delta_c or set max_steps")
        validate_mode(self.objective, self.mode)

    @property
    def n_steps(self):
        steps = int(round(self.total_cost / self.delta_c))
        return steps if self.max_steps is None else min(steps, self.max_steps)


@dataclass(frozen=True)
class PathRecord:
    step: int
    c: float
    kappa1: float
    kappa2: float
    q: float
    Q: float
    weights: np.ndarray
    cvar: float
    total_return: float
    revenue: float
    diversification_index: float
    cvar_rel: float
    return_rel: float
    revenue_rel: float
    di_rel: float
    re2ri_rel: float
    clamped_ids: tuple
    frozen_count: int
    rescale_factor: float
    tail_signature: tuple


@dataclass(frozen=True)
class ContinuationResult:
    records: list
    terminal_state: object
    reason: str  # budget | steady-state | infeasible-step | all-clamped

    @property
    def terminal_record(self):
        return self.records[-1]


def apply_step(state, y, delta_c, clamp_nonnegative):
    """w_+ = w_- + delta_c * y with full-step zero clamping.

    A component driven to or below zero is set to exactly zero and frozen for
    every later step; already-frozen components never move.  A step that
    clamps nothing shares the frozen mask with ``state``.
    """
    weights = state.weights + delta_c * np.asarray(y, dtype=float)
    frozen = state.frozen
    weights[frozen] = 0.0
    newly = ()
    if clamp_nonnegative:
        crossing = weights <= 0.0
        crossing &= ~frozen
        if crossing.any():
            weights[crossing] = 0.0
            frozen = frozen | crossing
            newly = tuple(int(i) for i in np.flatnonzero(crossing))
    return state.with_weights(weights, frozen), newly


def rescale_fixed_risk(state, cvar_before, cvar_after):
    """Scale all weights by cvar_before / cvar_after (degree-one homogeneity)."""
    if cvar_after <= 0.0:
        raise DomainError("cannot rescale: CVaR after the step is not positive")
    factor = cvar_before / cvar_after
    return state.with_weights(state.weights * factor), factor


def _relative(value, base):
    return value / base if base != 0.0 and math.isfinite(base) else np.nan


def _make_record(m, c, rates, q, big_q, state, rep, clamped, frozen, factor, base):
    return PathRecord(
        step=m, c=c, kappa1=rates.kappa1, kappa2=rates.kappa2, q=q, Q=big_q,
        weights=state.weights.copy(), cvar=rep.cvar, total_return=rep.total_return,
        revenue=rep.revenue, diversification_index=rep.diversification_index,
        cvar_rel=_relative(rep.cvar, base["cvar"]),
        return_rel=_relative(rep.total_return, base["return"]),
        revenue_rel=_relative(rep.revenue, base["revenue"]),
        di_rel=_relative(rep.diversification_index, base["di"]),
        re2ri_rel=_relative(rep.total_return_to_risk, base["re2ri"]),
        clamped_ids=clamped, frozen_count=frozen,
        rescale_factor=factor, tail_signature=rep.tail_signature)


@dataclass
class _Segment:
    """Steps on one tail set: its report's ``tail`` pair, and the frozen
    count, solution, direction y and loss image d of its last solve."""

    tail: tuple
    frozen: int = -1  # before the first solve
    solution: object = None
    y: np.ndarray = None
    d: np.ndarray = None


def run(scenarios, state0, config):
    """Drive the continuation path; returns the full step-by-step record.

    The path keeps one memory: the segments of the last two tail sets
    reported, latest first.  Each report is handed their tail pairs and
    reuses one whose set still stands, so a path that crosses a kink and
    comes straight back (tail sets A, B, A) splits A once.

    On the linear objective rows (min risk and max return, which
    return-to-risk with a second constraint resolves to) a step reuses the
    front segment's solve while its frozen count, which only grows, is the
    current one.  The reuse is exact: at a fixed tail set the Euler
    contribution per unit weight does not depend on w, so neither do f, h,
    the step constants, the rates nor y (a recomputed y differs by rounding,
    at most 4e-15 of its largest entry on the flagship path).  Each record
    carries its solve's rates.  The other rows solve every step.

    Every row carries the loss vector L = Z @ (w / w_base) by one rule: a
    reused step that clamps nothing adds the segment's loss image
    d = Z @ (delta_c * y / w_base), any other step forms L anew (the
    product ``report`` would form), and a fixed-risk rescale scales L by its
    factor, L being linear in w.  So its rounding drift grows at most
    linearly along one segment, and no rescale forms a K x N product.  The
    old L is released before a product forms the new one, so the path holds
    one loss vector at a time.
    """
    table = build_losses(scenarios)
    segments = []

    def measure(state, losses=None):
        rep = report(table, state, config.beta, losses, [seg.tail for seg in segments])
        seg = next((seg for seg in segments if seg.tail is rep.tail), None) or _Segment(rep.tail)
        segments[:] = [seg] + [other for other in segments if other is not seg][:1]
        return rep

    state = state0
    rep = measure(state)
    base = {"cvar": rep.cvar, "return": rep.total_return, "revenue": rep.revenue,
            "di": rep.diversification_index, "re2ri": rep.total_return_to_risk}
    n = state.n_groups
    frozen = int(state.frozen.sum())  # carried: a step freezes exactly its clamped ids
    records = [_make_record(0, 0.0, _AT_REST, 0.0, 0.0, state, rep, (), frozen, 1.0, base)]
    reason = "budget"
    streak = 0
    row, maximize = effective_problem(config.objective, config.mode)
    reusable = row in (ObjectiveKind.MIN_RISK, ObjectiveKind.MAX_RETURN)
    losses = np.empty(0)  # L, released before a product forms it anew: one is held at a time
    for m in range(1, config.n_steps + 1):
        if frozen == n:
            reason = "all-clamped"
            break
        seg = segments[0]
        reused = reusable and seg.frozen == frozen
        if not reused:
            try:
                coeffs = select_coefficients(config.objective, state, rep, config.mode)
                consts = constants(coeffs)
                sol = solve_step(consts, coeffs, config.mode, config.kappa_policy, maximize)
            except InfeasibleStepError:
                reason = "infeasible-step"
                break
            except DegenerateProblemError:
                # A vanished gradient or extremum branch means the state is
                # locally stationary; treat it as the path settling down.
                reason = "steady-state"
                break
            seg.frozen, seg.solution, seg.y, seg.d = frozen, sol, np.zeros(n), None
            seg.y[state.active] = sol.y
        sol = seg.solution
        cvar_before = rep.cvar
        state, clamped = apply_step(state, seg.y, config.delta_c, config.clamp_nonnegative)
        frozen += len(clamped)
        all_clamped = frozen == n
        if reused and not clamped:
            if seg.d is None:
                seg.d = losses_at(table, config.delta_c * seg.y / state.base_weights)
            losses += seg.d
        else:
            del losses
            losses = portfolio_losses(table, state)
        rep = measure(state, losses)
        # the step's own change: under fixed total risk the rescale below pins CVaR
        rel_change = abs(rep.cvar - cvar_before) / max(abs(cvar_before), 1e-300)
        factor = 1.0
        if config.fixed_total_risk and not all_clamped:
            state, factor = rescale_fixed_risk(state, cvar_before, rep.cvar)
            losses *= factor
            rep = measure(state, losses)
        records.append(_make_record(m, m * config.delta_c, sol, sol.q, sol.Q,
                                    state, rep, clamped, frozen, factor, base))
        if all_clamped:
            reason = "all-clamped"
            break
        if rel_change < config.steady_state_tol:
            streak += 1
            if streak >= config.steady_state_window:
                reason = "steady-state"
                break
        else:
            streak = 0
    return ContinuationResult(records=records, terminal_state=state, reason=reason)


@dataclass(frozen=True)
class ConvergenceRow:
    delta_c: float
    terminal_cvar_rel: float
    error: float  # vs the smallest-delta_c reference run; NaN for the reference
    failed: bool
    reason: str


@dataclass(frozen=True)
class ConvergenceTable:
    rows: list
    slope: float  # log-log least-squares slope of error vs delta_c


def convergence_study(scenarios, state0, base_config, delta_c_list, total_cost):
    """Terminal-risk convergence sweep over step sizes (smallest is the reference)."""
    if len(delta_c_list) < 3:
        raise ConfigError("need at least 3 step sizes")
    if any(a <= b for a, b in zip(delta_c_list, delta_c_list[1:])):
        raise ConfigError("step sizes must be distinct and in descending order")
    runs = []
    for dc in delta_c_list:
        cfg = replace(base_config, delta_c=dc, total_cost=total_cost, max_steps=None)
        try:
            res = run(scenarios, state0, cfg)
            runs.append((dc, res.terminal_record.cvar_rel, res.reason))
        except PortfolioError as exc:  # partial table with the failure marked
            runs.append((dc, np.nan, f"error: {exc}"))
    reference = runs[-1][1]
    rows = []
    for dc, rel, why in runs:
        failed = not np.isfinite(rel)
        error = np.nan if failed or dc == delta_c_list[-1] else abs(rel - reference)
        rows.append(ConvergenceRow(dc, rel, error, failed, why))
    errors = [(row.delta_c, row.error) for row in rows if row.error > 0.0]
    slope = float(np.polyfit(*np.log(errors).T, 1)[0]) if len(errors) >= 2 else np.nan
    return ConvergenceTable(rows=rows, slope=slope)
