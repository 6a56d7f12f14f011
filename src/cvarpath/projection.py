"""Closed-form single-step optimization on the unit-cost ellipsoid.

One step picks the direction y = delta_w / delta_c that extremizes a linear
objective sum(f * y) subject to up to two linear constraints (total revenue
rate kappa1 and total return/risk rate kappa2) and the quadratic cost
normalization sum(c^2 y^2) = 1.  Every constraint variant is one problem:
project f off the active constraint rows {1, h} in the c^-2 metric.  A single
Gram solve of at most 2x2 gives the projection, the Lagrange multiplier q
(a root of a2 q^2 + a0 = 0) and the steepest-path rates.

``solve_step`` takes the rates policy, ``FixedKappas`` or an
``ExtremumAutopilot``, derives the rates from the step's own projection (each
row set is projected once) and returns the step with its branch (P, R, a0,
a2).  ``extremum_kappas`` is a view of the same private helper.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DegenerateProblemError, DomainError, InfeasibleStepError,
                     check_real, check_type)

_DEGENERACY_TOL = 1e-14
_GRADIENT_TOL = 1e-13


class ObjectiveKind(enum.Enum):
    MIN_RISK = "min_risk"
    MAX_RETURN = "max_return"
    MAX_RETURN_TO_RISK = "max_return_to_risk"
    MIN_DIVERSIFICATION = "min_diversification"

    @property
    def maximize(self):
        return self in (ObjectiveKind.MAX_RETURN, ObjectiveKind.MAX_RETURN_TO_RISK)


class ConstraintVariant(enum.Enum):
    BOTH = "both"
    REVENUE_ONLY = "revenue_only"
    SECOND_ONLY = "second_only"
    NONE_ACTIVE = "none"


@dataclass(frozen=True)
class ConstraintMode:
    """Which linear constraints are active and what the second one pins."""

    variant: ConstraintVariant
    second_meaning: str = "return"  # "return" or "risk"
    rows: tuple = field(init=False, repr=False, compare=False)  # active: 0 revenue, 1 second

    def __post_init__(self):
        check_type(ConstraintVariant, "a ConstraintVariant", ("variant", self.variant))
        if self.second_meaning not in ("return", "risk"):
            raise ConfigError(f"unknown second-constraint meaning {self.second_meaning!r}")
        object.__setattr__(self, "rows", (0,) * self.has_revenue + (1,) * self.has_second)

    @property
    def has_revenue(self):
        return self.variant in (ConstraintVariant.BOTH, ConstraintVariant.REVENUE_ONLY)

    @property
    def has_second(self):
        return self.variant in (ConstraintVariant.BOTH, ConstraintVariant.SECOND_ONLY)


def validate_mode(objective, mode):
    """Reject objective/constraint pairings the coefficient table does not define."""
    check_type(ObjectiveKind, "an ObjectiveKind", ("objective", objective))
    check_type(ConstraintMode, "a ConstraintMode", ("mode", mode))
    if not mode.has_second:
        return
    if objective is ObjectiveKind.MAX_RETURN and mode.second_meaning == "return":
        raise ConfigError("return maximisation cannot also constrain the total return")
    if objective is ObjectiveKind.MIN_RISK and mode.second_meaning == "risk":
        raise ConfigError("risk minimisation cannot also constrain the total risk")
    if objective is ObjectiveKind.MIN_DIVERSIFICATION and mode.second_meaning == "risk":
        raise ConfigError("diversification minimisation supports only a return second constraint")


def effective_problem(objective, mode):
    """Resolve the coefficient row and optimization direction for a step.

    Return-to-risk maximisation with a pre-assigned second constraint
    degenerates to plain return maximisation (risk fixed) or risk
    minimisation (return fixed); the row switch is made explicit here.
    """
    if objective is ObjectiveKind.MAX_RETURN_TO_RISK and mode.has_second:
        if mode.second_meaning == "risk":
            return ObjectiveKind.MAX_RETURN, True
        return ObjectiveKind.MIN_RISK, False
    return objective, objective.maximize


@dataclass(frozen=True)
class Coefficients:
    """Objective gradient f, second-constraint gradient h, cost coefficients c
    (taken from a checked ``PortfolioState``, so c > 0 is not re-checked)."""

    f: np.ndarray
    h: np.ndarray  # None when the objective row defines no second constraint
    c: np.ndarray


def select_coefficients(objective, state, report, mode):
    """Coefficient vectors for the active (unfrozen) components.

    f follows the objective row; h is the table's companion row (None for
    return-to-risk, which defines no second constraint of its own).
    """
    active = state.active
    r = state.returns[active]
    c = state.cost_coefficients[active]
    dar_values = report.dar[active]
    x0 = state.base_value
    row, _ = effective_problem(objective, mode)

    if row is ObjectiveKind.MAX_RETURN:
        f = r.copy()
        h = dar_values / x0
    elif row is ObjectiveKind.MIN_RISK:
        f = dar_values / x0
        h = r.copy()
    elif row is ObjectiveKind.MAX_RETURN_TO_RISK:
        if report.cvar <= 0.0:
            raise DomainError("return-to-risk coefficients need a strictly positive CVaR")
        f = (r - report.total_return * dar_values / report.cvar) * x0 / report.cvar
        h = None
    else:  # MIN_DIVERSIFICATION: dS/dw_n = standalone_n / w_n, and no active w_n is 0
        standalone = report.standalone_cvar[active]
        s = float(standalone.sum())
        if s <= 0.0:
            raise DomainError("diversification coefficients need positive standalone CVaRs")
        f = dar_values / s - standalone / state.weights[active] * report.cvar / (s * s)
        h = r.copy()
    return Coefficients(f=f, h=h, c=c)


@dataclass(frozen=True)
class StepConstants:
    """The six scalar sums F, G, H, U, V, W over the active components."""

    F: float
    G: float
    H: float
    U: float
    V: float
    W: float
    has_h: bool

    def __post_init__(self):
        # x * x, not x ** 2, which raises OverflowError.  A finite square of the
        # summed magnitudes also bounds every product in the minors below.
        sums = (self.U, self.V, self.W, self.F, self.G, self.H)
        scale = sum(map(abs, sums), 1.0)
        if not math.isfinite(scale * scale):
            raise DomainError("step constants U, V, W, F, G, H must be finite, their magnitudes "
                              f"summing below 1.3e154; got {', '.join(map(repr, sums))}")
        if self.U <= 0.0:
            raise DomainError("U must be positive")
        slack = 1e-12 * (scale * scale)
        if self.F < -slack:
            raise DomainError("F must be non-negative")
        # The 2x2 principal minors of the Gram matrix [[U, V, G], [V, W, H], [G, H, F]]
        # of the rows (1, h, f) in the c^-2 metric, over the rows present.
        minors = (("U", "F", "G"),) + (("U", "W", "V"), ("W", "F", "H")) * self.has_h
        for a, b, g in minors:
            if getattr(self, a) * getattr(self, b) - getattr(self, g) * getattr(self, g) < -slack:
                raise DomainError(f"Cauchy-Schwarz violated: {a}{b} < {g}^2")


def constants(coeffs):
    """The six sums as the Gram matrix of the rows (1, h, f) in the c^-2 metric.

    One product ``(rows / c^2) @ rows.T``; a missing h is a zero row, so V, W
    and H are exactly 0.  A sum that overflows is rejected by ``StepConstants``
    with a ``DomainError``, so numpy does not also warn of it.
    """
    has_h = coeffs.h is not None
    h = coeffs.h if has_h else np.zeros_like(coeffs.f)
    rows = np.array((np.ones_like(coeffs.f), h, coeffs.f))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (U, V, G), (_, W, H), (_, _, F) = ((rows / (coeffs.c * coeffs.c)) @ rows.T).tolist()
    return StepConstants(F=F, G=G, H=H, U=U, V=V, W=W, has_h=has_h)


@dataclass(frozen=True)
class FixedKappas:
    """Per-unit-cost rates of the two constraints, the same at every step:
    real numbers inside the float range, and finite."""

    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self):
        check_real(("kappa1", self.kappa1), ("kappa2", self.kappa2))


@dataclass(frozen=True)
class ExtremumAutopilot:
    """Re-derive the steepest-path rates from fresh constants at every step; a
    fixed flag pins that rate to zero instead of optimizing over it."""

    fixed_revenue: bool = False
    fixed_second: bool = False

    def __post_init__(self):
        check_type((bool, np.bool_), "a bool", ("fixed_revenue", self.fixed_revenue),
                   ("fixed_second", self.fixed_second))


@dataclass(frozen=True)
class StepSolution:
    """One step: direction y = (P/q + R)/c^2, multipliers q, s, t, objective
    rate Q, its rates, the paper's extremum subcase (None for fixed rates) and
    the branch a2 q^2 + a0 = 0 over the active rows: P = f - lam.rows and
    R = mu.rows, lam = M^-1 b, mu = M^-1 kappa, a0 = |P|^2 and a2 = kappa.mu - 1."""

    y: np.ndarray
    q: float
    s: float
    t: float
    a0: float
    a2: float
    Q: float
    kappa1: float
    kappa2: float
    subcase: str
    P: np.ndarray
    R: np.ndarray


def _restrict(pair, rows):
    """A (revenue, second) pair with the entries outside ``rows`` set to 0.0."""
    return tuple(x if r in rows else 0.0 for r, x in enumerate(pair))


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1]


def _solve(adjugate, det, vector):
    """M^-1 vector, with M^-1 = adjugate / det."""
    return tuple(_dot(row, vector) / det for row in adjugate)


class _Projection(NamedTuple):
    """f projected off constraint rows in the c^-2 metric.

    M^-1 = adjugate / det inverts the rows' Gram matrix, lam = M^-1 b weights
    the rows, and a0 = F - b.lam is the squared norm of what is left of f.
    """

    adjugate: tuple
    det: float
    lam: tuple
    a0: float


def _project(consts, rows):
    """The Gram solve behind every closed form.

    M = [[U, V], [V, W]] and b = [G, H] pair the rows (1, h) with each other
    and with f.  A row outside ``rows`` is swapped for the identity's, and its
    entry of b for 0, so the solve keeps its 2x2 shape and that row's weight
    is exactly 0.  Constants without an h row have no second row to project.
    """
    revenue, second = 0 in rows, 1 in rows
    if second and not consts.has_h:
        raise ConfigError("a second constraint needs an h row")
    u = consts.U if revenue else 1.0
    w = consts.W if second else 1.0
    v = consts.V if revenue and second else 0.0
    det = u * w - v * v
    if det <= _DEGENERACY_TOL * u * w:
        names = " and ".join(("revenue", "second")[r] for r in rows)
        raise DegenerateProblemError(
            f"{names} constraint gradients are degenerate (Gram determinant {det:.3e})")
    b = _restrict((consts.G, consts.H), rows)
    adjugate = ((w, -v), (-v, u))
    lam = _solve(adjugate, det, b)
    return _Projection(adjugate=adjugate, det=det, lam=lam, a0=consts.F - _dot(b, lam))


@dataclass(frozen=True)
class ExtremumSolution:
    """Steepest-path rates and multiplier for one extremum subcase."""

    kappa1_bar: float
    kappa2_bar: float
    q_bar: float
    subcase: str


# (active rows, fixed rows) -> the paper's subcase label
_SUBCASES = {((0, 1), ()): "B.1.1", ((0, 1), (0,)): "B.1.2", ((0, 1), (1,)): "B.1.3",
             ((0, 1), (0, 1)): "B.1.4", ((0,), ()): "B.2", ((0,), (0,)): "B.2-fixed",
             ((1,), ()): "B.3", ((1,), (1,)): "B.3-fixed", ((), ()): "B.4"}


def _extremum(consts, mode, proj, autopilot, maximize):
    """The autopilot's rates, given f projected off the active rows (``proj``).

    Projecting f off the fixed rows alone gives q_bar^2 (that projection's
    a0) and, for each free row, kappa_bar = (b - M lam_fixed) / q_bar; q_bar
    takes the optimization sign when some rate is free.  With every active
    row fixed that projection is ``proj`` itself."""
    rows = mode.rows
    fixed = tuple(r for r in rows if (autopilot.fixed_revenue, autopilot.fixed_second)[r])
    free = tuple(r for r in rows if r not in fixed)
    if proj.a0 <= _GRADIENT_TOL * max(consts.F, 0.0):
        raise DegenerateProblemError(
            "extremum branch positivity violated: objective gradient lies in the constraint span")
    pinned = proj if fixed == rows else _project(consts, fixed)
    q_bar = math.sqrt(pinned.a0) if pinned.a0 >= 0.0 else math.nan  # NaN, as np.sqrt gives
    if free and not maximize:
        q_bar = -q_bar
    gram = ((consts.U, consts.V), (consts.V, consts.W))
    residual = (b - _dot(row, pinned.lam) for b, row in zip((consts.G, consts.H), gram))
    kappa1, kappa2 = _restrict([x / q_bar for x in residual], free)
    return ExtremumSolution(kappa1_bar=kappa1, kappa2_bar=kappa2, q_bar=q_bar,
                            subcase=_SUBCASES[rows, fixed])


def extremum_kappas(consts, mode, fixed_revenue, fixed_second, maximize):
    """Rates (kappa1, kappa2) at which the objective rate Q is extremal; a
    fixed flag pins its rate to zero.  Raises DegenerateProblemError wherever
    the step at these rates is degenerate."""
    return _extremum(consts, mode, _project(consts, mode.rows),
                     ExtremumAutopilot(fixed_revenue, fixed_second), maximize)


def solve_step(consts, coeffs, mode, rates, maximize):
    """Solve one projection step at fixed rates (a ``FixedKappas``) or at an
    ``ExtremumAutopilot``'s, which come from the step's own projection.

    q is the root of a2 q^2 + a0 = 0 on the optimization side; the constraint
    multipliers are lam - q mu, and Q = a0/q + lam.kappa.
    """
    proj = _project(consts, mode.rows)
    if isinstance(rates, ExtremumAutopilot):
        ext = _extremum(consts, mode, proj, rates, maximize)
        kappa1, kappa2, subcase = ext.kappa1_bar, ext.kappa2_bar, ext.subcase
    else:
        kappa1, kappa2, subcase = rates.kappa1, rates.kappa2, None
    kappa = _restrict((kappa1, kappa2), mode.rows)
    mu = _solve(proj.adjugate, proj.det, kappa)
    P = coeffs.f - proj.lam[0]
    R = np.full_like(coeffs.f, mu[0])
    if mode.has_second:
        P -= proj.lam[1] * coeffs.h
        R += mu[1] * coeffs.h
    # a0 is the squared norm of P.  Summed from P itself it keeps the unit cost
    # exact where F - b.lam would cancel to a few digits (a0 << F).
    a0 = float((P * P / (coeffs.c * coeffs.c)).sum())
    a2 = _dot(kappa, mu) - 1.0
    if a2 >= -_DEGENERACY_TOL:
        raise InfeasibleStepError(f"path rates too large for the unit-cost ellipsoid "
                                  f"(a2 = {a2:.3e})")
    if a0 <= _GRADIENT_TOL * max(consts.F, 0.0) or a0 <= 0.0:
        if mode.variant is ConstraintVariant.NONE_ACTIVE:
            raise DegenerateProblemError("zero objective gradient: state is locally optimal")
        raise DegenerateProblemError("objective gradient lies in the constraint span (a0 = 0)")
    q = math.sqrt(-a0 / a2) if maximize else -math.sqrt(-a0 / a2)
    y = (P / q + R) / (coeffs.c * coeffs.c)
    s, t = (lam - q * m for lam, m in zip(proj.lam, mu))
    return StepSolution(y=y, q=q, s=s, t=t, a0=a0, a2=a2, Q=a0 / q + _dot(proj.lam, kappa),
                        kappa1=kappa1, kappa2=kappa2, subcase=subcase, P=P, R=R)
