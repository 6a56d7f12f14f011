"""Slow, independent references that the tests compare the engine against.

Each is structurally different from the engine path it checks: the tail
split sorts every loss where the engine selects the upper tail first, the
Euler contributions and standalone CVaRs form the loss matrix Z = x0 - V
and scale it, with one CVaR per column, the direction search samples the
feasible sphere, the rate search evaluates the objective rate on a grid,
and DaR is a central difference.  The Hessian sign check verifies the free-rate extremum
to second order; no step needs it.  The tail-average CVaR stays in
``cvarpath.oracle``.
"""
from dataclasses import dataclass, replace

import numpy as np

from cvarpath import DomainError, InfeasibleStepError, TailSet, cvar, portfolio_losses, tail_split
from cvarpath.projection import _project
from cvarpath.risk import _CDF_SLACK

_RANK_TOL = 1e-12
# a0 at or below this share of F: f lies in the constraint span
_SPAN_TOL = 1e-12


def tail_split_by_sort(losses, probabilities, beta):
    """``risk.tail_split`` by a CDF scan over every loss, all K of them sorted.

    Ties are merged into atoms with ``np.unique``; VaR is the first atom whose
    CDF reaches beta and the atom at VaR carries the split fraction.
    """
    losses = np.asarray(losses, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"confidence level must be in [0, 1), got {beta!r}")
    atoms, inverse = np.unique(losses, return_inverse=True)
    cdf = np.cumsum(np.bincount(inverse, weights=probabilities))
    idx = int(np.searchsorted(cdf, beta - _CDF_SLACK, side="left"))
    v = float(atoms[min(idx, atoms.size - 1)])
    below = losses < v
    at = losses == v
    above = losses > v
    beta_star = float(probabilities[below].sum())
    atom_mass = float(probabilities[at].sum())
    beta_star_prime = beta_star + atom_mass
    fraction = min(max((beta_star_prime - beta) / atom_mass, 0.0), 1.0)
    weights = np.where(above, probabilities, 0.0)
    weights[at] = probabilities[at] * fraction
    signature = (tuple(np.flatnonzero(above)), tuple(np.flatnonzero(at)), fraction)
    return TailSet(var=v, beta=beta, beta_star=beta_star,
                   beta_star_prime=beta_star_prime, weights=weights,
                   signature=signature)


def loss_matrix(table):
    """The K x N per-group losses Z = x0 - V that the engine never stores."""
    return table.initial_values - table.values


def risk_contributions(table, state, beta):
    """Euler allocation of CVaR over the tail scenario set used by ``cvar``."""
    ts = tail_split(portfolio_losses(table, state), table.probabilities, beta)
    scaled = loss_matrix(table) * (state.weights / state.base_weights)
    return (ts.weights @ scaled) / (1.0 - beta)


def standalone_cvar(table, state, n, beta):
    """CVaR of the n-th group's scaled loss column on its own (one sort per call)."""
    column = loss_matrix(table)[:, n] * (state.weights[n] / state.base_weights[n])
    return cvar(column, table.probabilities, beta)


@dataclass(frozen=True)
class DirectionSample:
    """Extremes of the objective over sampled feasible directions."""

    max_Q: float
    max_y: np.ndarray
    min_Q: float
    min_y: np.ndarray
    samples: int
    seed: int


def _feasible_sphere(coeffs, mode, params):
    """The feasible set in u = c * y coordinates: centre, null-space basis, radius.

    The cost ellipsoid is the unit sphere there; the affine constraint set is
    split into its least-norm particular solution and an orthonormal
    null-space basis, and what remains of the sphere has the returned radius.
    """
    c = coeffs.c
    rows = []
    rhs = []
    if mode.has_revenue:
        rows.append(1.0 / c)
        rhs.append(params.kappa1)
    if mode.has_second:
        rows.append(coeffs.h / c)
        rhs.append(params.kappa2)
    n = c.shape[0]
    if rows:
        a = np.vstack(rows)
        b = np.asarray(rhs)
        u_mat, sing, v_mat = np.linalg.svd(a, full_matrices=True)
        rank = int(np.sum(sing > _RANK_TOL * sing[0]))
        # least-norm particular solution via the pseudo-inverse
        u0 = v_mat[:rank].T @ ((u_mat[:, :rank].T @ b) / sing[:rank])
        basis = v_mat[rank:]
    else:
        u0 = np.zeros(n)
        basis = np.eye(n)
    radius_sq = 1.0 - float(u0 @ u0)
    if radius_sq <= 0.0 or basis.shape[0] == 0:
        raise InfeasibleStepError("feasible direction set is empty or a single point")
    return u0, basis, np.sqrt(radius_sq)


def best_feasible_direction(coeffs, mode, params, samples=100_000, seed=0):
    """Sample the feasible set {y : constraints hold, sum c^2 y^2 = 1} uniformly.

    Directions are drawn uniformly on the residual sphere of
    ``_feasible_sphere``; the objective of sample i is
    base + radius * (g_i . proj) / |g_i|, so the unit directions themselves
    are formed only for the two extremes.
    """
    c = coeffs.c
    f_over_c = coeffs.f / c
    u0, basis, radius = _feasible_sphere(coeffs, mode, params)
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((samples, basis.shape[0]))
    norms = np.sqrt(np.einsum("ij,ij->i", gauss, gauss))
    norms[norms == 0.0] = 1.0
    base_q = float(f_over_c @ u0)
    proj = basis @ f_over_c
    q_values = base_q + radius * (gauss @ proj) / norms
    i_max = int(np.argmax(q_values))
    i_min = int(np.argmin(q_values))
    y_max = (u0 + basis.T @ (radius * gauss[i_max] / norms[i_max])) / c
    y_min = (u0 + basis.T @ (radius * gauss[i_min] / norms[i_min])) / c
    return DirectionSample(max_Q=float(q_values[i_max]), max_y=y_max,
                           min_Q=float(q_values[i_min]), min_y=y_min,
                           samples=samples, seed=seed)


def _rate_value(consts, mode, k1, k2, maximize):
    """The objective rate Q at rates (k1, k2) from the constants alone, or None
    where the step is infeasible or degenerate.

    Over the active rows, with M their block of the Gram matrix of (1, h, f)
    in the c^-2 metric and b their column against f: lam = M^-1 b,
    mu = M^-1 kappa, a0 = F - b.lam and a2 = kappa.mu - 1.  The multiplier q
    solves a2 q^2 + a0 = 0 on the optimization side, and Q = a0/q + lam.kappa.
    """
    gram = np.array([[consts.U, consts.V, consts.G],
                     [consts.V, consts.W, consts.H],
                     [consts.G, consts.H, consts.F]])
    rows = list(mode.rows)
    block, b = gram[np.ix_(rows, rows)], gram[rows, 2]
    kappa = np.array([k1, k2])[rows]
    try:
        lam = np.linalg.solve(block, b)
        mu = np.linalg.solve(block, kappa)
    except np.linalg.LinAlgError:
        return None
    a0 = consts.F - float(b @ lam)
    a2 = float(kappa @ mu) - 1.0
    if a2 >= 0.0 or a0 <= _SPAN_TOL * consts.F:
        return None
    q = np.sqrt(-a0 / a2) * (1.0 if maximize else -1.0)
    return float(a0 / q + lam @ kappa)


@dataclass(frozen=True)
class GridSearchResult:
    kappa1: float
    kappa2: float
    Q: float
    grid_step: float


def kappa_grid_search(consts, mode, grid_step, bounds, maximize=True,
                      fix_revenue=False, fix_second=False):
    """Best objective rate over a rate grid; infeasible grid points are skipped.

    ``bounds`` is ((k1_lo, k1_hi), (k2_lo, k2_hi)); a fixed axis collapses to 0.
    """
    (k1_lo, k1_hi), (k2_lo, k2_hi) = bounds

    def axis(lo, hi):
        count = int(np.floor((hi - lo) / grid_step + 1e-9)) + 1
        return lo + grid_step * np.arange(count)

    k1_axis = axis(k1_lo, k1_hi) if mode.has_revenue and not fix_revenue else np.array([0.0])
    k2_axis = axis(k2_lo, k2_hi) if mode.has_second and not fix_second else np.array([0.0])
    best = None
    for k1 in k1_axis:
        for k2 in k2_axis:
            value = _rate_value(consts, mode, float(k1), float(k2), maximize)
            if value is None:
                continue
            if best is None or (value > best[2] if maximize else value < best[2]):
                best = (float(k1), float(k2), value)
    if best is None:
        raise InfeasibleStepError("no feasible grid point")
    return GridSearchResult(kappa1=best[0], kappa2=best[1], Q=best[2], grid_step=grid_step)


@dataclass(frozen=True)
class HessianDiagnostic:
    determinant: float
    d2_kappa1: float
    d2_kappa2: float
    is_extremum: bool


def hessian_sign_check(consts, extremum):
    """Second-order diagnostic at the free-rate extremum (subcase B.1.1).

    The Hessian of Q over (kappa1, kappa2) is -q_bar (M^-1 + lam lam^T / a0);
    at q_bar^2 = F its determinant is F^2 / (det M a0).
    """
    proj = _project(consts, (0, 1))
    q_bar = extremum.q_bar
    d2_k1, d2_k2 = (-q_bar * (proj.adjugate[i][i] / proj.det + proj.lam[i] ** 2 / proj.a0)
                    for i in (0, 1))
    determinant = consts.F ** 2 / (proj.det * proj.a0)
    is_extremum = determinant > 0.0 and d2_k1 * q_bar < 0.0 and d2_k2 * q_bar < 0.0
    return HessianDiagnostic(determinant=determinant, d2_kappa1=d2_k1,
                             d2_kappa2=d2_k2, is_extremum=is_extremum)


@dataclass(frozen=True)
class FiniteDifference:
    value: float
    kink: bool  # tail scenario set changed between the two evaluations


def finite_difference_dar(table, state, beta, n, epsilon):
    """Central difference of portfolio CVaR in one weight; flags tail-set kinks."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")

    def evaluate(shift):
        weights = state.weights.copy()
        weights[n] += shift
        bumped = replace(state, weights=weights)
        losses = portfolio_losses(table, bumped)
        ts = tail_split(losses, table.probabilities, beta)
        value = float(ts.weights @ losses) / (1.0 - beta)
        return value, ts.signature

    up, sig_up = evaluate(epsilon)
    down, sig_down = evaluate(-epsilon)
    return FiniteDifference(value=(up - down) / (2.0 * epsilon), kink=sig_up != sig_down)
