"""Slow, independent references that the tests compare the engine against.

Each is structurally different from the engine path it checks: the tail
split sorts every loss where the engine selects the upper tail first, the
Euler contributions and standalone CVaRs form the loss matrix Z = x0 - V
and scale it, with one CVaR per column, the direction search samples the
feasible sphere, the rate search evaluates the objective rate on a grid,
and DaR is a central difference.  The Hessian sign check verifies the free-rate extremum
to second order; no step needs it.  ``min_cvar_lp`` solves for the optimum the
min-risk path searches towards as one linear program.  The tail-average CVaR stays in
``cvarpath.oracle``.  ``report_reference`` and ``generate_reference`` are
bit-for-bit references instead: the eager form of an engine call that now
does less work for the same bits.
"""
import math
from dataclasses import dataclass, field, replace

import numpy as np

from cvarpath import (DomainError, InfeasibleStepError, ScenarioMatrix, TailSet, cvar, dar,
                      portfolio_losses, risk, tail_split)
from cvarpath.projection import _project
from cvarpath.risk import _CDF_SLACK

_RANK_TOL = 1e-12
# a0 at or below this share of F: f lies in the constraint span
_SPAN_TOL = 1e-12


def tail_split_by_sort(losses, probabilities, beta):
    """``risk.tail_split`` by a CDF scan over every loss, all K of them sorted.

    Ties are merged into atoms with ``np.unique``; VaR is the first atom whose
    CDF reaches beta and the atom at VaR carries the split fraction.  The
    tail weights are scattered into a K-length vector and its nonzero rows
    read back.  The strict-tail and atom rows are those of its own masks in
    the engine's form, ascending ``np.intp`` arrays, and the signature holds
    their bytes, so equal signatures mean equal index sets.
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
    above, at, rows = np.flatnonzero(above), np.flatnonzero(at), np.flatnonzero(weights)
    return TailSet(var=v, beta=beta, beta_star=beta_star,
                   beta_star_prime=beta_star_prime, above=above, at=at, rows=rows,
                   tail=weights[rows], signature=(above.tobytes(), at.tobytes(), fraction))


def dense_tail_weights(ts, probabilities):
    """The K-length tail weights of a ``TailSet`` as ``tail_split`` once
    scattered them: p at the strict-tail rows, p times the atom fraction at
    the atom rows, 0 at every other row."""
    weights = np.zeros(probabilities.size)
    weights[ts.above] = probabilities[ts.above]
    weights[ts.at] = probabilities[ts.at] * ts.signature[2]
    return weights


def loss_matrix(table):
    """The K x N per-group losses Z = x0 - V that the engine never stores."""
    return table.initial_values - table.values


def risk_contributions(table, state, beta):
    """Euler allocation of CVaR over the tail scenario set used by ``cvar``."""
    ts = tail_split(portfolio_losses(table, state), table.probabilities, beta)
    scaled = loss_matrix(table) * (state.weights / state.base_weights)
    return (ts.tail @ scaled[ts.rows]) / (1.0 - beta)


def standalone_cvar(table, state, n, beta):
    """CVaR of the n-th group's scaled loss column on its own (one sort per call)."""
    column = loss_matrix(table)[:, n] * (state.weights[n] / state.base_weights[n])
    return cvar(column, table.probabilities, beta)


@dataclass(frozen=True)
class CvarOptimum:
    cvar: float
    weights: np.ndarray


def min_cvar_lp(matrix, state, beta):
    """The least CVaR over long-only weights of unit revenue (sum w = 1, w >= 0).

    The Rockafellar-Uryasev (2000) linear program: minimize
    alpha + sum_k p_k u_k / (1 - beta) over (w, alpha, u) subject to
    u_k >= L_k(w) - alpha and u >= 0, with the scenario losses
    L(w) = Z (w / w_base) of ``portfolio_losses``.  CVaR is degree-one
    homogeneous, so the optimum is also the least CVaR per unit revenue.
    Solved by HiGHS; scipy is a test-only dependency.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    k, n = matrix.values.shape
    losses = (matrix.initial_values - matrix.values) / state.base_weights
    objective = np.concatenate([np.zeros(n), [1.0], matrix.probabilities / (1.0 - beta)])
    # L(w) - alpha - u <= 0, one row per scenario
    rows = sparse.hstack([sparse.csr_matrix(losses), -np.ones((k, 1)), -sparse.eye(k)],
                         format="csr")
    revenue = np.concatenate([np.ones(n), np.zeros(1 + k)])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)] + [(0.0, None)] * k
    result = linprog(objective, A_ub=rows, b_ub=np.zeros(k), A_eq=revenue, b_eq=[1.0],
                     bounds=bounds, method="highs")
    if result.status != 0:
        raise RuntimeError(f"CVaR LP not solved: {result.message}")
    return CvarOptimum(cvar=float(result.fun), weights=result.x[:n])


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
        value = float(ts.tail @ losses[ts.rows]) / (1.0 - beta)
        return value, ts.signature

    up, sig_up = evaluate(epsilon)
    down, sig_down = evaluate(-epsilon)
    return FiniteDifference(value=(up - down) / (2.0 * epsilon), kink=sig_up != sig_down)


def generate_reference(spec):
    """``data.generate`` as whole-array expressions: each block's (K, size)
    shocks drawn at once, every transform a fresh K x size array, the blocks
    joined with ``np.hstack``.  ``generate`` fills one table in row chunks
    and must give the same bits."""
    rng = np.random.default_rng(spec.seed)
    k = spec.n_scenarios
    tau = spec.tail
    mean_ln = math.exp(tau * tau / 2.0)
    sd_ln = math.sqrt((math.exp(tau * tau) - 1.0) * math.exp(tau * tau))
    columns = []
    for size, rho in spec.blocks:
        common = rng.standard_normal((k, 1))
        idio = rng.standard_normal((k, size))
        shocks = math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio
        columns.append((np.exp(tau * shocks) - mean_ln) / sd_ln)
    standardized = np.hstack(columns)
    n = spec.n_groups
    base = np.full(n, spec.base_value / n)
    with np.errstate(over="raise", invalid="raise"):
        values = base[None, :] - base[None, :] * spec.loss_scale * standardized
    return ScenarioMatrix(initial_values=base, values=values, probabilities=np.full(k, 1.0 / k))


@dataclass(frozen=True)
class EagerReport:
    """The fields of ``risk.RiskReport``, every one formed when it is built."""

    var: float
    cvar: float
    contributions: np.ndarray
    dar: np.ndarray
    standalone_cvar: np.ndarray
    diversification_index: float
    total_return: float
    total_return_to_risk: float
    group_return_to_risk: np.ndarray
    revenue: float
    beta_star: float
    tail_signature: tuple
    tail: tuple = field(repr=False, compare=False)  # (TailSet, its Euler numerator)


def _standalone_reference(table, scale, beta):
    """|s| * known[sign(s) + 1, n], picked from the table's 3 x N column
    CVaRs on every call; a NaN in the product marks columns still unknown,
    which are formed and filled in first."""
    known = table._column_cvars.get(beta)
    if known is None:
        known = table._column_cvars[beta] = np.full((3, scale.size), np.nan)
        known[1] = 0.0
    side = np.sign(scale).astype(np.intp)
    side += 1
    cols = np.arange(scale.size)
    out = np.abs(scale) * known[side, cols]
    if math.isnan(out.sum()):
        need = np.flatnonzero(np.isnan(known[side, cols]))
        for n, signed in risk._signed_columns(table, need, side[need] == 2):
            known[side[n], n] = cvar(signed, table.probabilities, beta)
        out = np.abs(scale) * known[side, cols]
    return out


def report_reference(table, state, beta, losses=None, known=()):
    """``risk.report`` with every field formed at once: the Euler
    contributions, DaR and the per-group return-to-risk on every call, and
    the standalone CVaRs picked anew each time.  It keeps the table's memos
    as ``report`` does, and takes the state's loss vector and the known tail
    pairs when given as ``report`` does, so the two agree bit for bit along
    any sequence of states and pairs on tables of one history."""
    scale = state.weights / state.base_weights
    standalone = _standalone_reference(table, scale, beta)
    total = portfolio_losses(table, state) if losses is None else losses
    total = risk._tail_inputs(total, table.probabilities)[0]
    v, pair = risk._tail(table, total, beta, known)
    ts, numerator = pair
    inv_tail = 1.0 / (1.0 - beta)
    cvar_total = float(ts.tail @ total[ts.rows]) * inv_tail
    contributions = numerator * scale * inv_tail
    dar_values = dar(contributions, state)
    standalone_sum = float(standalone.sum())
    diversification = cvar_total / standalone_sum if standalone_sum != 0.0 else np.nan
    total_return = state.total_return
    x0 = state.base_value
    total_re2ri = total_return * x0 / cvar_total if cvar_total != 0.0 else np.nan
    group_values = state.weights * x0
    group_re2ri = np.divide(state.returns * group_values, standalone,
                            out=np.full(standalone.shape, np.nan), where=standalone != 0.0)
    return EagerReport(var=v, cvar=cvar_total, contributions=contributions,
                       dar=dar_values, standalone_cvar=standalone,
                       diversification_index=diversification,
                       total_return=total_return, total_return_to_risk=total_re2ri,
                       group_return_to_risk=group_re2ri, revenue=state.revenue,
                       beta_star=ts.beta_star, tail_signature=ts.signature, tail=pair)
