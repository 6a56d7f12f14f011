"""Discrete loss distributions, VaR/CVaR with atom splitting, and Euler risk allocation.

All quantities are computed from a scenario matrix of group values and a
weight vector.  Losses are obtained by scaling the recorded loss columns with
``w / w_base`` so the distribution shape is fixed while the allocation moves.
The loss columns Z = x0 - V are never stored: the loss vector Z @ s is
x0 @ s - V @ s, and every other use of Z takes it from the matrix's own
initial values x0 and scenario values V.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError, DomainError

_PROB_TOL = 1e-12
_CDF_SLACK = 1e-12
# The Euler numerator gathers the tail rows of V about this many bytes at a time.
_GATHER_BYTES = 256 * 1024
# The tail cut of at least twice this many losses is guessed from a sample of about this many.
_SAMPLE_ROWS = 4096
# The standalone CVaRs copy this many columns of V at a time into one buffer.
_COLUMN_BLOCK = 2


def _vector(x, name):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _finite(arr, name):
    if not np.isfinite(arr).all():
        raise DataError(f"{name} must all be finite")
    return arr


def _finite_by_sum(arr, name):
    """``_finite`` without a bool array the size of ``arr``: a NaN or +-inf
    entry makes the sum non-finite, and only then (or if a finite sum
    overflows) does the exact scan run."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    if not math.isfinite(total):
        _finite(arr, name)


@dataclass
class ScenarioMatrix:
    """K scenario rows of group values plus occurrence likelihoods.

    ``initial_values`` holds the base allocation the scenarios were recorded
    at; losses are measured against it.
    """

    initial_values: np.ndarray
    values: np.ndarray
    probabilities: np.ndarray
    group_ids: tuple = ()

    def __post_init__(self):
        self.initial_values = _vector(self.initial_values, "initial_values")
        self.values = np.asarray(self.values, dtype=float)
        self.probabilities = _vector(self.probabilities, "probabilities")
        if self.values.ndim != 2:
            raise DataError(f"values must be a K x N matrix, got shape {self.values.shape}")
        for name in ("initial_values", "values", "probabilities"):
            _finite_by_sum(getattr(self, name), name)
        k, n = self.values.shape
        if n < 2:
            raise DataError(f"need at least 2 groups, got {n}")
        if k < 1:
            raise DataError("need at least 1 scenario row")
        if self.initial_values.shape != (n,):
            raise DataError("initial_values length does not match the number of columns")
        if self.probabilities.shape != (k,):
            raise DataError("probabilities length does not match the number of rows")
        if np.any(self.probabilities <= 0.0):
            raise DataError("all scenario probabilities must be strictly positive")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > _PROB_TOL:
            raise DataError(f"probabilities must sum to 1 within {_PROB_TOL}, got {total!r}")
        if np.any(self.initial_values <= 0.0):
            raise DataError("all initial group values must be strictly positive")
        with np.errstate(over="ignore"):
            total_value = float(self.initial_values.sum())
        if not math.isfinite(total_value):
            raise DataError("initial_values must sum to a finite total")
        first = self.values[:, 0]
        if all(np.array_equal(first, column) for column in self.values.T[1:]):
            raise DataError("all scenario columns are identical")
        if not self.group_ids:
            self.group_ids = tuple(f"g{i + 1}" for i in range(n))
        else:
            self.group_ids = tuple(str(g) for g in self.group_ids)
            if len(self.group_ids) != n:
                raise DataError("group_ids length does not match the number of columns")

    @property
    def n_groups(self):
        return self.values.shape[1]

    @property
    def n_scenarios(self):
        return self.values.shape[0]


def _read_only(arr):
    """A view of ``arr`` that cannot be written through; the caller's array is untouched."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass
class LossTable:
    """Per-group losses Z[k][n] = initial[n] - value[k][n] relative to the base
    allocation, held as the two factors of the scenario matrix.

    All three arrays are read-only views: of the matrix's own arrays when
    built by ``build_losses``, which copies nothing.  ``report`` keeps two
    memos on the table for its whole life: the CVaR of each column in
    ``_column_cvars`` and the pick of those CVaRs for the last sign pattern
    of the weights in ``_standalone_pick``.  Both are computed from the
    arrays as they were, so a caller who edits their matrix builds a new
    table.  A path keeps its own tail sets and hands them to ``report``.
    """

    initial_values: np.ndarray
    values: np.ndarray
    probabilities: np.ndarray
    # beta -> 3 x N rows cvar(-column), 0, cvar(column), NaN until a report needs one
    _column_cvars: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # beta -> (np.sign(w / w_base) as bytes, known[sign + 1, n] for each column n)
    _standalone_pick: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.initial_values = _read_only(_vector(self.initial_values, "initial_values"))
        self.values = _read_only(np.asarray(self.values, dtype=float))
        self.probabilities = _read_only(_vector(self.probabilities, "probabilities"))
        if self.values.ndim != 2:
            raise DataError("values must be a K x N matrix")
        if self.initial_values.shape[0] != self.values.shape[1]:
            raise DataError("initial_values length does not match the number of columns")
        if self.probabilities.shape[0] != self.values.shape[0]:
            raise DataError("probabilities length does not match the number of rows")


def check_returns(returns, base_value, name="returns"):
    """Reject per-group returns that are not finite, or whose product with the
    base value overflows: ``report`` prices each return at its group value."""
    _finite(returns, name)
    if not math.isfinite(float(np.abs(returns).max(initial=0.0)) * base_value):
        raise DataError(f"{name} times the base value {base_value!r} must be finite")


def check_costs(costs, name="cost_coefficients"):
    """Reject adjustment-cost coefficients a step cannot use.

    Each must be finite and positive, with c*c and 1/(c*c) finite and nonzero,
    because the step constants sum over 1/c**2; the smallest must be at least
    1e-6 of the largest.
    """
    _finite(costs, name)
    if np.any(costs <= 0.0):
        raise DataError(f"{name} must be strictly positive")
    cmin, cmax = float(costs.min()), float(costs.max())
    if not (cmin * cmin > 0.0 and math.isfinite(1.0 / (cmin * cmin))
            and math.isfinite(cmax * cmax)):
        raise DataError(f"{name} squared must be finite and nonzero, and so must its "
                        f"reciprocal; got min {cmin!r}, max {cmax!r}")
    if cmin / cmax < 1e-6:
        raise DataError(f"{name} are not mutually comparable "
                        f"(min/max ratio {cmin / cmax:.3e} < 1e-6)")


def _check_weights(weights, frozen):
    """The frozen mask as a bool array, after the checks of what a step changes:
    the weights are finite, the mask has their shape, and no active weight is
    exactly 0."""
    _finite(weights, "weights")
    frozen = np.asarray(frozen, dtype=bool)
    if frozen.shape != weights.shape:
        raise DataError("frozen mask length does not match weights")
    zero = weights == 0.0
    if zero.any() and (zero & ~frozen).any():
        raise DomainError("active weight components must be nonzero")
    return frozen


@dataclass
class PortfolioState:
    """Current allocation together with the data needed to re-price it.

    Weights are fractions of ``base_value``; ``base_weights`` is the
    allocation the scenario matrix was recorded at.  ``frozen`` marks
    components clamped to zero and excluded from further adjustment.
    """

    weights: np.ndarray
    returns: np.ndarray
    cost_coefficients: np.ndarray
    base_value: float
    base_weights: np.ndarray
    frozen: np.ndarray = None

    def __post_init__(self):
        self.weights = _vector(self.weights, "weights")
        self.returns = _vector(self.returns, "returns")
        self.cost_coefficients = _vector(self.cost_coefficients, "cost_coefficients")
        self.base_weights = _vector(self.base_weights, "base_weights")
        n = self.weights.shape[0]
        for name, arr in (("returns", self.returns),
                          ("cost_coefficients", self.cost_coefficients),
                          ("base_weights", self.base_weights)):
            if arr.shape != (n,):
                raise DataError(f"{name} length does not match weights")
        self.base_value = float(self.base_value)
        check_returns(self.returns, self.base_value)
        check_costs(self.cost_coefficients)
        _finite(self.base_weights, "base_weights")
        if np.any(self.base_weights == 0.0):
            raise DomainError("base weights must all be nonzero")
        frozen = np.zeros(n, dtype=bool) if self.frozen is None else self.frozen
        self.frozen = _check_weights(self.weights, frozen)

    def with_weights(self, weights, frozen=None):
        """This state at new weights (and frozen mask), checking only what a step changes.

        The other fields were checked when this state was built and are shared.
        A rejected input raises what ``PortfolioState(...)`` would raise.
        """
        weights = _vector(weights, "weights")
        if weights.shape != self.returns.shape:
            raise DataError("returns length does not match weights")
        frozen = _check_weights(weights, self.frozen if frozen is None else frozen)
        state = object.__new__(type(self))  # a copy of the fields, without __post_init__
        state.__dict__.update(self.__dict__, weights=weights, frozen=frozen)
        return state

    @property
    def n_groups(self):
        return self.weights.shape[0]

    @property
    def active(self):
        return ~self.frozen

    @property
    def revenue(self):
        """Total weight, i.e. allocated fraction of the base value."""
        return float(self.weights.sum())

    @property
    def total_return(self):
        return float(self.returns @ self.weights)


def initial_state(scenarios, returns, cost_coefficients=None):
    """Build the starting state at the recorded allocation (weights sum to 1)."""
    base_value = float(scenarios.initial_values.sum())
    base_weights = scenarios.initial_values / base_value
    n = scenarios.n_groups
    returns = _vector(returns, "returns") if np.ndim(returns) else np.full(n, float(returns))
    if cost_coefficients is None:
        cost_coefficients = np.ones(n)
    elif np.ndim(cost_coefficients) == 0:
        cost_coefficients = np.full(n, float(cost_coefficients))
    state = PortfolioState(weights=base_weights.copy(), returns=returns,
                           cost_coefficients=np.asarray(cost_coefficients, dtype=float),
                           base_value=base_value, base_weights=base_weights)
    if abs(state.revenue - 1.0) > _PROB_TOL:
        raise DataError("initial weights do not sum to 1")
    return state


@dataclass(frozen=True)
class TailSet:
    """The tail scenario set behind a CVaR evaluation, over its tail rows only.

    ``above`` and ``at`` are the ascending strict-tail and VaR-atom rows as
    ``np.intp`` arrays.  ``rows`` are the ascending rows of nonzero tail
    weight and ``tail`` their effective probability mass; atom rows carry
    only the split fraction.  Every other row has weight 0.  ``signature``
    identifies the tail set for kink detection: the bytes of ``above`` and of
    ``at`` (8 B a row) and the atom fraction.
    """

    var: float
    beta: float
    beta_star: float
    beta_star_prime: float
    above: np.ndarray
    at: np.ndarray
    rows: np.ndarray
    tail: np.ndarray
    signature: tuple


def build_losses(scenarios):
    """The loss table of a scenario matrix: read-only views of its arrays, no copy."""
    return LossTable(initial_values=scenarios.initial_values, values=scenarios.values,
                     probabilities=scenarios.probabilities)


def scaled_group_losses(table, state):
    """Loss columns rescaled to the current allocation via w / w_base.

    ``report`` never forms this K x N matrix.
    """
    if np.any(state.base_weights == 0.0):
        raise DomainError("degenerate state: zero base weight")
    scale = state.weights / state.base_weights
    return (table.initial_values - table.values) * scale


def portfolio_losses(table, state):
    """Total scenario losses Z @ s = x0 @ s - V @ s with s = w / w_base
    (degree-one homogeneous in w), in one K-vector.

    ``report`` and the tests' Euler reference both take the loss vector from
    here, so they break exact ties between scenarios the same way.  A loss
    that overflows, or is inf - inf, is left non-finite for the tail split
    to reject as a ``DataError``, without a numpy warning.
    """
    return losses_at(table, state.weights / state.base_weights)


def losses_at(table, scale):
    """``portfolio_losses`` at the scale s, any N-vector: Z @ s is linear in
    s, so the losses of a weight change dw are ``losses_at(table, dw / w_base)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        losses = table.values @ scale
        return np.subtract(table.initial_values @ scale, losses, out=losses)


def _tail_inputs(losses, probabilities):
    """The losses and probabilities as checked float vectors.

    Float vectors of one shape are checked by one dot product: a NaN or +-inf
    in either makes it non-finite, while a finite pair whose product overflows
    passes (``np.vdot``, unlike ``@``, warns of neither).  Anything else runs
    the exact checks, in the order that decides which fault is named.
    """
    if (type(losses) is np.ndarray and type(probabilities) is np.ndarray
            and losses.dtype == probabilities.dtype == float and losses.ndim == 1
            and losses.size and probabilities.shape == losses.shape
            and math.isfinite(np.vdot(probabilities, losses))):
        return losses, probabilities
    losses = _finite(_vector(losses, "losses"), "losses")
    if losses.size == 0:
        raise DataError("empty loss vector")
    probabilities = _finite(_vector(probabilities, "probabilities"), "probabilities")
    if probabilities.shape != losses.shape:
        raise DataError("probabilities length does not match losses")
    return losses, probabilities


def _top_rows(losses, m):
    """The m-th largest loss and the ascending indices of the rows at or above it.

    From K >= 2 S losses (S = ``_SAMPLE_ROWS``) a guess is read off a sample
    of every (K // S)-th loss, at a rank four standard deviations past the
    m S / K sample rows expected at or above the cut (Floyd and Rivest's
    SELECT).  If at least m losses reach the guess, every row at or above the
    cut is among them, so the cut is the m-th largest of those rows alone.
    A guess too high, or a smaller K, partitions all K losses instead.  Both
    ways give the same cut and the same rows.
    """
    k = losses.size
    if k >= 2 * _SAMPLE_ROWS:
        sample = losses[::k // _SAMPLE_ROWS]
        expected = sample.size * m / k
        rank = min(sample.size, int(expected + 4.0 * math.sqrt(expected)) + 1)
        guess = np.partition(sample, sample.size - rank)[sample.size - rank]
        wide = (losses >= guess).nonzero()[0]
        if wide.size >= m:
            kept = losses[wide]
            cut = np.partition(kept, kept.size - m)[kept.size - m]
            return cut, wide[kept >= cut]
    cut = np.partition(losses, k - m)[k - m]
    return cut, (losses >= cut).nonzero()[0]


def _split(losses, probabilities, beta):
    """The selection behind ``var``, ``tail_split`` and ``cvar``.

    Returns the validated losses and probabilities, VaR, beta_star =
    P(L < VaR), the ascending rows above VaR and at it, the atom's
    probability mass and the share of it the tail takes.  Only the candidate
    rows (loss >= cut, from ``_top_rows``) are sorted and split.
    """
    losses, probabilities = _tail_inputs(losses, probabilities)
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"confidence level must be in [0, 1), got {beta!r}")
    k = losses.size
    m = int((1.0 - beta) * k) + 2
    below = 0.0
    if m < k:
        cut, rows = _top_rows(losses, m)
        below = float(probabilities @ (losses < cut))
    if m >= k or below >= beta - _CDF_SLACK:  # the cut may lie above VaR
        rows, below = np.arange(k, dtype=np.intp), 0.0
    candidates = losses[rows]
    order = candidates.argsort()
    ascending = candidates[order]
    cdf = below + probabilities[rows[order]].cumsum()
    # VaR is the loss at which the CDF first reaches beta; a tie's CDF is
    # complete at its last row, so the atom's first row gives beta_star.
    v = ascending[min(int(cdf.searchsorted(beta - _CDF_SLACK)), ascending.size - 1)]
    first = int(ascending.searchsorted(v))
    beta_star = float(cdf[first - 1]) if first else below
    above = rows[candidates > v]
    at = rows[candidates == v]
    atom_mass = float(probabilities[at].sum())
    fraction = min(max((beta_star + atom_mass - beta) / atom_mass, 0.0), 1.0)
    return losses, probabilities, float(v), beta_star, above, at, atom_mass, fraction


def var(losses, probabilities, beta):
    """Smallest loss level whose CDF reaches ``beta``, with ties merged into atoms.

    The losses are selected, not sorted.  With m = floor((1 - beta) K) + 2,
    the cut t is the (K - m)-th order statistic, and only the candidate rows
    with loss >= t are sorted and their ties merged into atoms, their CDF
    offset by P(L < t).  ``_top_rows`` selects t from the rows that reach a
    guess read off a sample, or, when K is small or the guess is too high,
    by one ``np.partition`` of every loss.  If P(L < t) >= beta - slack the
    cut may lie above the VaR atom, so every row is a candidate, as it is
    when m >= K (always for beta = 0); with uniform probabilities
    P(L < t) <= beta - 1/K, so this never happens.  A non-finite loss or
    probability raises ``DataError``.
    """
    return _split(losses, probabilities, beta)[2]


def tail_split(losses, probabilities, beta):
    """VaR plus the tail rows and their pro-rata tail mass (atom split included).

    Uses the cut of ``var``: every row with loss >= VaR is a candidate row at
    or above it, so only those rows are split into strict tail and VaR atom
    (every row, when the cut falls back to the full set); all others have
    weight 0 and appear in no field.  The rows of nonzero weight are the
    strict-tail rows, and the atom rows when the atom takes a share; a row
    whose weight is 0 is dropped.
    """
    _, probabilities, v, beta_star, above, at, atom_mass, fraction = _split(
        losses, probabilities, beta)
    rows, tail = above, probabilities[above]
    if fraction > 0.0:
        rows = np.concatenate((above, at))
        tail = np.concatenate((tail, probabilities[at] * fraction))
        order = rows.argsort()
        rows, tail = rows[order], tail[order]
    nonzero = tail != 0.0
    return TailSet(var=v, beta=beta, beta_star=beta_star,
                   beta_star_prime=beta_star + atom_mass, above=above, at=at,
                   rows=rows[nonzero], tail=tail[nonzero],
                   signature=(above.tobytes(), at.tobytes(), fraction))


def cvar(losses, probabilities, beta):
    """Atom-splitting CVaR: (partial tail expectation + split mass x VaR) / (1 - beta).

    Sums the strict-tail rows and the atom's share of VaR, and builds no
    ``TailSet``; ``ts.tail @ losses[ts.rows]`` of ``ts = tail_split(...)``
    is the same sum in another order.
    """
    losses, probabilities, v, _, above, _, atom_mass, fraction = _split(
        losses, probabilities, beta)
    tail_mean = float(probabilities[above] @ losses[above]) + fraction * atom_mass * v
    return tail_mean / (1.0 - beta)


def dar(contributions, state):
    """Per-unit-weight risk: contribution / weight; NaN for frozen components."""
    contributions = _vector(contributions, "contributions")
    return np.divide(contributions, state.weights, out=np.full(state.n_groups, np.nan),
                     where=state.active)


def _standalone_cvars(table, scale, beta):
    """Every group's standalone CVaR by positive homogeneity of CVaR.

    s * cvar(z) for s > 0, |s| * cvar(-z) for s < 0 and exactly 0 for s = 0:
    one product |s| * known[sign(s) + 1, n] with the table's 3 x N rows
    cvar(-z), 0 and cvar(z) for this beta.  The picked row
    known[sign(s) + 1, n] is kept on the table with its sign pattern, so it
    is picked anew only when a sign changes (on a path, at a clamp).
    """
    signs = np.sign(scale)
    key = signs.tobytes()
    pick = table._standalone_pick.get(beta)
    if pick is None or pick[0] != key:
        side = signs.astype(np.intp)
        side += 1
        pick = table._standalone_pick[beta] = (key, _pick_standalone(table, side, beta))
    return np.abs(scale) * pick[1]


def _pick_standalone(table, side, beta):
    """known[side[n], n] for each column n of the table's 3 x N rows for this
    beta.  A column's cvar(z) or cvar(-z) is NaN until a pick first needs
    it; only then is the column z = x0[n] - V[:, n] (or -z = V[:, n] - x0[n])
    formed, by ``_signed_columns``."""
    known = table._column_cvars.get(beta)
    if known is None:
        known = table._column_cvars[beta] = np.full((3, side.size), np.nan)
        known[1] = 0.0
    cols = np.arange(side.size)
    picked = known[side, cols]
    need = np.flatnonzero(np.isnan(picked))
    if need.size:
        for n, signed in _signed_columns(table, need, side[need] == 2):
            known[side[n], n] = cvar(signed, table.probabilities, beta)
        picked = known[side, cols]
    return picked


def _signed_columns(table, cols, positive):
    """Yield (n, z) for each column n of ``cols``: z = x0[n] - V[:, n] where
    ``positive`` holds, else V[:, n] - x0[n].

    A column of the row-major V read alone costs a cache line a value, so
    the columns are copied ``_COLUMN_BLOCK`` at a time into one reused
    (block x K) buffer, ``_GATHER_BYTES`` of it at a time: each line of V
    read serves the whole block.  Adjacent columns are read as a slice.
    Each z is formed in place, so the next block overwrites it.
    """
    values = table.values
    k = values.shape[0]
    buffer = np.empty((min(_COLUMN_BLOCK, cols.size), k))
    step = max(1, _GATHER_BYTES // (buffer.itemsize * buffer.shape[0]))
    for first in range(0, cols.size, _COLUMN_BLOCK):
        block = cols[first:first + _COLUMN_BLOCK]
        lo, hi = int(block[0]), int(block[-1]) + 1
        picked = slice(lo, hi) if hi - lo == block.size else block
        columns = buffer[:block.size]
        for start in range(0, k, step):
            columns[:, start:start + step] = values[start:start + step, picked].T
        for n, z, pos in zip(block, columns, positive[first:first + _COLUMN_BLOCK]):
            x0 = table.initial_values[n]
            if pos:
                np.subtract(x0, z, out=z)
            else:
                np.subtract(z, x0, out=z)
            yield n, z


@dataclass(frozen=True)
class RiskReport:
    """Risk and performance metrics of one portfolio state.

    ``tail`` is the ``TailSet`` and its Euler numerator sum(t) * x0 - t @ V[rows],
    which a later report on the same table re-checks when handed it in
    ``known``.  The per-group vectors ``contributions``, ``dar`` and
    ``group_return_to_risk`` are formed on first read and kept: a path step
    that reuses its solve reads none of them.  They are formed from the
    numerator, s = w / w_base, 1 / (1 - beta) and the state itself, so a
    caller who edits the state's arrays before the first read reads the
    vectors of the edited state.
    """

    var: float
    cvar: float
    standalone_cvar: np.ndarray
    diversification_index: float
    total_return: float
    total_return_to_risk: float
    revenue: float
    beta_star: float  # P(L < VaR), the atom split's lower mass
    tail_signature: tuple
    tail: tuple = field(repr=False, compare=False)  # (TailSet, its Euler numerator)
    _scale: np.ndarray = field(repr=False, compare=False)
    _inv_tail: float = field(repr=False, compare=False)
    _state: PortfolioState = field(repr=False, compare=False)

    @cached_property
    def contributions(self):
        """Euler contributions (tail weights @ Z) * s / (1 - beta)."""
        return self.tail[1] * self._scale * self._inv_tail

    @cached_property
    def dar(self):
        """Contribution per unit weight; NaN for frozen components."""
        return dar(self.contributions, self._state)

    @cached_property
    def group_return_to_risk(self):
        """Each group's return at its value over its standalone CVaR; NaN
        where that CVaR is 0."""
        state, standalone = self._state, self.standalone_cvar
        group_values = state.weights * state.base_value
        return np.divide(state.returns * group_values, standalone,
                         out=np.full(standalone.shape, np.nan), where=standalone != 0.0)


def _euler_numerator(table, rows, tail):
    """sum(t) * x0 - t @ V[rows], with the rows of V gathered about
    ``_GATHER_BYTES`` at a time rather than as one (rows x N) block."""
    values = table.values
    step = max(1, _GATHER_BYTES // values[0].nbytes)
    gathered = np.zeros(values.shape[1])
    for start in range(0, rows.size, step):
        gathered += tail[start:start + step] @ values[rows[start:start + step]]
    return tail.sum() * table.initial_values - gathered


def _tail(table, total, beta, known):
    """VaR of the checked losses ``total`` and the pair of their tail set: a
    ``TailSet`` and its Euler numerator sum(t) * x0 - t @ V[rows].

    The first pair of ``known`` made at this beta whose tail set stands is
    reused: its atom rows are still tied at v (a one-row atom is, v being
    its loss), every strict-tail row is above v and no other row reaches v.
    The rows above and at VaR are then the kept ones, so P(L < v) and
    P(L <= v) are too: v is VaR, and the split fraction, tail weights and
    signature are the kept ones.  The O(tail) tests run first, and the O(K)
    count only for a pair that passes them.  Otherwise the losses are split
    once.  A kept ``TailSet``'s VaR is that of its split; the VaR returned
    is the current one.
    """
    for pair in known:
        if pair[0].beta != beta:
            continue
        above, at = pair[0].above, pair[0].at
        v = total[at[0]]
        if ((at.size == 1 or (total[at] == v).all())
                and (above.size == 0 or total[above].min() > v)
                and np.count_nonzero(total >= v) == above.size + at.size):
            return float(v), pair
    ts = tail_split(total, table.probabilities, beta)
    return ts.var, (ts, _euler_numerator(table, ts.rows, ts.tail))


def report(table, state, beta, losses=None, known=()):
    """Evaluate the risk measures and indices at the given state.

    No K x N array is formed: with s = w / w_base the losses L are
    x0 @ s - V @ s, CVaR is t @ L[rows] / (1 - beta) and the Euler
    contributions (tail weights @ Z) * s are
    (sum(t) * x0 - t @ V[rows]) * s / (1 - beta), over the rows of nonzero
    tail weight t only.  A caller that already holds the state's loss vector
    passes it as ``losses`` (a path derives it from the last one, since L is
    linear in w), and then the report forms no K x N product.  The loss
    vector, formed or given, is checked once as the tail split checks it.
    The numerator depends only on the tail rows, so ``known`` may hold the
    ``tail`` pairs of earlier reports on this table: one whose set still
    stands is reused, and otherwise the losses are split (``_tail``).  The
    standalone CVaRs come first, so their column buffer and a loss vector
    formed here are never held at once; the per-group vectors are formed
    when first read (``RiskReport``).  A state whose group count is not the
    table's is a ``DataError``, raised before either memo is touched.
    """
    groups = table.values.shape[1]
    if state.n_groups != groups:
        raise DataError(f"the state has {state.n_groups} groups, the scenario table {groups}")
    scale = state.weights / state.base_weights
    standalone = _standalone_cvars(table, scale, beta)
    total = losses_at(table, scale) if losses is None else losses
    total = _tail_inputs(total, table.probabilities)[0]
    v, pair = _tail(table, total, beta, known)
    ts = pair[0]
    inv_tail = 1.0 / (1.0 - beta)
    cvar_total = float(ts.tail @ total[ts.rows]) * inv_tail
    standalone_sum = float(standalone.sum())
    diversification = cvar_total / standalone_sum if standalone_sum != 0.0 else np.nan
    total_return = state.total_return
    total_re2ri = total_return * state.base_value / cvar_total if cvar_total != 0.0 else np.nan
    return RiskReport(var=v, cvar=cvar_total, standalone_cvar=standalone,
                      diversification_index=diversification,
                      total_return=total_return, total_return_to_risk=total_re2ri,
                      revenue=state.revenue, beta_star=ts.beta_star,
                      tail_signature=ts.signature, tail=pair,
                      _scale=scale, _inv_tail=inv_tail, _state=state)
