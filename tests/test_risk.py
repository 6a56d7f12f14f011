"""VaR/CVaR, atom splitting, Euler allocation, and report invariants."""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cvarpath import continuation, risk
from cvarpath import (
    ConstraintMode,
    ConstraintVariant,
    ContinuationConfig,
    DataError,
    DomainError,
    FixedKappas,
    LossTable,
    ObjectiveKind,
    PortfolioState,
    ScenarioMatrix,
    build_losses,
    cvar,
    cvar_tail_average,
    dar,
    initial_state,
    portfolio_losses,
    report,
    run,
    tail_split,
    var,
)
from oracle import (finite_difference_dar, loss_matrix, risk_contributions, standalone_cvar,
                    tail_split_by_sort)
from conftest import random_distribution, random_matrix, small_portfolio

FIVE = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
FIVE_P = np.full(5, 0.2)


class TestVarCvarHandValues:
    def test_var_merges_atoms(self):
        assert var(FIVE, FIVE_P, 0.8) == 3.0
        assert var(FIVE, FIVE_P, 0.0) == 0.0
        assert var(FIVE, FIVE_P, 0.95) == 4.0

    def test_var_with_duplicate_losses(self):
        losses = np.array([1.0, 2.0, 2.0, 3.0])
        probs = np.full(4, 0.25)
        assert var(losses, probs, 0.5) == 2.0
        assert var(losses, probs, 0.75) == 2.0
        assert var(losses, probs, 0.76) == 3.0

    def test_cvar_no_split(self):
        assert cvar(FIVE, FIVE_P, 0.8) == pytest.approx(4.0, abs=1e-15)

    def test_cvar_atom_split(self):
        assert cvar(FIVE, FIVE_P, 0.7) == pytest.approx(11.0 / 3.0, rel=1e-15)

    def test_cvar_beta_zero_is_mean(self):
        assert cvar(FIVE, FIVE_P, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_tail_split_masses(self):
        ts = tail_split(FIVE, FIVE_P, 0.7)
        assert ts.var == 3.0
        assert ts.beta_star == pytest.approx(0.6)
        assert ts.beta_star_prime == pytest.approx(0.8)
        np.testing.assert_allclose(ts.weights, [0.0, 0.0, 0.0, 0.1, 0.2])
        assert ts.weights.sum() == pytest.approx(1.0 - 0.7)

    def test_invalid_beta_rejected(self):
        with pytest.raises(DomainError):
            var(FIVE, FIVE_P, 1.0)
        with pytest.raises(DomainError):
            cvar(FIVE, FIVE_P, -0.1)


@st.composite
def loss_distributions(draw):
    """Losses with ties (integers in [-5, 5]) or continuous, with uniform
    probabilities at a beta on an atom boundary ((1 - beta) K an integer), or
    with probabilities geometric in the loss rank, massed in the top or in the
    bottom scenarios; the latter makes the selection fall back to every row."""
    k = draw(st.integers(1, 300))
    if draw(st.booleans()):
        losses = draw(arrays(np.float64, k, elements=st.integers(-5, 5)))
    else:
        losses = draw(arrays(np.float64, k, elements=st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        return losses, np.full(k, 1.0 / k), 1.0 - draw(st.integers(1, k)) / k
    rank = np.argsort(np.argsort(losses, kind="stable"), kind="stable")
    ratio = draw(st.floats(1.05, 2.0))
    mass = ratio ** (rank if draw(st.booleans()) else -rank)
    beta = draw(st.one_of(st.sampled_from((0.0, 0.5, 0.9, 0.95, 0.99)),
                          st.floats(0.0, 0.999)))
    return losses, mass / mass.sum(), beta


class TestTailSelection:
    """The selecting tail split against the sort-based split it replaced."""

    @given(loss_distributions())
    @settings(max_examples=400, deadline=None)
    def test_matches_sort_based_split(self, drawn):
        losses, probs, beta = drawn
        tol = losses.size * np.finfo(float).eps
        got = tail_split(losses, probs, beta)
        want = tail_split_by_sort(losses, probs, beta)
        assert got.var == want.var == var(losses, probs, beta)
        assert got.signature[:2] == want.signature[:2]
        assert abs(got.beta_star - want.beta_star) <= tol
        assert abs(got.beta_star_prime - want.beta_star_prime) <= tol
        np.testing.assert_allclose(got.weights, want.weights, rtol=0.0, atol=tol)

    def test_light_top_rows_fall_back_to_every_row(self):
        """P(L < cut) reaches beta, so VaR lies below the cut's candidates."""
        losses = np.arange(10.0)
        probs = np.array([0.19] * 5 + [0.01] * 5)
        got = tail_split(losses, probs, 0.9)
        want = tail_split_by_sort(losses, probs, 0.9)
        assert got.var == want.var == 4.0
        assert got.signature[:2] == want.signature[:2]

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("name", ("losses", "probabilities"))
    @pytest.mark.parametrize("fn", (var, tail_split, cvar))
    def test_rejects_non_finite(self, fn, name, value):
        inputs = {"losses": FIVE.copy(), "probabilities": FIVE_P.copy()}
        inputs[name][2] = value
        with pytest.raises(DataError, match=f"^{name} must all be finite"):
            fn(inputs["losses"], inputs["probabilities"], 0.5)

    @given(loss_distributions(), st.sampled_from(("losses", "probabilities")),
           st.sampled_from((np.nan, np.inf, -np.inf)), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_non_finite_entry_is_named(self, drawn, name, value, zero_mass, data):
        """One NaN or +-inf in either input, at any row, a row of zero
        probability included, ends in the exact check's DataError."""
        losses, probs, beta = drawn
        inputs = {"losses": losses.copy(), "probabilities": probs.copy()}
        row = data.draw(st.integers(0, losses.size - 1))
        if zero_mass:
            inputs["probabilities"][row] = 0.0
        inputs[name][row] = value
        with pytest.raises(DataError) as want:
            risk._finite(inputs[name], name)
        for fn in (var, tail_split, cvar):
            with pytest.raises(DataError) as got:
                fn(inputs["losses"], inputs["probabilities"], beta)
            assert str(got.value) == str(want.value)

    @given(st.integers(2, 60), st.booleans(), st.floats(0.0, 0.999), st.data())
    @settings(max_examples=200, deadline=None)
    def test_finite_inputs_whose_dot_product_overflows_pass(self, k, ties, beta, data):
        """Losses near 1e308 with probability weights of at least 1 (a
        Sum(p L) above the largest float) pass the check and select the tail
        the sort-based split selects."""
        big = (st.sampled_from((1e308, 1.25e308, 1.5e308, np.finfo(float).max)) if ties
               else st.floats(1e308, np.finfo(float).max))
        losses = data.draw(arrays(np.float64, k, elements=big))
        probs = data.draw(arrays(np.float64, k, elements=st.floats(1.0, 4.0)))
        assert np.vdot(probs, losses) == np.inf
        got = tail_split(losses, probs, beta)
        want = tail_split_by_sort(losses, probs, beta)
        assert got.var == want.var == var(losses, probs, beta)
        assert got.signature[:2] == want.signature[:2]

    @given(loss_distributions())
    @example((np.full(2, float.fromhex("0x0.0000a7c5ac472p-1022")), np.full(2, 0.5), 0.5))
    @settings(max_examples=400, deadline=None)
    def test_cvar_sums_the_dense_split(self, drawn):
        """``cvar`` sums the selected tail rows alone; the dense split's
        ``weights @ losses``, a sum over every row, is its slow path.  Both
        sum at most K terms of the tail mean, so they agree within K eps
        relative.  A product whose result is subnormal errs by up to half of
        2**-1074 absolute instead: the at most 2K products of the two sums,
        the split atom's two and the two divisions add at most
        (K + 2) 2**-1074 / (1 - beta).  The example's atom of two subnormal
        losses is halved on both paths, which then end 1e-323 apart."""
        losses, probs, beta = drawn
        want = tail_split(losses, probs, beta).weights @ losses / (1.0 - beta)
        tol = (losses.size * np.finfo(float).eps * np.abs(losses).max()
               + (losses.size + 2) * 2.0 ** -1074 / (1.0 - beta))
        assert abs(cvar(losses, probs, beta) - want) <= tol


SAMPLE_ROWS = 4  # the sampled cut at K >= 8
FULL_PARTITION = 10 ** 9  # no sampled cut at any K a test draws


def selection(losses, probs, beta, sample_rows):
    """Rows, VaR, beta_star and CVaR as float bits, with the sampled cut's
    ``_SAMPLE_ROWS`` set to ``sample_rows``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(risk, "_SAMPLE_ROWS", sample_rows)
        _, _, rows, v, beta_star = risk._select_tail(losses, probs, beta)
        return rows, v.hex(), beta_star.hex(), cvar(losses, probs, beta).hex()


@st.composite
def sampled_cut_cases(draw):
    """A ``loss_distributions`` draw of K >= 2 ``SAMPLE_ROWS`` rows whose
    m = floor((1 - beta) K) + 2 is below K, so a cut is selected, with its
    rows in drawn order, sorted up or down, or with every (K // S)-th row, the
    rows the sample reads, raised or lowered by a drawn step."""
    losses, probs, beta = draw(loss_distributions().filter(
        lambda d: d[0].size >= 2 * SAMPLE_ROWS and int((1.0 - d[2]) * d[0].size) + 2 < d[0].size))
    layout = draw(st.sampled_from(("drawn", "ascending", "descending", "period")))
    if layout == "period":
        sampled = np.arange(losses.size) % (losses.size // SAMPLE_ROWS) == 0
        losses = losses + np.where(sampled, draw(st.sampled_from((-2e3, 2e3, 1.0))), 0.0)
    elif layout != "drawn":
        order = np.argsort(losses, kind="stable")
        order = order if layout == "ascending" else order[::-1]
        losses, probs = losses[order], probs[order]
    return losses, probs, beta


class TestSampledCut:
    """The cut guessed from a strided sample against one partition of every loss."""

    @given(sampled_cut_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_full_partition(self, drawn):
        """Ties, unequal masses, sorted rows and rows whose period is the
        sample's stride: the same candidate rows, VaR, beta_star and CVaR,
        bit for bit."""
        losses, probs, beta = drawn
        got = selection(losses, probs, beta, SAMPLE_ROWS)
        want = selection(losses, probs, beta, FULL_PARTITION)
        assert got[0].dtype == want[0].dtype == np.intp
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    @staticmethod
    def partitioned_sizes(monkeypatch, losses, beta):
        sizes = []
        partition = np.partition
        monkeypatch.setattr(np, "partition",
                            lambda a, kth: sizes.append(np.size(a)) or partition(a, kth))
        risk._select_tail(losses, np.full(losses.size, 1.0 / losses.size), beta)
        return sizes

    def test_continuous_losses_take_the_sampled_cut(self, monkeypatch):
        """Every partition is of the sample or of the rows that reach its guess."""
        losses = np.random.default_rng(0).normal(size=4000)
        monkeypatch.setattr(risk, "_SAMPLE_ROWS", 64)
        sizes = self.partitioned_sizes(monkeypatch, losses, 0.95)
        assert len(sizes) == 2 and max(sizes) < losses.size // 4

    def test_guess_above_the_cut_falls_back(self, monkeypatch):
        """The sample reads rows 0, 16, 32 and 48, the four largest losses, so
        its guess is reached by 4 rows, fewer than m = 34: all 64 losses are
        partitioned, and the split is the full partition's."""
        losses = np.arange(64.0)
        losses[::16] = 100.0 + np.arange(4.0)
        probs = np.full(64, 1.0 / 64)
        monkeypatch.setattr(risk, "_SAMPLE_ROWS", SAMPLE_ROWS)
        assert self.partitioned_sizes(monkeypatch, losses, 0.5)[-1] == 64
        got = selection(losses, probs, 0.5, SAMPLE_ROWS)
        want = selection(losses, probs, 0.5, FULL_PARTITION)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1:] == want[1:]


class TestCvarOracle:
    def test_matches_oracle_on_random_distributions(self):
        rng = np.random.default_rng(1234)
        betas = [0.0, 0.5, 0.7, 0.8, 0.95]
        for _ in range(300):
            losses, probs = random_distribution(rng)
            for beta in betas:
                want = cvar_tail_average(losses, probs, beta)
                got = cvar(losses, probs, beta)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_oracle_at_atom_splitting_betas(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            losses, probs = random_distribution(rng)
            cdf = np.cumsum(probs[np.argsort(losses)])
            # beta exactly on a CDF boundary and strictly inside an atom
            for beta in (float(cdf[len(cdf) // 2]), float(cdf[0]) * 0.5):
                if not 0.0 <= beta < 1.0:
                    continue
                want = cvar_tail_average(losses, probs, beta)
                got = cvar(losses, probs, beta)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10 ** 9),
           st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence_property(self, seed, beta):
        losses, probs = random_distribution(np.random.default_rng(seed))
        want = cvar_tail_average(losses, probs, beta)
        got = cvar(losses, probs, beta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestEulerAllocation:
    def test_contributions_sum_to_cvar(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            matrix = random_matrix(rng)
            state = initial_state(matrix, 0.05)
            table = build_losses(matrix)
            beta = float(rng.uniform(0.0, 0.95))
            contrib = risk_contributions(table, state, beta)
            total = cvar(portfolio_losses(table, state), table.probabilities, beta)
            assert contrib.sum() == pytest.approx(total, rel=1e-10, abs=1e-12)

    def test_weighted_dar_sums_to_cvar(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            matrix = random_matrix(rng)
            state = initial_state(matrix, 0.05)
            table = build_losses(matrix)
            beta = float(rng.uniform(0.0, 0.95))
            contrib = risk_contributions(table, state, beta)
            d = dar(contrib, state)
            total = cvar(portfolio_losses(table, state), table.probabilities, beta)
            assert float(state.weights @ d) == pytest.approx(total, rel=1e-10, abs=1e-12)

    def test_dar_nan_for_frozen(self):
        matrix, state = small_portfolio()
        frozen = state.frozen.copy()
        frozen[0] = True
        weights = state.weights.copy()
        weights[0] = 0.0
        state = dataclasses.replace(state, weights=weights, frozen=frozen)
        table = build_losses(matrix)
        d = dar(risk_contributions(table, state, 0.9), state)
        assert np.isnan(d[0])
        assert np.all(np.isfinite(d[1:]))


class TestPiecewiseConstantDar:
    def test_dar_bitwise_stable_within_tail_set(self):
        """DaR depends only on the tail set, not on the weight magnitudes."""
        matrix, state = small_portfolio(seed=3)
        table = build_losses(matrix)
        beta = 0.9
        base_sig = tail_split(portfolio_losses(table, state),
                              table.probabilities, beta).signature
        base_dar = dar(risk_contributions(table, state, beta), state)
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(50):
            bump = dataclasses.replace(
                state, weights=state.weights * (1.0 + rng.uniform(-1e-9, 1e-9, state.n_groups)))
            sig = tail_split(portfolio_losses(table, bump),
                             table.probabilities, beta).signature
            if sig != base_sig:
                continue
            found += 1
            got = dar(risk_contributions(table, bump, beta), bump)
            np.testing.assert_allclose(got, base_dar, rtol=1e-9)
        assert found > 0

    def test_finite_difference_matches_dar(self):
        matrix, state = small_portfolio(seed=8)
        table = build_losses(matrix)
        beta = 0.85
        d = dar(risk_contributions(table, state, beta), state)
        for n in range(state.n_groups):
            fd = finite_difference_dar(table, state, beta, n, 1e-8)
            if fd.kink:
                continue
            assert fd.value == pytest.approx(d[n], rel=1e-5, abs=1e-7)


class TestHomogeneityAndIndices:
    def test_cvar_degree_one_homogeneous(self):
        matrix, state = small_portfolio(seed=9)
        table = build_losses(matrix)
        beta = 0.8
        base = cvar(portfolio_losses(table, state), table.probabilities, beta)
        for lam in (0.5, 2.0, 7.3):
            scaled = dataclasses.replace(state, weights=state.weights * lam)
            got = cvar(portfolio_losses(table, scaled), table.probabilities, beta)
            assert got == pytest.approx(lam * base, rel=1e-12)

    def test_diversification_index_at_most_one(self):
        """CVaR subadditivity: the portfolio tail risk cannot exceed the sum
        of standalone tail risks for nonnegative weights."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            matrix = random_matrix(rng)
            state = initial_state(matrix, 0.05)
            rep = report(build_losses(matrix), state, float(rng.uniform(0.0, 0.95)))
            if rep.cvar > 0:
                assert rep.diversification_index <= 1.0 + 1e-12

    def test_report_identities(self):
        matrix, state = small_portfolio(seed=14)
        table = build_losses(matrix)
        rep = report(table, state, 0.9)
        assert rep.cvar == pytest.approx(
            cvar(portfolio_losses(table, state), table.probabilities, 0.9), rel=1e-14)
        assert rep.revenue == pytest.approx(state.weights.sum())
        assert rep.total_return == pytest.approx(float(state.returns @ state.weights))
        assert rep.total_return_to_risk == pytest.approx(
            rep.total_return * state.base_value / rep.cvar, rel=1e-14)
        for n in range(state.n_groups):
            assert rep.standalone_cvar[n] == pytest.approx(
                standalone_cvar(table, state, n, 0.9), rel=1e-14)


@st.composite
def integer_tables(draw, max_initial=0):
    """A K x N table of small integer losses (ties and atoms) with unequal
    probabilities, and weights that include zeros (frozen) and negatives.

    The initial values are integers in [0, max_initial] and the scenario
    values are initial - losses, so the loss matrix is the drawn losses exactly.
    """
    k = draw(st.integers(1, 30))
    n = draw(st.integers(2, 6))
    losses = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=k, max_size=k))
    initial = np.array(draw(st.lists(st.integers(0, max_initial), min_size=n, max_size=n)),
                       dtype=float)
    mass = np.array(draw(st.lists(st.integers(1, 10), min_size=k, max_size=k)), dtype=float)
    base = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    weight = st.one_of(st.just(0.0), st.floats(-2.0, -0.01), st.floats(0.01, 2.0))
    weights = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    table = LossTable(initial_values=initial, values=initial - np.array(losses, dtype=float),
                      probabilities=mass / mass.sum())
    state = PortfolioState(weights=weights, returns=np.zeros(n), cost_coefficients=np.ones(n),
                           base_value=1.0, base_weights=base, frozen=weights == 0.0)
    return table, state


class TestStandaloneByHomogeneity:
    """``report`` against the per-column slow path it replaces."""

    @given(integer_tables(), st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_report_matches_slow_path(self, drawn, beta1, beta2):
        table, state = drawn
        scale = state.weights / state.base_weights
        # rel 1e-14, with a floor of 1e-14 of the column's largest scaled loss
        # for tails whose sum cancels
        floor = 1e-14 * np.abs(scale) * np.abs(loss_matrix(table)).max(axis=0)
        for beta in (beta1, beta2, beta1):  # the cache is keyed by beta
            rep = report(table, state, beta)
            for n in range(state.n_groups):
                want = standalone_cvar(table, state, n, beta)
                assert rep.standalone_cvar[n] == pytest.approx(want, rel=1e-14, abs=floor[n])
            total = portfolio_losses(table, state)
            size = np.abs(loss_matrix(table) @ np.abs(scale)).max() / (1.0 - beta)
            assert rep.cvar == pytest.approx(cvar(total, table.probabilities, beta),
                                             rel=1e-14, abs=1e-14 * size)
            np.testing.assert_allclose(rep.contributions,
                                       risk_contributions(table, state, beta),
                                       rtol=1e-14, atol=1e-14 * size)

    @given(integer_tables(max_initial=20), st.floats(0.0, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_losses_from_the_factors_match_the_loss_matrix(self, drawn, beta):
        """The losses x0 @ s - V @ s, the contributions and CVaR against the
        explicit Z = x0 - V.  Bound: rel 1e-14, with a floor of 1e-14 of the
        largest scaled term (|x0| + |V|) |s| that a cancelling sum adds up, of
        the row for the losses and CVaR, of the column for the contributions."""
        table, state = drawn
        scale = state.weights / state.base_weights
        terms = (np.abs(table.initial_values) + np.abs(table.values)) * np.abs(scale)
        losses = loss_matrix(table) @ scale
        row_floor = 1e-14 * terms.sum(axis=1)
        got = portfolio_losses(table, state)
        assert np.isclose(got, losses, rtol=1e-14, atol=row_floor).all(), (got, losses)
        rep = report(table, state, beta)
        assert rep.cvar == pytest.approx(cvar(losses, table.probabilities, beta),
                                         rel=1e-14, abs=row_floor.max())
        want = risk_contributions(table, state, beta)
        assert np.isclose(rep.contributions, want, rtol=1e-14,
                          atol=1e-14 * terms.max(axis=0)).all(), (rep.contributions, want)

    def test_negative_weights_match_slow_path(self):
        """Without clamping, weights cross zero and the standalone CVaRs of
        those groups come from cvar(-z)."""
        matrix, state = small_portfolio(seed=0, n=6, k=200)
        cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 kappa_policy=FixedKappas(), beta=0.9, delta_c=0.05,
                                 total_cost=1.0, clamp_nonnegative=False)
        res = run(matrix, state, cfg)
        assert len(res.records) == 21
        assert min(rec.weights.min() for rec in res.records) < 0.0
        table = build_losses(matrix)
        for rec in res.records:
            at = dataclasses.replace(state, weights=rec.weights)
            total = cvar(portfolio_losses(table, at), table.probabilities, cfg.beta)
            standalone = sum(standalone_cvar(table, at, n, cfg.beta)
                             for n in range(at.n_groups))
            assert rec.cvar == pytest.approx(total, rel=1e-14)
            assert rec.diversification_index == pytest.approx(total / standalone, rel=1e-13)

    @given(st.integers(2, 9), st.integers(1, 80), st.sampled_from((1, 2, 3, 5)),
           st.sampled_from((8, 40, 256 * 1024)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_column_blocks_match_per_column_cvar(self, n, k, block, gather_bytes, data):
        """The standalone CVaRs formed in blocks of columns, in row chunks of
        drawn size (K seldom a multiple of one), against ``cvar`` of each
        column x0[n] - V[:, n] or V[:, n] - x0[n], bit for bit.  The scales mix
        signs and zeros, and a first report at other scales leaves some columns
        known, so the columns still needed are not adjacent."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        matrix = random_matrix(rng, n=n, k=k)
        scale_of = st.lists(st.sampled_from((-2.5, -1.0, 0.0, 0.5, 3.0)), min_size=n, max_size=n)
        first, scale = np.array(data.draw(scale_of)), np.array(data.draw(scale_of))
        beta = data.draw(st.sampled_from((0.0, 0.5, 0.9)))
        table = build_losses(matrix)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(risk, "_COLUMN_BLOCK", block)
            patch.setattr(risk, "_GATHER_BYTES", gather_bytes)
            risk._standalone_cvars(table, first, beta)
            got = risk._standalone_cvars(table, scale, beta)
        x0, values, probs = matrix.initial_values, matrix.values, matrix.probabilities
        want = np.abs(scale) * np.array([
            0.0 if s == 0.0 else cvar(x0[i] - values[:, i] if s > 0.0 else values[:, i] - x0[i],
                                      probs, beta)
            for i, s in enumerate(scale)])
        assert got.tobytes() == want.tobytes()

    def test_column_cvars_computed_once_per_run(self, monkeypatch):
        calls = []
        original = risk.cvar
        monkeypatch.setattr(risk, "cvar", lambda *args: calls.append(args) or original(*args))
        matrix, state = small_portfolio(seed=0, n=6)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 kappa_policy=FixedKappas(), beta=0.9, delta_c=1e-3,
                                 total_cost=0.02)
        res = run(matrix, state, cfg)
        assert len(res.records) == 21
        assert len(calls) <= state.n_groups

    def test_no_per_step_scan_of_the_scenarios(self, monkeypatch):
        """A clean table is checked where it enters; no step scans a K-vector
        for finiteness again."""
        matrix, state = small_portfolio(seed=0, n=6, k=300)
        k = matrix.n_scenarios
        scanned = []
        original = risk._finite

        def counting(arr, name):
            if np.size(arr) == k:
                scanned.append(name)
            return original(arr, name)

        monkeypatch.setattr(risk, "_finite", counting)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 kappa_policy=FixedKappas(), beta=0.9, delta_c=1e-3,
                                 total_cost=0.02)
        res = run(matrix, state, cfg)
        assert len(res.records) == 21
        assert scanned == []

    @pytest.mark.parametrize("weight_scale", (1.0, 2.0))
    def test_overflowing_factor_products_are_a_data_error(self, weight_scale):
        """Z @ s is finite in every row, but V @ s overflows in the first; at
        twice the base weights x0 @ s overflows too, and the losses are
        inf - inf.  Either ends in the tail split's DataError, with no warning."""
        big = np.finfo(float).max
        matrix = ScenarioMatrix(initial_values=[0.45 * big, 0.45 * big],
                                values=[[0.9 * big, 0.9 * big], [0.46 * big, 0.44 * big],
                                        [0.44 * big, 0.46 * big], [0.45 * big, 0.43 * big]],
                                probabilities=np.full(4, 0.25))
        state = initial_state(matrix, 0.0)
        state = dataclasses.replace(state, weights=state.weights * weight_scale)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 beta=0.5, delta_c=1e-3, total_cost=0.01)
        with pytest.raises(DataError, match="^losses must all be finite$"):
            run(matrix, state, cfg)

    def test_overflowing_portfolio_losses_are_a_data_error(self):
        """Every cell is finite, but Z @ s overflows in the first row."""
        big = -np.finfo(float).max / 1.5
        matrix = ScenarioMatrix(initial_values=[1.0, 1.0],
                                values=[[big, big], [0.5, 1.5], [1.5, 0.5], [0.9, 1.2]],
                                probabilities=np.full(4, 0.25))
        state = initial_state(matrix, 0.05)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 beta=0.5, delta_c=1e-3, total_cost=0.01)
        with np.errstate(over="ignore"):
            with pytest.raises(DataError, match="^losses must all be finite$"):
                run(matrix, state, cfg)

    def test_frozen_column_is_exactly_zero(self):
        matrix, state = small_portfolio(seed=15)
        weights = state.weights.copy()
        weights[2] = 0.0
        state = dataclasses.replace(state, weights=weights,
                                    frozen=np.arange(state.n_groups) == 2)
        assert report(build_losses(matrix), state, 0.9).standalone_cvar[2] == 0.0

    def test_table_arrays_are_read_only(self):
        losses = np.array([[1.0, 2.0], [3.0, -1.0]])
        initial = np.zeros(2)
        values = -losses
        probs = np.array([0.4, 0.6])
        table = LossTable(initial_values=initial, values=values, probabilities=probs)
        for name, index in (("initial_values", 0), ("values", (0, 0)), ("probabilities", 0)):
            with pytest.raises(ValueError):
                getattr(table, name)[index] = 5.0
        initial[0] = 5.0  # the caller's own arrays stay writeable
        values[0, 0] = 5.0
        probs[0] = 0.5

    def test_table_is_a_view_of_the_matrix(self):
        """``build_losses`` copies nothing, and the table cannot write to the matrix."""
        matrix, _ = small_portfolio(seed=4)
        table = build_losses(matrix)
        for name in ("initial_values", "values", "probabilities"):
            assert np.shares_memory(getattr(table, name), getattr(matrix, name))
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 5.0


@st.composite
def weight_moves(draw, state):
    """Up to six states reached by small moves from ``state``: the same
    weights again, all of them scaled by one factor (every loss scales, ties
    between equal rows stay), each active weight moved by up to 5% or 30%,
    which keeps some tail sets and changes others, or integer scales
    s = w / w_base, whose integer losses tie rows that the next move parts."""
    states = [state]
    for _ in range(draw(st.integers(1, 6))):
        weights = states[-1].weights
        kind = draw(st.sampled_from(("same", "scale", "move", "integer")))
        if kind == "integer":
            scales = draw(arrays(np.float64, weights.size,
                                 elements=st.sampled_from((-2, -1, 1, 2))))
            weights = np.where(weights == 0.0, 0.0, scales * state.base_weights)
        elif kind == "scale":
            weights = weights * draw(st.floats(0.9, 1.1))
        elif kind == "move":
            size = draw(st.sampled_from((0.05, 0.3)))
            moves = draw(arrays(np.float64, weights.size, elements=st.floats(-size, size)))
            weights = weights * (1.0 + moves)
        states.append(states[-1].with_weights(weights))
    return states


def count_report_splits(monkeypatch, log):
    """Log "split" for each ``tail_split`` call.  Only ``report``'s own are
    counted: ``cvar``, behind the standalone column CVaRs, sums the rows it
    selects and builds no ``TailSet``."""
    split = risk.tail_split
    monkeypatch.setattr(risk, "tail_split", lambda *args: log.append("split") or split(*args))


class TestTailMemo:
    """``report`` re-checks the table's last tail set before it splits anew."""

    @given(integer_tables(), st.one_of(st.just(0.0), st.sampled_from((0.5, 0.9)),
                                       st.floats(0.0, 0.99)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_warm_path_matches_a_fresh_table(self, drawn, beta, data):
        """Along small weight moves, one table's reports against reports on a
        fresh table at each state.  The warm path skips only the re-rounding
        of P(L < VaR): VaR and the tail rows are identical, so are the
        contributions and DaR where the split fractions agree, and CVaR,
        beta_star and the diversification index agree within K eps."""
        table, state = drawn
        tol = table.probabilities.size * np.finfo(float).eps
        for at in data.draw(weight_moves(state)):
            warm = report(table, at, beta)
            cold = report(build_losses(table), at, beta)
            assert warm.var == cold.var
            assert warm.tail_signature[:2] == cold.tail_signature[:2]
            if warm.tail_signature[2] == cold.tail_signature[2]:
                np.testing.assert_array_equal(warm.contributions, cold.contributions)
                np.testing.assert_array_equal(warm.dar, cold.dar)
            size = np.abs(portfolio_losses(table, at)).max() / (1.0 - beta)
            assert abs(warm.cvar - cold.cvar) <= tol * size
            assert abs(warm.beta_star - cold.beta_star) <= tol
            np.testing.assert_array_equal(warm.standalone_cvar, cold.standalone_cvar)
            standalone = abs(float(cold.standalone_cvar.sum()))
            if standalone:
                assert (abs(warm.diversification_index - cold.diversification_index)
                        <= tol * size / standalone)
            else:
                assert np.isnan(warm.diversification_index)
                assert np.isnan(cold.diversification_index)

    def test_non_finite_loss_outside_the_tail_is_a_data_error(self):
        """Row 0's loss is finite at the base weights and -inf at 1.3 times
        them, outside the tail, where the other rows still match the tail
        count: only the finiteness test stops the kept tail set."""
        big = np.finfo(float).max
        matrix = ScenarioMatrix(initial_values=[1.0, 1.0],
                                values=[[0.4 * big, 0.4 * big], [0.5, 1.5], [1.5, 0.5],
                                        [0.9, 1.2]],
                                probabilities=np.full(4, 0.25))
        state = initial_state(matrix, 0.0)
        scaled = state.with_weights(state.weights * 1.3)
        table = build_losses(matrix)
        assert np.isfinite(report(table, state, 0.5).cvar)
        with pytest.raises(DataError, match="^losses must all be finite$"):
            report(table, scaled, 0.5)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 beta=0.5, delta_c=1e-3, total_cost=0.01)
        with pytest.raises(DataError, match="^losses must all be finite$"):
            run(matrix, scaled, cfg)

    @given(loss_distributions())
    @settings(max_examples=300, deadline=None)
    def test_memo_rows_are_the_nonzero_tail_weights(self, drawn):
        """The rows a new memo reads from the signature, and their weights,
        are the rows of nonzero weight in the dense split, whether or not the
        split gives the VaR atom a share."""
        losses, probs, beta = drawn
        table = LossTable(initial_values=np.zeros(2), values=np.zeros((losses.size, 2)),
                          probabilities=probs)
        _, (_, _, rows, tail, _) = risk._tail(table, losses, beta)
        weights = tail_split(losses, probs, beta).weights
        np.testing.assert_array_equal(rows, np.flatnonzero(weights))
        assert tail.tobytes() == weights[rows].tobytes()

    def test_memo_keeps_tail_rows_only(self):
        """After a report the memo and the signature hold bytes and arrays
        over the tail rows (or the N groups): no Python int per tail row and
        no K-length vector."""
        matrix, state = small_portfolio(seed=0, n=6, k=300)
        table = build_losses(matrix)
        rep = report(table, state, 0.9)
        signature, beta_star, *arrays = table._tail_memo[0.9]
        assert signature is rep.tail_signature
        assert beta_star == rep.beta_star
        above, at, fraction = signature
        assert type(above) is type(at) is bytes and type(fraction) is float
        tail_rows = (len(above) + len(at)) // np.dtype(np.intp).itemsize
        assert 0 < tail_rows < 300 // 2
        for arr in arrays:
            assert type(arr) is np.ndarray and arr.size <= max(tail_rows, 6)

    @pytest.mark.parametrize("rows_per_chunk", (1, 3))
    def test_chunked_numerator_matches_one_block(self, monkeypatch, rows_per_chunk):
        """The Euler numerator summed over chunks of 1 or 3 gathered rows
        against t @ V[rows] in one block, within rounding of the sums."""
        matrix, state = small_portfolio(seed=3, n=6, k=310)
        table = build_losses(matrix)
        ts = tail_split(portfolio_losses(table, state), table.probabilities, 0.9)
        rows = np.flatnonzero(ts.weights)
        tail = ts.weights[rows]
        assert rows.size % 3  # a last chunk shorter than the others
        block = table.values[rows]
        want = tail.sum() * table.initial_values - tail @ block
        size = tail.sum() * np.abs(table.initial_values) + tail @ np.abs(block)
        default = report(build_losses(matrix), state, 0.9)
        monkeypatch.setattr(risk, "_GATHER_BYTES", rows_per_chunk * table.values[0].nbytes)
        got = risk._euler_numerator(table, rows, tail)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=rows.size * np.finfo(float).eps * size.max())
        chunked = report(build_losses(matrix), state, 0.9)
        assert chunked.tail_signature == default.tail_signature
        scale = (state.weights / state.base_weights) / (1.0 - 0.9)
        np.testing.assert_allclose(chunked.contributions, default.contributions, rtol=0.0,
                                   atol=rows.size * np.finfo(float).eps
                                   * (size * np.abs(scale)).max())

    @pytest.mark.parametrize("fixed_total_risk", (False, True))
    def test_warm_path_fires(self, monkeypatch, fixed_total_risk):
        """``report`` splits once, then once per step whose tail set differs
        from the last record's; the report after a fixed-risk rescale never
        splits, since scaling every weight scales every loss."""
        log = []
        count_report_splits(monkeypatch, log)
        rescale = continuation.rescale_fixed_risk
        monkeypatch.setattr(continuation, "rescale_fixed_risk",
                            lambda *args: log.append("rescale") or rescale(*args))
        matrix, state = small_portfolio(seed=0, n=6, k=300)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 kappa_policy=FixedKappas(), beta=0.9, delta_c=1e-3,
                                 total_cost=0.02, steady_state_tol=0.0,
                                 fixed_total_risk=fixed_total_risk)
        res = run(matrix, state, cfg)
        assert len(res.records) == 21
        signatures = [rec.tail_signature for rec in res.records]
        changes = sum(a != b for a, b in zip(signatures, signatures[1:]))
        assert log.count("split") == 1 + changes < len(res.records)
        assert log.count("rescale") == (20 if fixed_total_risk else 0)
        assert ("rescale", "split") not in zip(log, log[1:])


class TestMemory:
    """No K x N array is formed during a run, a report or the checks of a new
    matrix: on a K=20,000, N=50 table (8 MB) the traced peak stays below a
    stated share of the table's size."""

    @pytest.fixture(scope="class")
    def portfolio(self):
        return small_portfolio(seed=5, n=50, k=20_000)

    @staticmethod
    def traced(call):
        """``call()`` and the peak of the memory it allocated."""
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_run(self, portfolio):
        matrix, state = portfolio
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 beta=0.9, delta_c=1e-3, total_cost=5e-3)
        result, peak = self.traced(lambda: run(matrix, state, cfg))
        assert len(result.records) == 6
        assert peak < matrix.values.nbytes / 2

    def test_report(self, portfolio):
        """The ``analyze`` path once the file is read."""
        matrix, state = portfolio
        _, peak = self.traced(lambda: report(build_losses(matrix), state, 0.9))
        assert peak < matrix.values.nbytes / 2

    def test_records_keep_8_bytes_per_tail_row(self, portfolio):
        """What a run's result keeps once it returns.  Each record holds N
        floats and its fields (at most 4 KiB besides), plus its tail
        signature: 8 B per tail row when its tail set is new, shared while
        the set stands.  The tail is at most floor((1 - beta) K) + 2 rows
        here (continuous losses: one atom row).  A Python int per tail row,
        28 B plus an 8 B tuple slot, breaks this bound."""
        matrix, state = portfolio
        beta, n, k = 0.9, matrix.n_groups, matrix.n_scenarios
        tail_rows = int((1.0 - beta) * k) + 2
        bound = 6 * (8 * tail_rows + 8 * n + 4096)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 beta=beta, delta_c=1e-3, total_cost=5e-3)
        tracemalloc.start()
        try:
            result = run(matrix, state, cfg)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result.records) == 6
        assert kept < bound

    def test_matrix_checks(self, portfolio):
        """The finiteness and identical-column checks of a new matrix form
        no K x N array: the peak stays below 1/16 of the table."""
        matrix, _ = portfolio
        _, peak = self.traced(lambda: ScenarioMatrix(
            initial_values=matrix.initial_values, values=matrix.values,
            probabilities=matrix.probabilities))
        assert peak < matrix.values.nbytes / 16


class TestValidation:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(DataError):
            ScenarioMatrix(initial_values=[1.0, 1.0],
                           values=[[0.5, 1.5], [1.5, 0.5]],
                           probabilities=[0.6, 0.6])
        with pytest.raises(DataError):
            ScenarioMatrix(initial_values=[1.0, 1.0],
                           values=[[0.5, 1.5], [1.5, 0.5]],
                           probabilities=[1.0, 0.0])

    def test_rejects_nonpositive_initials(self):
        with pytest.raises(DataError):
            ScenarioMatrix(initial_values=[1.0, 0.0],
                           values=[[0.5, 1.5], [1.5, 0.5]],
                           probabilities=[0.5, 0.5])

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("name", ("initial_values", "values", "probabilities"))
    def test_rejects_non_finite(self, name, value):
        arrays = {"initial_values": np.array([1.0, 1.0]),
                  "values": np.array([[0.5, 1.5], [1.5, 0.5]]),
                  "probabilities": np.array([0.5, 0.5])}
        arrays[name].flat[0] = value
        with pytest.raises(DataError, match=f"^{name} must all be finite"):
            ScenarioMatrix(**arrays)

    @pytest.mark.parametrize("returns,costs,name", [
        ([0.05, np.nan, 0.02], None, "returns"),
        (0.05, [1.0, np.nan, 1.0], "cost_coefficients"),
    ])
    def test_state_rejects_non_finite(self, returns, costs, name):
        matrix = random_matrix(np.random.default_rng(2), n=3)
        with pytest.raises(DataError, match=f"^{name} must all be finite"):
            initial_state(matrix, returns, costs)

    @pytest.mark.parametrize("returns,costs,message", [
        (0.05, 0.0, "cost_coefficients must be strictly positive"),
        (0.05, 1e-300, "cost_coefficients squared must be finite and nonzero"),  # c*c is 0
        (0.05, 1e200, "cost_coefficients squared must be finite and nonzero"),  # 1/(c*c) is 0
        (1e308, None, "returns times the base value .* must be finite"),
    ])
    def test_state_rejects_values_a_step_cannot_use(self, returns, costs, message):
        matrix = random_matrix(np.random.default_rng(2), n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{message}"):
                initial_state(matrix, returns, costs)

    def test_initial_values_must_sum_to_a_finite_total(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^initial_values must sum to a finite total$"):
                ScenarioMatrix(initial_values=[1e308, 1e308],
                               values=[[0.5, 1.5], [1.5, 0.5]],
                               probabilities=[0.5, 0.5])

    def test_finite_values_whose_sum_overflows_pass(self):
        """The sum that screens for finiteness overflows; the exact scan
        that follows passes the matrix, without a warning."""
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = ScenarioMatrix(initial_values=[1.0, 1.0],
                                    values=[[big, big], [big, -big], [0.5, 1.5]],
                                    probabilities=[0.25, 0.25, 0.5])
        assert matrix.n_scenarios == 3

    def test_rejects_identical_columns(self):
        with pytest.raises(DataError):
            ScenarioMatrix(initial_values=[1.0, 1.0],
                           values=[[0.5, 0.5], [1.5, 1.5]],
                           probabilities=[0.5, 0.5])

    def test_one_differing_column_passes(self):
        """Columns are compared with the first until one differs."""
        with pytest.raises(DataError, match="^all scenario columns are identical$"):
            ScenarioMatrix(initial_values=[1.0, 1.0, 1.0],
                           values=[[0.5, 0.5, 0.5], [1.5, 1.5, 1.5]],
                           probabilities=[0.5, 0.5])
        matrix = ScenarioMatrix(initial_values=[1.0, 1.0, 1.0],
                                values=[[0.5, 0.5, 0.5], [1.5, 1.5, 1.25]],
                                probabilities=[0.5, 0.5])
        assert matrix.n_groups == 3

    def test_default_group_ids(self):
        matrix = random_matrix(np.random.default_rng(0), n=3)
        assert matrix.group_ids == ("g1", "g2", "g3")

    def test_initial_state_weights_sum_to_one(self):
        matrix = random_matrix(np.random.default_rng(1))
        state = initial_state(matrix, 0.05)
        assert state.revenue == pytest.approx(1.0, abs=1e-12)
