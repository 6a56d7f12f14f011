"""Path driver: stepping, clamping, rescaling, termination, convergence."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cvarpath import continuation
from cvarpath import (
    ConfigError,
    ConstraintMode,
    ConstraintVariant,
    ContinuationConfig,
    DataError,
    DomainError,
    ExtremumAutopilot,
    FixedKappas,
    ObjectiveKind,
    PathParams,
    PortfolioError,
    PortfolioState,
    ScenarioMatrix,
    apply_step,
    build_losses,
    convergence_study,
    cvar,
    initial_state,
    portfolio_losses,
    rescale_fixed_risk,
    run,
)
from conftest import small_portfolio

REV = ConstraintMode(ConstraintVariant.REVENUE_ONLY)
NONE = ConstraintMode(ConstraintVariant.NONE_ACTIVE)


def dominance_matrix():
    """Two groups, identical loss shape, group 2 twice as lossy as group 1."""
    rng = np.random.default_rng(4)
    k = 200
    shocks = np.abs(rng.normal(0.0, 1.0, k)) + 0.1
    initial = np.array([10.0, 10.0])
    losses = np.column_stack([shocks, 2.0 * shocks])
    values = initial[None, :] - losses
    return ScenarioMatrix(initial_values=initial, values=values,
                          probabilities=np.full(k, 1.0 / k))


class TestRunBasics:
    def test_zero_steps_single_record(self):
        matrix, state = small_portfolio()
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.0)
        res = run(matrix, state, cfg)
        assert len(res.records) == 1
        assert res.records[0].step == 0
        np.testing.assert_array_equal(res.terminal_state.weights, state.weights)

    def test_initial_ratios_are_one(self):
        matrix, state = small_portfolio()
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.01)
        rec0 = run(matrix, state, cfg).records[0]
        for value in (rec0.cvar_rel, rec0.return_rel, rec0.revenue_rel,
                      rec0.di_rel, rec0.re2ri_rel):
            assert value == pytest.approx(1.0, abs=1e-15)

    def test_cost_grid_and_budget_accounting(self):
        matrix, state = small_portfolio()
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.02)
        res = run(matrix, state, cfg)
        for rec in res.records:
            assert rec.c == pytest.approx(rec.step * cfg.delta_c, abs=1e-12)
        executed = len(res.records) - 1
        assert res.terminal_record.c == pytest.approx(executed * cfg.delta_c, abs=1e-12)

    def test_dominated_group_is_sold_down(self):
        """With equal returns and one strictly lossier group, weight flows
        monotonically to the dominating group until the other clamps."""
        matrix = dominance_matrix()
        state = initial_state(matrix, 0.05)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=5e-3, total_cost=2.0)
        res = run(matrix, state, cfg)
        w2 = [rec.weights[1] for rec in res.records]
        assert all(b <= a + 1e-15 for a, b in zip(w2, w2[1:]))
        assert res.reason in ("steady-state", "infeasible-step")
        assert res.terminal_state.frozen[1]
        assert res.terminal_state.weights[1] == 0.0
        # grid search over the revenue-preserving slice w = (1 - t, t)
        table = build_losses(matrix)

        def slice_cvar(t):
            scale = np.array([1.0 - t, t]) / state.base_weights
            losses = table.group_losses @ scale
            return float(cvar(losses, table.probabilities, 0.9))

        best = min((slice_cvar(t), t) for t in np.linspace(0.0, 0.5, 201))
        assert best[1] == 0.0  # the slice optimum drops group 2 entirely
        # terminal CVaR matches the slice optimum scaled to the terminal revenue
        w1 = res.terminal_state.weights[0]
        assert res.terminal_record.cvar == pytest.approx(w1 * best[0], rel=1e-9)


class TestBookkeeping:
    def test_revenue_changes_by_kappa1_rate(self):
        matrix, state = small_portfolio(seed=21)
        kappa1 = 0.4
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(kappa1=kappa1), beta=0.9,
                                 delta_c=1e-4, total_cost=0.005)
        res = run(matrix, state, cfg)
        for prev, cur in zip(res.records, res.records[1:]):
            if cur.clamped_ids:
                break  # clamping rounds the crossing weight to zero
            got = cur.weights.sum() - prev.weights.sum()
            assert got == pytest.approx(cfg.delta_c * kappa1, abs=1e-10)

    def test_clamped_components_never_return(self):
        matrix = dominance_matrix()
        state = initial_state(matrix, 0.05)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=5e-3, total_cost=2.0)
        res = run(matrix, state, cfg)
        clamped_at = None
        for rec in res.records:
            if clamped_at is None and rec.frozen_count:
                clamped_at = rec.step
            if clamped_at is not None:
                assert rec.weights[1] == 0.0

    def test_max_return_is_monotone(self):
        matrix, state = small_portfolio(seed=33)
        cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN, mode=NONE,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.05)
        res = run(matrix, state, cfg)
        returns = [rec.total_return for rec in res.records]
        assert all(b >= a - 1e-15 for a, b in zip(returns, returns[1:]))

    def test_fixed_total_risk_holds_cvar(self):
        matrix, state = small_portfolio(seed=35)
        cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN, mode=NONE,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.05, fixed_total_risk=True)
        res = run(matrix, state, cfg)
        base = res.records[0].cvar
        for rec in res.records:
            assert abs(rec.cvar / base - 1.0) <= 1e-6


class TestStepPrimitives:
    def test_apply_step_clamps_to_exact_zero(self):
        _, state = small_portfolio()
        y = np.zeros(state.n_groups)
        y[0] = -(state.weights[0] / 1e-3) * 1.5  # overshoot through zero
        new, clamped = apply_step(state, y, 1e-3, clamp_nonnegative=True)
        assert clamped == (0,)
        assert new.weights[0] == 0.0
        assert new.frozen[0]
        np.testing.assert_allclose(new.weights[1:], state.weights[1:] + 1e-3 * y[1:])

    def test_apply_step_without_clamp(self):
        _, state = small_portfolio()
        y = np.zeros(state.n_groups)
        y[0] = -(state.weights[0] / 1e-3) * 1.5
        new, clamped = apply_step(state, y, 1e-3, clamp_nonnegative=False)
        assert clamped == ()
        assert new.weights[0] < 0.0

    def test_frozen_components_do_not_move(self):
        _, state = small_portfolio()
        frozen = state.frozen.copy()
        frozen[2] = True
        weights = state.weights.copy()
        weights[2] = 0.0
        state = dataclasses.replace(state, weights=weights, frozen=frozen)
        new, _ = apply_step(state, np.ones(state.n_groups), 1e-3, True)
        assert new.weights[2] == 0.0

    def test_rescale_factor(self):
        _, state = small_portfolio()
        new, factor = rescale_fixed_risk(state, 2.0, 4.0)
        assert factor == pytest.approx(0.5)
        np.testing.assert_allclose(new.weights, state.weights * 0.5)


@st.composite
def states_and_weights(draw):
    """A valid state with some groups frozen, plus new weights and maybe a new
    frozen mask; the new weights may hold zeros, NaN or +-inf."""
    n = draw(st.integers(2, 8))

    def vector(lo, hi):
        return draw(arrays(np.float64, n, elements=st.floats(lo, hi)))

    frozen = draw(arrays(np.bool_, n))
    state = PortfolioState(weights=np.where(frozen, 0.0, vector(0.01, 2.0)),
                           returns=vector(-0.1, 0.2), cost_coefficients=vector(0.5, 2.0),
                           base_value=draw(st.floats(1.0, 1e3)),
                           base_weights=vector(0.01, 1.0), frozen=frozen)
    entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from((0.0, np.nan, np.inf, -np.inf)))
    new_weights = draw(arrays(np.float64, n, elements=entry))
    new_frozen = draw(st.one_of(st.none(), arrays(np.bool_, n)))
    return state, new_weights, new_frozen


def outcome(build):
    """The state ``build()`` makes, or the type and message of what it raises."""
    try:
        return build()
    except PortfolioError as exc:
        return type(exc), str(exc)


class TestLeanState:
    """``with_weights`` against a fully checked ``PortfolioState(...)``."""

    @given(states_and_weights())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_checked_constructor(self, drawn):
        state, weights, frozen = drawn
        got = outcome(lambda: state.with_weights(weights.copy(), frozen))
        want = outcome(lambda: dataclasses.replace(
            state, weights=weights.copy(), frozen=state.frozen if frozen is None else frozen))
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, PortfolioState)
        for field in dataclasses.fields(PortfolioState):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b)
            np.testing.assert_array_equal(a, b)
            assert np.asarray(a).dtype == np.asarray(b).dtype

    def test_step_to_exact_zero_without_clamp(self):
        _, state = small_portfolio()
        y = np.zeros(state.n_groups)
        y[0] = -state.weights[0]  # delta_c = 1, so the new weight is exactly 0
        with pytest.raises(DomainError, match="^active weight components must be nonzero$"):
            apply_step(state, y, 1.0, clamp_nonnegative=False)

    @pytest.mark.parametrize("sign,clamp", ((1.0, True), (1.0, False), (-1.0, False)))
    def test_step_to_infinity(self, sign, clamp):
        """Under clamping a weight driven to -inf is clamped to 0, not an error."""
        _, state = small_portfolio()
        y = np.zeros(state.n_groups)
        y[1] = sign * 1e308
        with np.errstate(over="ignore"), \
                pytest.raises(DataError, match="^weights must all be finite$"):
            apply_step(state, y, 1e10, clamp_nonnegative=clamp)

    def test_rescale_to_infinity(self):
        _, state = small_portfolio()
        with np.errstate(over="ignore"), \
                pytest.raises(DataError, match="^weights must all be finite$"):
            rescale_fixed_risk(state, 1e308, 1e-308)


class TestTermination:
    def test_steady_state_detection(self):
        """A tolerance above every per-step change trips the window counter."""
        matrix, state = small_portfolio(seed=41)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-4, total_cost=0.05,
                                 steady_state_tol=1e9, steady_state_window=5)
        res = run(matrix, state, cfg)
        assert res.reason == "steady-state"
        assert len(res.records) == 6

    def test_infeasible_rates_terminate(self):
        matrix, state = small_portfolio(seed=43)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(kappa1=1e6), beta=0.9,
                                 delta_c=1e-3, total_cost=0.01)
        res = run(matrix, state, cfg)
        assert res.reason == "infeasible-step"
        assert len(res.records) == 1

    def test_budget_termination(self):
        matrix, state = small_portfolio(seed=47)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.005, steady_state_tol=0.0)
        res = run(matrix, state, cfg)
        assert res.reason == "budget"
        assert res.terminal_record.step == 5

    @pytest.mark.parametrize("fixed_total_risk", (False, True))
    def test_all_clamped_termination(self, fixed_total_risk):
        """A revenue rate of -1.3 makes both components of y negative, so one
        long step drives both weights through zero."""
        matrix = dominance_matrix()
        state = initial_state(matrix, 0.05)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(kappa1=-1.3), beta=0.9,
                                 delta_c=10.0, total_cost=50.0,
                                 fixed_total_risk=fixed_total_risk)
        res = run(matrix, state, cfg)
        assert res.reason == "all-clamped"
        assert len(res.records) == 2
        last = res.terminal_record
        assert last.step == 1
        assert last.frozen_count == 2
        assert last.clamped_ids == (0, 1)
        assert last.rescale_factor == 1.0
        assert last.cvar == 0.0
        np.testing.assert_array_equal(last.weights, 0.0)

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    @pytest.mark.parametrize("name", ("beta", "delta_c", "total_cost", "steady_state_tol"))
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, **{name: value})

    def test_delta_c_too_small_for_the_step_count(self):
        with pytest.raises(ConfigError, match="delta_c"):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, delta_c=1e-320,
                               total_cost=0.1)
        # a zero budget needs no steps, however small the step
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, delta_c=1e-320,
                                 total_cost=0.0)
        assert cfg.n_steps == 0

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
    @pytest.mark.parametrize("name", ("kappa1", "kappa2"))
    def test_non_finite_fixed_rates_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                               kappa_policy=FixedKappas(**{name: value}))

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ConfigError, match="max_steps must be non-negative, got -5"):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, max_steps=-5)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, max_steps=0)
        assert cfg.n_steps == 0

    @pytest.mark.parametrize("window", (0, -3))
    def test_steady_window_below_one_rejected(self, window):
        with pytest.raises(ConfigError, match="steady_state_window must be at least 1"):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                               steady_state_window=window)

    def test_step_count_ceiling(self):
        """At most 10^6 steps, counted after max_steps; the error names both keys."""
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, delta_c=1e-6,
                                 total_cost=1.0)
        assert cfg.n_steps == 10**6
        for delta_c in (1e-300, 0.999e-6):
            with pytest.raises(ConfigError, match=r"delta_c .* raise delta_c or set max_steps"):
                ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                   delta_c=delta_c, total_cost=1.0, steady_state_tol=0.0)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, delta_c=1e-300,
                                 total_cost=1.0, max_steps=10)
        assert cfg.n_steps == 10

    def test_fixed_kappas_are_the_path_params(self):
        """One rates type: a fixed policy is the step's rates, recorded as they are."""
        assert FixedKappas is PathParams
        matrix, state = small_portfolio()
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(kappa1=-0.5), beta=0.9,
                                 delta_c=1e-3, total_cost=0.003)
        res = run(matrix, state, cfg)
        assert [(r.kappa1, r.kappa2) for r in res.records] == [(0.0, 0.0)] + [(-0.5, 0.0)] * 3

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, delta_c=0.0)
        with pytest.raises(ConfigError):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, beta=1.0)
        with pytest.raises(ConfigError):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                               mode=ConstraintMode(ConstraintVariant.BOTH, "risk"))


class TestConvergence:
    def base_config(self):
        return ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                  kappa_policy=FixedKappas(), beta=0.9,
                                  delta_c=1e-3, total_cost=0.01, steady_state_tol=0.0)

    def test_equal_step_sizes_rejected(self):
        matrix, state = small_portfolio(seed=51)
        with pytest.raises(ConfigError):
            convergence_study(matrix, state, self.base_config(),
                              [1e-2, 1e-2, 1e-3], 0.01)
        with pytest.raises(ConfigError):
            convergence_study(matrix, state, self.base_config(), [1e-2, 1e-3], 0.01)

    def test_reference_row_has_no_error(self):
        matrix, state = small_portfolio(seed=53)
        table = convergence_study(matrix, state, self.base_config(),
                                  [1e-2, 1e-3, 1e-4], 0.01)
        assert np.isnan(table.rows[-1].error)
        assert all(np.isfinite(row.error) for row in table.rows[:-1])

    def test_domain_errors_become_failed_rows(self, monkeypatch):
        matrix, state = small_portfolio(seed=55)
        real_run = continuation.run

        def fail_coarse(scenarios, state0, config):
            if config.delta_c > 1e-3:
                raise DomainError("too coarse")
            return real_run(scenarios, state0, config)

        monkeypatch.setattr(continuation, "run", fail_coarse)
        table = convergence_study(matrix, state, self.base_config(),
                                  [1e-2, 1e-3, 1e-4], 0.01)
        assert table.rows[0].failed and "too coarse" in table.rows[0].reason
        assert not table.rows[1].failed

    def test_programming_errors_propagate(self, monkeypatch):
        matrix, state = small_portfolio(seed=55)

        def broken(scenarios, state0, config):
            raise TypeError("a bug, not a failed run")

        monkeypatch.setattr(continuation, "run", broken)
        with pytest.raises(TypeError, match="a bug"):
            convergence_study(matrix, state, self.base_config(), [1e-2, 1e-3, 1e-4], 0.01)

    def test_exact_linear_error_fits_slope_one(self):
        """Log-log regression recovers the exponent of an exact power law."""
        deltas = np.array([1e-2, 1e-3, 1e-4])
        errors = 3.7 * deltas  # error = A * delta_c exactly
        slope = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
        assert slope == pytest.approx(1.0, abs=1e-12)
