"""Path driver: stepping, clamping, rescaling, termination, convergence."""
import dataclasses
import math
import re

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
    generate,
    ObjectiveKind,
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
from cvarpath import projection, risk
from conftest import flagship_returns, flagship_spec, small_portfolio
from oracle import loss_matrix, min_cvar_lp, report_reference

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
            losses = loss_matrix(table) @ scale
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

    @pytest.mark.parametrize("length", (1, 7))
    def test_frozen_mask_of_another_length(self, length):
        """The constructor and ``with_weights`` both reject it; one of length 1
        would otherwise broadcast over the 6 weights."""
        _, state = small_portfolio()
        frozen = np.zeros(length, dtype=bool)
        message = "^frozen mask length does not match weights$"
        with pytest.raises(DataError, match=message):
            dataclasses.replace(state, frozen=frozen)
        with pytest.raises(DataError, match=message):
            state.with_weights(state.weights.copy(), frozen)

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

    def test_fixed_total_risk_is_not_steady(self):
        """The rescale pins CVaR, so the window counts each step's change
        before it: weights that still move do not end the run."""
        matrix, state = small_portfolio(seed=35)
        cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN, mode=NONE,
                                 delta_c=1e-3, total_cost=0.2, fixed_total_risk=True)
        res = run(matrix, state, cfg)
        assert res.reason == "budget"
        assert res.terminal_record.step == 200
        assert max(abs(rec.cvar_rel - 1.0) for rec in res.records) < 1e-12

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

    @pytest.mark.parametrize("name", ("beta", "delta_c", "total_cost", "steady_state_tol",
                                      "kappa1", "kappa2"))
    def test_integers_outside_the_float_range_rejected(self, name):
        """An integer too large for a float is named, not an ``OverflowError``;
        a fixed rate is refused where its ``FixedKappas`` is built."""
        value = -10**400 if name == "kappa2" else 10**400
        with pytest.raises(ConfigError, match=rf"^{name} -?10+ is outside the float range$"):
            fields = ({"kappa_policy": FixedKappas(**{name: value})} if name.startswith("kappa")
                      else {name: value})
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, **fields)

    @pytest.mark.parametrize("fields,message", [
        ({"kappa1": float("inf")}, "kappa1 must be finite, got inf"),
        ({"kappa2": -10**400}, f"kappa2 {-10**400} is outside the float range"),
        ({"kappa1": "0.1"}, "kappa1 must be a real number, got '0.1'"),
        ({"kappa1": True}, "kappa1 must be a real number, got True")],
        ids=("inf", "outside-float-range", "string", "bool"))
    def test_fixed_kappas_check_their_own_rates(self, fields, message):
        """Fixed rates are checked where they are built, with no config around them."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            FixedKappas(**fields)

    @pytest.mark.parametrize("name,value", [
        ("variant", "both"), ("objective", "min_risk"), ("mode", "both"), ("beta", "0.95"),
        ("delta_c", None), ("kappa1", "0.1"), ("kappa2", 1j), ("fixed_revenue", "no"),
        ("fixed_second", 1), ("clamp_nonnegative", "no"), ("fixed_total_risk", "no"),
        ("delta_c", True), ("steady_state_tol", False), ("kappa1", True), ("kappa2", False),
        ("max_steps", True), ("steady_state_window", True)])
    def test_mistyped_values_rejected(self, name, value):
        """A value of the wrong type is named, not run with (a string variant
        once ran with no constraint rows, a string flag counted as true, and
        a bool ran as the number or count 1 or 0)."""
        make = {"variant": ConstraintMode, "kappa1": FixedKappas, "kappa2": FixedKappas,
                "fixed_revenue": ExtremumAutopilot, "fixed_second": ExtremumAutopilot}.get(
            name, lambda **kw: ContinuationConfig(
                **{"objective": ObjectiveKind.MIN_RISK, "mode": REV, **kw}))
        with pytest.raises(ConfigError, match=rf"^{name} must be an? [\w ]+, "
                                              rf"got {re.escape(repr(value))}$"):
            make(**{name: value})

    def test_numpy_scalars_and_integers_accepted(self):
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.BOTH),
                                 kappa_policy=ExtremumAutopilot(np.True_, False),
                                 beta=np.float64(0.9), delta_c=np.float32(0.5), total_cost=1,
                                 clamp_nonnegative=np.True_)
        assert cfg.kappa_policy.fixed_revenue and cfg.n_steps == 2
        assert FixedKappas(np.int64(1), np.float64(-0.5)).kappa2 == -0.5

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

    @pytest.mark.parametrize("value", (2.5, float("nan"), "3"))
    @pytest.mark.parametrize("name", ("max_steps", "steady_state_window"))
    def test_non_integral_counts_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, **{name: value})

    @pytest.mark.parametrize("name", ("max_steps", "steady_state_window"))
    def test_numpy_integer_counts_accepted(self, name):
        matrix, state = small_portfolio()
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, beta=0.9,
                                 delta_c=1e-3, total_cost=0.003, **{name: np.int64(2)})
        assert len(run(matrix, state, cfg).records) == 1 + min(cfg.n_steps, 3)

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

    def test_fixed_kappas_are_the_recorded_rates(self):
        """A fixed policy is the step's rates, recorded as they are."""
        matrix, state = small_portfolio()
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(kappa1=-0.5), beta=0.9,
                                 delta_c=1e-3, total_cost=0.003)
        res = run(matrix, state, cfg)
        assert [(r.kappa1, r.kappa2) for r in res.records] == [(0.0, 0.0)] + [(-0.5, 0.0)] * 3

    @pytest.mark.parametrize("policy", ("bogus", None, FixedKappas, ExtremumAutopilot))
    def test_unknown_kappa_policy_rejected(self, policy):
        """A policy that is neither fixed rates nor the autopilot (a class
        itself included) is refused where it enters, though no step would
        read it."""
        with pytest.raises(ConfigError, match="^kappa_policy must be a FixedKappas or an "
                                              "ExtremumAutopilot, got "):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                               kappa_policy=policy, total_cost=0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, delta_c=0.0)
        with pytest.raises(ConfigError):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV, beta=1.0)
        with pytest.raises(ConfigError):
            ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                               mode=ConstraintMode(ConstraintVariant.BOTH, "risk"))


RECORD_FIELDS = [f.name for f in dataclasses.fields(continuation.PathRecord)
                 if f.name not in ("clamped_ids", "tail_signature")]


def assert_same_path(name, got, want, rtol):
    """Agree to rtol of the largest magnitude along the path: where a weight
    passes near zero unclamped, the few-ulp rounding of the larger weights
    stays in absolute terms."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
    scale = np.nanmax(np.abs(want), initial=0.0)
    error = np.nanmax(np.abs(got - want), initial=0.0)
    assert error <= rtol * scale, f"{name}: off by {error:.3e} at scale {scale:.3e}"


def assert_same_records(got, want, rtol=None):
    """Every field of two runs' records agrees bit for bit, or with ``rtol``
    its float fields within that relative tolerance."""
    assert len(got) == len(want)
    for a_rec, b_rec in zip(got, want):
        for field in dataclasses.fields(continuation.PathRecord):
            a, b = getattr(a_rec, field.name), getattr(b_rec, field.name)
            if isinstance(a, (tuple, int)):
                assert a == b, (a_rec.step, field.name)
            elif rtol is None:
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (a_rec.step,
                                                                             field.name)
            else:
                np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0,
                                           err_msg=f"step {a_rec.step} {field.name}")


@st.composite
def linear_paths(draw):
    """A small table and a min-risk or max-return path of 100-200 steps."""
    n, k = draw(st.integers(4, 10)), draw(st.integers(200, 500))
    matrix, state = small_portfolio(seed=draw(st.integers(0, 2**32 - 1)), n=n, k=k)
    # cheaper moves take longer steps, so some paths clamp within their budget
    state = initial_state(matrix, state.returns, draw(st.sampled_from((1.0, 0.1))))
    objective = draw(st.sampled_from((ObjectiveKind.MIN_RISK, ObjectiveKind.MAX_RETURN)))
    second = "return" if objective is ObjectiveKind.MIN_RISK else "risk"
    mode = ConstraintMode(draw(st.sampled_from(ConstraintVariant)), second)
    if draw(st.booleans()):
        policy = ExtremumAutopilot(fixed_revenue=draw(st.booleans()),
                                   fixed_second=draw(st.booleans()))
    else:
        policy = FixedKappas(kappa1=draw(st.floats(-0.3, 0.3)),
                             kappa2=draw(st.floats(-0.01, 0.01)))
    config = ContinuationConfig(objective=objective, mode=mode, kappa_policy=policy,
                                beta=0.9, delta_c=1e-3, total_cost=1.0, steady_state_tol=0.0,
                                max_steps=draw(st.integers(100, 200)),
                                clamp_nonnegative=draw(st.booleans()),
                                fixed_total_risk=draw(st.booleans()))
    return matrix, state, config


def count_solves(monkeypatch):
    """Count the ``solve_step`` calls ``run`` makes; returns the growing list."""
    calls = []
    solve = continuation.solve_step

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(continuation, "solve_step", counted)
    return calls


def misses(keys):
    """How many keys are not among the last two distinct keys before them:
    the solves of a two-entry cache that keeps the keys it last used."""
    recent, count = [], 0
    for key in keys:
        if key in recent:
            recent.remove(key)
        else:
            count += 1
        recent = [key] + recent[:1]
    return count


class TestStepReuse:
    """A step reuses the solve of its segment, one of the last two tail sets,
    while the tail set and frozen mask stand, on the min-risk and max-return
    rows only."""

    @given(linear_paths())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_recomputing_path(self, drawn):
        """A report that ignores the known tail pairs splits anew each time,
        so every step of that path solves: the path that recomputes is the
        oracle of the path that reuses."""
        matrix, state, config = drawn
        reused = run(matrix, state, config)
        fresh_report, solve = continuation.report, continuation.solve_step
        amplification = []

        def measured_solve(consts, *args):
            sol = solve(consts, *args)
            amplification.append(math.sqrt(max(consts.F, sol.a0) / sol.a0) - 1.0 / sol.a2)
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuation, "report", lambda table, at, beta, losses=None, known=():
                       fresh_report(table, at, beta, losses))
            mp.setattr(continuation, "solve_step", measured_solve)
            recomputed = run(matrix, state, config)
        assert len(amplification) == len(recomputed.records) - 1
        # A solve amplifies rounding by its two cancellations: P = f - lam.rows
        # leaves sqrt(a0) of |f| = sqrt(F), and a2 = kappa.mu - 1 cancels as
        # the rates near the cost ellipsoid (at the free extremum, a2 = -a0/F).
        # Both grow where the path chatters across a kink, and the amplified
        # rounding adds up along the path.  Over 4,000 drawn paths the worst
        # error was 4.5e-16 of the sum, and 15 exceeded a flat 1e-12.
        rtol = max(1e-12, 1e-14 * sum(amplification))
        assert reused.reason == recomputed.reason
        assert len(reused.records) == len(recomputed.records)
        for name in RECORD_FIELDS:
            assert_same_path(name, [getattr(r, name) for r in reused.records],
                             [getattr(r, name) for r in recomputed.records], rtol)
        assert ([r.clamped_ids for r in reused.records]
                == [r.clamped_ids for r in recomputed.records])

    def test_one_solve_per_tail_set_and_mask(self, monkeypatch):
        """A rate near the cost limit sells every group down until one clamps;
        the clamp changes the mask, and that step's solve finds the rate
        infeasible for the groups left."""
        matrix, state = small_portfolio(seed=0, n=5, k=300)
        state = initial_state(matrix, state.returns, 0.1)
        calls = count_solves(monkeypatch)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                 kappa_policy=FixedKappas(kappa1=-20.0), beta=0.9,
                                 delta_c=2e-4, total_cost=0.06, steady_state_tol=0.0)
        res = run(matrix, state, cfg)
        assert res.reason == "infeasible-step" and res.terminal_record.clamped_ids
        # record m holds the tail set and mask that step m + 1 is keyed on
        keys = [(r.tail_signature, r.frozen_count) for r in res.records]
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        assert len(calls) == 1 + changes < len(res.records) / 2

    def test_a_clamp_solves_anew(self, monkeypatch):
        """Steepest min-risk descent clamps one group after another.  On the
        path itself a step solves exactly when its tail set and frozen count
        are not those of one of the last two solves.  With every report's
        tail pair pinned to the first one handed to it (its contributions
        still its own), only a clamp changes the key: one solve, then one
        per clamp until every group is frozen."""
        matrix, state, cfg = clamping_min_risk()
        calls = count_solves(monkeypatch)
        res = run(matrix, state, cfg)
        assert res.reason == "all-clamped"
        # record m holds the tail set and count that step m + 1 is keyed on;
        # the last record, all groups frozen, keys no step
        keys = [(r.tail_signature, r.frozen_count) for r in res.records[:-1]]
        assert len(calls) == misses(keys)
        fresh_report = continuation.report

        def pinned(table, at, beta, losses=None, known=()):
            rep = fresh_report(table, at, beta, losses)
            if not known:
                return rep
            held = dataclasses.replace(rep, tail=known[0])
            vars(held)["contributions"] = rep.contributions  # the cached property's slot
            return held

        monkeypatch.setattr(continuation, "report", pinned)
        calls.clear()
        res = run(matrix, state, cfg)
        assert res.reason == "all-clamped"
        clamps = sum(bool(r.clamped_ids) for r in res.records[:-1])
        assert clamps >= 2
        assert len(calls) == 1 + clamps

    def test_returns_reuse_the_earlier_set_and_solve(self, monkeypatch):
        """On a flagship-shaped path, solves and the report's tail splits
        each number the keys (and tail sets) that are not among the last two
        before them.  That is fewer than one per change of key: the path
        comes back to the set it left a step before."""
        matrix, state, cfg = flagship_shaped()
        calls = count_solves(monkeypatch)
        log = []
        split = risk.tail_split
        monkeypatch.setattr(risk, "tail_split", lambda *args: log.append(1) or split(*args))
        res = run(matrix, state, cfg)
        assert res.reason == "budget"
        keys = [(r.tail_signature, r.frozen_count) for r in res.records[:-1]]
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        assert len(calls) == misses(keys) < 1 + changes
        signatures = [r.tail_signature for r in res.records]
        assert len(log) == misses(signatures) < 1 + sum(
            a != b for a, b in zip(signatures, signatures[1:]))

    @pytest.mark.parametrize("second", ("return", "risk"))
    def test_ratio_with_a_second_constraint_reuses(self, monkeypatch, second):
        """Return-to-risk with the second rate pinned is a linear row."""
        matrix, state = small_portfolio(seed=6, n=5, k=300)
        calls = count_solves(monkeypatch)
        cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN_TO_RISK,
                                 mode=ConstraintMode(ConstraintVariant.BOTH, second),
                                 beta=0.9, delta_c=1e-3, total_cost=0.1,
                                 steady_state_tol=0.0)
        res = run(matrix, state, cfg)
        assert res.reason == "budget"
        assert 0 < len(calls) < len(res.records) - 1

    @pytest.mark.parametrize("objective", (ObjectiveKind.MAX_RETURN_TO_RISK,
                                           ObjectiveKind.MIN_DIVERSIFICATION))
    def test_nonlinear_rows_solve_every_step(self, monkeypatch, objective):
        matrix, state = small_portfolio(seed=6, n=5, k=300)
        calls = count_solves(monkeypatch)
        cfg = ContinuationConfig(objective=objective, mode=REV, beta=0.9, delta_c=1e-3,
                                 total_cost=0.1, steady_state_tol=0.0)
        res = run(matrix, state, cfg)
        assert res.reason == "budget"
        assert len(calls) == len(res.records) - 1


def flagship_shaped(fixed_total_risk=False):
    """The flagship's N=50 portfolio and min-risk path at K=500 and 300
    steps, with cost coefficients of 0.1 so that nine groups clamp."""
    matrix = generate(flagship_spec(n_scenarios=500))
    state = initial_state(matrix, flagship_returns(), 0.1)
    cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                             mode=ConstraintMode(ConstraintVariant.BOTH, "return"),
                             kappa_policy=ExtremumAutopilot(fixed_revenue=True), beta=0.95,
                             delta_c=1e-4, total_cost=0.1, max_steps=300,
                             steady_state_tol=0.0, fixed_total_risk=fixed_total_risk)
    return matrix, state, cfg


def clamping_min_risk():
    """Steepest min-risk descent at a free revenue rate: one group after
    another clamps until all eight are frozen."""
    matrix, state = small_portfolio(seed=0, n=8, k=300)
    cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                             kappa_policy=ExtremumAutopilot(), beta=0.9, delta_c=1e-3,
                             total_cost=0.3, steady_state_tol=0.0)
    return matrix, initial_state(matrix, state.returns, 0.1), cfg


def ratio_revenue_only():
    """Return-to-risk under the revenue constraint alone, at fixed total
    risk: a nonlinear row, so every step solves."""
    matrix, state = small_portfolio(seed=6, n=8, k=300)
    cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN_TO_RISK, mode=REV,
                             beta=0.9, delta_c=1e-3, total_cost=0.1, steady_state_tol=0.0,
                             fixed_total_risk=True)
    return matrix, state, cfg


class TestLazyReport:
    """A step reads only what it needs of its report: the per-group vectors
    are formed on first read, and the standalone pick is kept while the sign
    pattern of the weights stands."""

    @pytest.mark.parametrize("path", (clamping_min_risk, lambda: flagship_shaped(True),
                                      ratio_revenue_only),
                             ids=("clamping-min-risk", "fixed-total-risk",
                                  "ratio-revenue-only"))
    def test_matches_the_eager_report(self, path):
        """Each path again with ``report_reference`` in place of ``report``:
        every record field agrees bit for bit, and so do the reason and the
        terminal state.  The carried frozen count is each record's count of
        zero weights (a frozen weight is exactly 0 and an active one never
        is), as the frozen mask's sum was."""
        matrix, state, cfg = path()
        lazy = run(matrix, state, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuation, "report", report_reference)
            eager = run(matrix, state, cfg)
        assert lazy.reason == eager.reason
        assert len(lazy.records) == len(eager.records) > 30
        assert_same_records(lazy.records, eager.records)
        for got in lazy.records:
            assert got.frozen_count == np.count_nonzero(got.weights == 0.0)
        for name in ("weights", "frozen"):
            assert (getattr(lazy.terminal_state, name).tobytes()
                    == getattr(eager.terminal_state, name).tobytes())

    def test_all_clamped_stop(self):
        """The clamping path stops on the step that freezes its last group."""
        matrix, state, cfg = clamping_min_risk()
        res = run(matrix, state, cfg)
        assert res.reason == "all-clamped"
        assert res.terminal_record.frozen_count == state.n_groups
        assert res.terminal_state.frozen.all()
        assert all(rec.frozen_count < state.n_groups for rec in res.records[:-1])

    def test_dar_and_pick_follow_the_solves(self, monkeypatch):
        """On a flagship-shaped path DaR is formed once per solve, and the
        standalone pick once per sign pattern: at the first report and at
        each step that clamps."""
        matrix, state, cfg = flagship_shaped()
        calls = count_solves(monkeypatch)
        log = []
        for module, name in ((risk, "dar"), (risk, "_pick_standalone")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, fn=fn, name=name: log.append(name) or fn(*args))
        res = run(matrix, state, cfg)
        clamps = sum(bool(rec.clamped_ids) for rec in res.records)
        assert res.reason == "budget" and clamps > 3
        assert 0 < len(calls) < len(res.records) - 1
        assert log.count("dar") == len(calls)
        assert log.count("_pick_standalone") == 1 + clamps


class TestCarriedLosses:
    """On every row ``run`` carries the loss vector: a reused step adds the
    solve's loss image and a fixed-risk rescale scales it.
    ``portfolio_losses`` of each state is its oracle."""

    @staticmethod
    def handed(monkeypatch):
        """Log what ``run`` hands ``report``: the state and a copy of the
        loss vector, or None."""
        log = []
        fresh = continuation.report

        def logged(table, at, beta, losses=None, known=()):
            log.append((at, None if losses is None else losses.copy()))
            return fresh(table, at, beta, losses, known)

        monkeypatch.setattr(continuation, "report", logged)
        return log

    @pytest.mark.parametrize("path", (flagship_shaped, lambda: flagship_shaped(True),
                                      clamping_min_risk, ratio_revenue_only),
                             ids=("flagship-shaped", "fixed-total-risk", "clamping-min-risk",
                                  "ratio-revenue-only"))
    def test_within_rounding_of_the_product(self, monkeypatch, path):
        """Every report after the first is handed a vector within 1e-13 of
        the largest loss of the product, and fewer products are formed than
        reports."""
        matrix, state, cfg = path()
        log = self.handed(monkeypatch)
        products = []
        for name in ("portfolio_losses", "losses_at"):
            fn = getattr(continuation, name)
            monkeypatch.setattr(continuation, name,
                                lambda *args, fn=fn: products.append(1) or fn(*args))
        res = run(matrix, state, cfg)
        assert len(res.records) > 30
        assert log[0][1] is None and all(losses is not None for _, losses in log[1:])
        assert len(products) < len(log) - 1
        table = build_losses(matrix)
        for at, losses in log[1:]:
            want = portfolio_losses(table, at)
            assert np.abs(losses - want).max() <= 1e-13 * np.abs(want).max()

    def test_rescale_scales_the_carried_vector(self, monkeypatch):
        """Return-to-risk on the revenue row solves every step, so only its
        rescale reuses L.  Against a run whose ``report`` ignores the vector,
        the tail signatures and clamped ids agree at every step and every
        record field within rtol 1e-12.  The path forms one K x N product
        per step, its rescale report none, plus the first report's."""
        matrix, state, cfg = ratio_revenue_only()
        products = []
        for module in (risk, continuation):
            fn = module.losses_at
            monkeypatch.setattr(module, "losses_at",
                                lambda *args, fn=fn: products.append(1) or fn(*args))
        carried = run(matrix, state, cfg)
        steps = len(carried.records) - 1
        assert steps == 100 and len(products) == 1 + steps
        monkeypatch.setattr(continuation, "report",
                            lambda table, at, beta, losses=None, known=():
                            risk.report(table, at, beta, known=known))
        fresh = run(matrix, state, cfg)
        assert carried.reason == fresh.reason
        assert_same_records(carried.records, fresh.records, rtol=1e-12)


class TestOneSolvePath:
    """``run`` hands the policy to ``solve_step``, which resolves the rates
    from the step's own projection."""

    def test_matches_the_chained_solve(self, monkeypatch):
        """The flagship-shaped path again with the chain ``solve_step`` replaced,
        ``extremum_kappas`` and then ``solve_step`` at those rates: every record
        field and the reason agree bit for bit.  The path projects twice per
        solve (B.1.2: the active rows and the fixed revenue row), where the
        chain projected three times."""
        matrix, state, cfg = flagship_shaped()
        project, calls = projection._project, []
        monkeypatch.setattr(projection, "_project",
                            lambda *args: calls.append(args[1]) or project(*args))
        solves = count_solves(monkeypatch)
        one = run(matrix, state, cfg)
        assert len(calls) == 2 * len(solves) and len(solves) > 30
        solve = projection.solve_step

        def chained(consts, coeffs, mode, policy, maximize):
            ext = projection.extremum_kappas(consts, mode, policy.fixed_revenue,
                                             policy.fixed_second, maximize)
            return solve(consts, coeffs, mode, FixedKappas(ext.kappa1_bar, ext.kappa2_bar),
                         maximize)

        monkeypatch.setattr(continuation, "solve_step", chained)
        calls.clear()
        chain = run(matrix, state, cfg)
        assert len(calls) == 3 * len(solves)
        assert one.reason == chain.reason == "budget"
        assert len(one.records) == len(chain.records) == 301
        assert sum(len(rec.clamped_ids) for rec in one.records) == 9
        assert_same_records(one.records, chain.records)


class TestOptimalityGap:
    """How close the path gets to the optimum it searches towards."""

    def test_min_risk_path_nears_the_lp_optimum(self, flagship):
        """Criterion 9's min-risk path, run to c = 1, against the least CVaR
        per unit revenue over long-only weights: the best point never beats
        the LP, and its gap shrinks faster than the step (first order)."""
        matrix, returns = flagship
        state = initial_state(matrix, returns, 1.0)
        optimum = min_cvar_lp(matrix, state, 0.95).cvar
        gaps = []
        for delta_c, bound in ((1e-2, 5e-3), (3e-3, 1.2e-3)):
            cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                     mode=ConstraintMode(ConstraintVariant.BOTH, "return"),
                                     kappa_policy=ExtremumAutopilot(fixed_revenue=True),
                                     beta=0.95, delta_c=delta_c, total_cost=1.0,
                                     steady_state_tol=0.0)
            best = min(rec.cvar / rec.revenue for rec in run(matrix, state, cfg).records)
            assert best >= optimum * (1.0 - 1e-9)
            gaps.append((best - optimum) / optimum)
            assert gaps[-1] <= bound, (delta_c, gaps)
        assert gaps[1] < 0.5 * gaps[0], gaps


class TestConvergence:
    def base_config(self):
        return ContinuationConfig(objective=ObjectiveKind.MIN_RISK, mode=REV,
                                  kappa_policy=FixedKappas(), beta=0.9,
                                  delta_c=1e-3, total_cost=0.01, steady_state_tol=0.0)

    def test_equal_step_sizes_rejected(self):
        matrix, state = small_portfolio(seed=51)
        with pytest.raises(ConfigError,
                           match="^step sizes must be distinct and in descending order$"):
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
