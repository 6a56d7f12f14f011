"""Closed-form single steps: feasibility, optimality, multipliers, extrema."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvarpath import (
    Coefficients,
    ConfigError,
    ConstraintMode,
    ConstraintVariant,
    DegenerateProblemError,
    DomainError,
    ExtremumAutopilot,
    FixedKappas,
    InfeasibleStepError,
    ObjectiveKind,
    StepConstants,
    build_losses,
    constants,
    effective_problem,
    extremum_kappas,
    report,
    select_coefficients,
    solve_step,
    validate_mode,
)
from cvarpath import projection
from oracle import (best_feasible_direction, finite_difference_dar, hessian_sign_check,
                    kappa_grid_search)
from conftest import random_step_instance, small_portfolio

BOTH = ConstraintMode(ConstraintVariant.BOTH)
REV = ConstraintMode(ConstraintVariant.REVENUE_ONLY)
SEC = ConstraintMode(ConstraintVariant.SECOND_ONLY)
NONE = ConstraintMode(ConstraintVariant.NONE_ACTIVE)
ALL_VARIANTS = (ConstraintVariant.BOTH, ConstraintVariant.REVENUE_ONLY,
                ConstraintVariant.SECOND_ONLY, ConstraintVariant.NONE_ACTIVE)


EXTREMUM_SUBCASES = (
    (ConstraintVariant.BOTH, False, False, "B.1.1"),
    (ConstraintVariant.BOTH, True, False, "B.1.2"),
    (ConstraintVariant.BOTH, False, True, "B.1.3"),
    (ConstraintVariant.BOTH, True, True, "B.1.4"),
    (ConstraintVariant.REVENUE_ONLY, False, False, "B.2"),
    (ConstraintVariant.REVENUE_ONLY, True, False, "B.2-fixed"),
    (ConstraintVariant.SECOND_ONLY, False, False, "B.3"),
    (ConstraintVariant.SECOND_ONLY, False, True, "B.3-fixed"),
    (ConstraintVariant.NONE_ACTIVE, False, False, "B.4"),
)


def minus(a, b):
    """a - b and its condition number (|a| + |b|) / |a - b|: the factor by which
    any evaluation's rounding error in a and b is magnified in the result."""
    return a - b, (abs(a) + abs(b)) / abs(a - b)


def closed_form_extremum(consts, subcase, maximize):
    """The paper's steepest-path rates, one formula per subcase.

    Returns (value, condition number) for kappa1, kappa2 and q_bar.  q_bar
    carries the optimization sign only where some rate is free.
    """
    F, G, H, U, V, W = consts.F, consts.G, consts.H, consts.U, consts.V, consts.W
    sign = 1.0 if maximize else -1.0
    zero = (0.0, 1.0)
    if subcase == "B.1.1":
        q = sign * np.sqrt(F)
        return (G / q, 1.0), (H / q, 1.0), (q, 1.0)
    if subcase == "B.2":
        q = sign * np.sqrt(F)
        return (G / q, 1.0), zero, (q, 1.0)
    if subcase == "B.3":
        q = sign * np.sqrt(F)
        return zero, (H / q, 1.0), (q, 1.0)
    if subcase == "B.1.2":
        q_sq, cond_q = minus(F, G * G / U)
        q = sign * np.sqrt(q_sq)
        num, cond = minus(H * U, G * V)
        return zero, (num / (U * q), cond + cond_q), (q, cond_q)
    if subcase == "B.1.3":
        q_sq, cond_q = minus(F, H * H / W)
        q = sign * np.sqrt(q_sq)
        num, cond = minus(G * W, H * V)
        return (num / (W * q), cond + cond_q), zero, (q, cond_q)
    if subcase == "B.1.4":
        q_sq, cond_q = minus(F, (H * H * U + G * G * W - 2.0 * G * H * V) / (U * W - V * V))
    elif subcase == "B.2-fixed":
        q_sq, cond_q = minus(F, G * G / U)
    elif subcase == "B.3-fixed":
        q_sq, cond_q = minus(F, H * H / W)
    else:
        assert subcase == "B.4"
        q_sq, cond_q = F, 1.0
    return zero, zero, (np.sqrt(q_sq), cond_q)


def check_feasibility(sol, coeffs, mode, params, tol=1e-10):
    if mode.has_revenue:
        assert float(sol.y.sum()) == pytest.approx(params.kappa1, abs=tol)
    if mode.has_second:
        assert float(coeffs.h @ sol.y) == pytest.approx(params.kappa2, abs=tol)
    assert float((coeffs.c ** 2) @ (sol.y ** 2)) == pytest.approx(1.0, abs=tol)


class TestHandExamples:
    def test_both_constraints_axis_aligned(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0, 0.0]),
                              h=np.array([0.0, 1.0, 0.0]),
                              c=np.ones(3))
        consts = constants(coeffs)
        sol = solve_step(consts, coeffs, BOTH, FixedKappas(0.0, 0.0), maximize=True)
        np.testing.assert_allclose(sol.y, [np.sqrt(0.5), 0.0, -np.sqrt(0.5)], atol=1e-15)
        assert sol.a0 == pytest.approx(0.5)
        assert sol.a2 == pytest.approx(-1.0)
        assert sol.Q == pytest.approx(np.sqrt(0.5))

    def test_minimize_flips_direction(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0, 0.0]),
                              h=np.array([0.0, 1.0, 0.0]),
                              c=np.ones(3))
        consts = constants(coeffs)
        up = solve_step(consts, coeffs, BOTH, FixedKappas(0.0, 0.0), maximize=True)
        down = solve_step(consts, coeffs, BOTH, FixedKappas(0.0, 0.0), maximize=False)
        np.testing.assert_allclose(down.y, -up.y, atol=1e-15)
        assert down.Q == pytest.approx(-up.Q)
        assert down.q == pytest.approx(-up.q)

    def test_no_constraints_steepest(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0]), h=None, c=np.ones(2))
        consts = constants(coeffs)
        sol = solve_step(consts, coeffs, NONE, FixedKappas(), maximize=True)
        np.testing.assert_allclose(sol.y, [1.0, 0.0], atol=1e-15)
        assert sol.Q == pytest.approx(1.0)


class TestFeasibilityAndOptimality:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_constraints_hold(self, variant, seed):
        rng = np.random.default_rng([ALL_VARIANTS.index(variant), seed])
        for _ in range(200):
            coeffs, consts, mode, params = random_step_instance(rng, variant)
            for maximize in (True, False):
                sol = solve_step(consts, coeffs, mode, params, maximize)
                check_feasibility(sol, coeffs, mode, params)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_closed_form_beats_sampling(self, variant):
        rng = np.random.default_rng(17)
        for _ in range(20):
            coeffs, consts, mode, params = random_step_instance(rng, variant, n=4)
            sol = solve_step(consts, coeffs, mode, params, maximize=True)
            sample = best_feasible_direction(coeffs, mode, params, samples=20_000, seed=3)
            assert sol.Q >= sample.max_Q - 1e-6
            lo = solve_step(consts, coeffs, mode, params, maximize=False)
            assert lo.Q <= sample.min_Q + 1e-6

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_quadratic_structure(self, variant):
        """The multiplier polynomial has no linear term: sum(P * R / c^2) = 0."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            coeffs, consts, mode, params = random_step_instance(rng, variant)
            sol = solve_step(consts, coeffs, mode, params, maximize=True)
            cross = float(np.sum(sol.P * sol.R / coeffs.c ** 2))
            assert abs(cross) < 1e-10

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_stationarity_of_multipliers(self, variant):
        """f = s*1 + t*h + q*c^2*y at the solution (gradient of the Lagrangian)."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            coeffs, consts, mode, params = random_step_instance(rng, variant)
            sol = solve_step(consts, coeffs, mode, params, maximize=True)
            h = coeffs.h if coeffs.h is not None else np.zeros_like(coeffs.f)
            resid = coeffs.f - sol.s - sol.t * h - sol.q * coeffs.c ** 2 * sol.y
            assert np.max(np.abs(resid)) < 1e-9


class TestErrors:
    def test_infeasible_rates_raise(self):
        coeffs = Coefficients(f=np.array([1.0, -1.0]), h=None, c=np.ones(2))
        consts = constants(coeffs)
        # |kappa1| > sqrt(U) puts the constraint plane outside the ellipsoid
        with pytest.raises(InfeasibleStepError):
            solve_step(consts, coeffs, REV, FixedKappas(kappa1=10.0), maximize=True)

    def test_gradient_in_constraint_span_raises(self):
        coeffs = Coefficients(f=np.ones(3), h=None, c=np.ones(3))
        consts = constants(coeffs)
        with pytest.raises(DegenerateProblemError):
            solve_step(consts, coeffs, REV, FixedKappas(kappa1=0.0), maximize=True)

    def test_collinear_constraints_raise(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0, 0.0]),
                              h=np.ones(3), c=np.ones(3))
        consts = constants(coeffs)
        with pytest.raises(DegenerateProblemError):
            solve_step(consts, coeffs, BOTH, FixedKappas(0.0, 0.0), maximize=True)

    def test_second_mode_requires_h(self):
        coeffs = Coefficients(f=np.array([1.0, -1.0]), h=None, c=np.ones(2))
        consts = constants(coeffs)
        with pytest.raises(ConfigError):
            solve_step(consts, coeffs, SEC, FixedKappas(), maximize=True)

    @pytest.mark.parametrize("sums,pair", [
        (dict(U=1.0, F=1.0, G=2.0, has_h=False), "UF < G^2"),
        (dict(U=1.0, F=1.0, W=1.0, V=2.0, has_h=True), "UW < V^2"),
        (dict(U=1.0, F=1.0, W=1.0, H=2.0, has_h=True), "WF < H^2"),
    ])
    def test_cauchy_schwarz_violation_names_its_pair(self, sums, pair):
        """Each 2x2 minor of the Gram matrix of (1, h, f) must be non-negative."""
        full = dict(F=0.0, G=0.0, H=0.0, U=0.0, V=0.0, W=0.0) | sums
        with pytest.raises(DomainError, match=re.escape(f"Cauchy-Schwarz violated: {pair}")):
            StepConstants(**full)

    def test_h_minors_unchecked_without_h(self):
        StepConstants(F=1.0, G=0.0, H=2.0, U=1.0, V=2.0, W=0.0, has_h=False)

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -float("inf")))
    @pytest.mark.parametrize("name", ("F", "G", "H", "U", "V", "W"))
    def test_non_finite_sum_rejected(self, name, value):
        sums = dict(F=1.0, G=0.0, H=0.0, U=1.0, V=0.0, W=1.0, has_h=True) | {name: value}
        with pytest.raises(DomainError, match="must be finite"):
            StepConstants(**sums)

    @pytest.mark.parametrize("sums", [
        dict(U=1e200, F=1e-200, G=0.0),  # the check slack, 1e-12 (1 + sum)^2, overflows
        dict(U=1e155, F=1e155, G=1e155),  # UF and G^2 overflow
    ])
    def test_sums_too_large_to_check_rejected(self, sums):
        """Finite sums whose squares overflow end in DomainError, not OverflowError."""
        with pytest.raises(DomainError, match="summing below 1.3e154"):
            StepConstants(H=0.0, V=0.0, W=0.0, has_h=False, **sums)

    @pytest.mark.parametrize("f,c", [(1e200, 1.0), (1.0, 1e-300)])
    def test_overflowing_sums_rejected_without_a_warning(self, f, c):
        """f^2 overflows, or c^2 underflows to 0: the Gram sums are not finite."""
        coeffs = Coefficients(f=np.full(3, f), h=np.arange(3.0), c=np.full(3, c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                constants(coeffs)


class TestModeValidation:
    def test_rejected_pairings(self):
        with pytest.raises(ConfigError):
            validate_mode(ObjectiveKind.MAX_RETURN, ConstraintMode(ConstraintVariant.BOTH, "return"))
        with pytest.raises(ConfigError):
            validate_mode(ObjectiveKind.MIN_RISK, ConstraintMode(ConstraintVariant.BOTH, "risk"))
        with pytest.raises(ConfigError):
            validate_mode(ObjectiveKind.MIN_DIVERSIFICATION,
                          ConstraintMode(ConstraintVariant.SECOND_ONLY, "risk"))

    def test_accepted_pairings(self):
        validate_mode(ObjectiveKind.MIN_RISK, ConstraintMode(ConstraintVariant.BOTH, "return"))
        validate_mode(ObjectiveKind.MAX_RETURN, ConstraintMode(ConstraintVariant.BOTH, "risk"))
        validate_mode(ObjectiveKind.MAX_RETURN_TO_RISK, REV)

    def test_active_rows(self):
        """Each mode's constraint rows, fixed when the mode is built."""
        assert [ConstraintMode(v).rows for v in ALL_VARIANTS] == [(0, 1), (0,), (1,), ()]

    def test_return_to_risk_switches_rows(self):
        row, maximize = effective_problem(ObjectiveKind.MAX_RETURN_TO_RISK,
                                          ConstraintMode(ConstraintVariant.BOTH, "risk"))
        assert row is ObjectiveKind.MAX_RETURN and maximize
        row, maximize = effective_problem(ObjectiveKind.MAX_RETURN_TO_RISK,
                                          ConstraintMode(ConstraintVariant.BOTH, "return"))
        assert row is ObjectiveKind.MIN_RISK and not maximize
        row, maximize = effective_problem(ObjectiveKind.MAX_RETURN_TO_RISK, REV)
        assert row is ObjectiveKind.MAX_RETURN_TO_RISK and maximize


class TestExtrema:
    def test_free_extremum_rate_is_root_F(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            coeffs, consts, mode, _ = random_step_instance(rng, ConstraintVariant.BOTH)
            ext = extremum_kappas(consts, mode, False, False, maximize=True)
            assert ext.subcase == "B.1.1"
            assert ext.q_bar == pytest.approx(np.sqrt(consts.F), rel=1e-14)
            # multipliers vanish at the free extremum
            sol = solve_step(consts, coeffs, mode,
                             FixedKappas(ext.kappa1_bar, ext.kappa2_bar), maximize=True)
            assert abs(sol.s) < 1e-9 and abs(sol.t) < 1e-9
            assert sol.Q == pytest.approx(np.sqrt(consts.F), rel=1e-12)

    def test_hessian_diagnostic_at_maximum(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            _, consts, mode, _ = random_step_instance(rng, ConstraintVariant.BOTH)
            ext = extremum_kappas(consts, mode, False, False, maximize=True)
            diag = hessian_sign_check(consts, ext)
            assert diag.determinant > 0.0
            assert diag.is_extremum
            assert diag.d2_kappa1 < 0.0 and diag.d2_kappa2 < 0.0

    @pytest.mark.parametrize("variant,fixed_revenue,fixed_second,subcase", [
        (ConstraintVariant.BOTH, True, False, "B.1.2"),
        (ConstraintVariant.BOTH, False, True, "B.1.3"),
        (ConstraintVariant.REVENUE_ONLY, False, False, "B.2"),
        (ConstraintVariant.SECOND_ONLY, False, False, "B.3"),
    ])
    def test_extremum_matches_grid(self, variant, fixed_revenue, fixed_second, subcase):
        rng = np.random.default_rng(41)
        mode = ConstraintMode(variant)
        for _ in range(20):
            _, consts, _, _ = random_step_instance(rng, variant)
            try:
                ext = extremum_kappas(consts, mode, fixed_revenue, fixed_second, True)
            except DegenerateProblemError:
                continue
            assert ext.subcase == subcase
            step = 0.01
            span = 0.3
            bounds = ((ext.kappa1_bar - span, ext.kappa1_bar + span),
                      (ext.kappa2_bar - span, ext.kappa2_bar + span))
            grid = kappa_grid_search(consts, mode, step, bounds, maximize=True,
                                     fix_revenue=fixed_revenue, fix_second=fixed_second)
            assert abs(grid.kappa1 - ext.kappa1_bar) <= step * 1.001
            assert abs(grid.kappa2 - ext.kappa2_bar) <= step * 1.001

    @pytest.mark.parametrize("maximize", (True, False))
    @pytest.mark.parametrize("variant,fixed_revenue,fixed_second,subcase", EXTREMUM_SUBCASES)
    def test_extremum_matches_closed_form(self, variant, fixed_revenue, fixed_second,
                                          subcase, maximize):
        rng = np.random.default_rng(47)
        mode = ConstraintMode(variant)
        for _ in range(50):
            _, consts, _, _ = random_step_instance(rng, variant)
            ext = extremum_kappas(consts, mode, fixed_revenue, fixed_second, maximize)
            assert ext.subcase == subcase
            got = (ext.kappa1_bar, ext.kappa2_bar, ext.q_bar)
            for value, (expected, cond) in zip(got, closed_form_extremum(consts, subcase,
                                                                         maximize)):
                # a pinned rate is exactly 0.0: abs=0 leaves no slack there
                assert value == pytest.approx(expected, rel=1e-12 * cond, abs=0.0)

    @pytest.mark.parametrize("maximize", (True, False))
    def test_hessian_matches_closed_form(self, maximize):
        rng = np.random.default_rng(53)
        for _ in range(50):
            _, consts, mode, _ = random_step_instance(rng, ConstraintVariant.BOTH)
            ext = extremum_kappas(consts, mode, False, False, maximize)
            diag = hessian_sign_check(consts, ext)
            F, G, H, U, V, W = consts.F, consts.G, consts.H, consts.U, consts.V, consts.W
            det = U * W - V * V
            # every entry divides by a0
            a0, cond = minus(F, (H * H * U + G * G * W - 2.0 * G * H * V) / det)
            rel = 1e-12 * cond
            assert diag.determinant == pytest.approx(F * F / (det * a0), rel=rel, abs=0.0)
            d2_k1 = -(W / det + (G * W - H * V) ** 2 / (det * det * a0)) * ext.q_bar
            d2_k2 = -(U / det + (H * U - G * V) ** 2 / (det * det * a0)) * ext.q_bar
            assert diag.d2_kappa1 == pytest.approx(d2_k1, rel=rel, abs=0.0)
            assert diag.d2_kappa2 == pytest.approx(d2_k2, rel=rel, abs=0.0)
            assert diag.is_extremum

    def test_fixed_rate_subcases(self):
        rng = np.random.default_rng(43)
        _, consts, mode, _ = random_step_instance(rng, ConstraintVariant.BOTH)
        ext = extremum_kappas(consts, mode, True, True, maximize=True)
        assert ext.subcase == "B.1.4"
        assert ext.kappa1_bar == 0.0 and ext.kappa2_bar == 0.0
        _, consts, mode, _ = random_step_instance(rng, ConstraintVariant.NONE_ACTIVE)
        ext = extremum_kappas(consts, mode, False, False, maximize=True)
        assert ext.subcase == "B.4"
        assert ext.q_bar == pytest.approx(np.sqrt(consts.F), rel=1e-14)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def spanned(coeffs, mode):
    """The instance with f moved into the span of the active rows, where the
    step and the extremum branch are degenerate."""
    f = np.full_like(coeffs.f, 0.3 * mode.has_revenue)
    if mode.has_second:
        f += 0.7 * coeffs.h
    moved = Coefficients(f=f, h=coeffs.h, c=coeffs.c)
    return moved, constants(moved)


FLAG_PAIRS = ((False, False), (True, False), (False, True), (True, True))


class TestOneSolve:
    """``solve_step`` under an ``ExtremumAutopilot`` resolves the rates from
    its own projection: the chain it replaced, ``extremum_kappas`` and then
    ``solve_step`` at those rates, is its oracle bit for bit."""

    @staticmethod
    def outcome(call):
        try:
            return call(), None
        except Exception as exc:  # noqa: BLE001 - the error types are compared
            return None, type(exc)

    @pytest.mark.parametrize("maximize", (True, False))
    @pytest.mark.parametrize("flags", FLAG_PAIRS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_matches_the_chain(self, variant, flags, maximize):
        rng = np.random.default_rng([ALL_VARIANTS.index(variant), FLAG_PAIRS.index(flags),
                                     maximize])
        raised = 0
        for i in range(60):
            coeffs, consts, mode, _ = random_step_instance(rng, variant)
            if i % 6 == 0:
                coeffs, consts = spanned(coeffs, mode)
            one, one_error = self.outcome(
                lambda: solve_step(consts, coeffs, mode, ExtremumAutopilot(*flags), maximize))
            ext, ext_error = self.outcome(
                lambda: extremum_kappas(consts, mode, *flags, maximize))
            chain, chain_error = None, ext_error
            if ext_error is None:
                chain, chain_error = self.outcome(lambda: solve_step(
                    consts, coeffs, mode, FixedKappas(ext.kappa1_bar, ext.kappa2_bar), maximize))
            assert one_error == chain_error
            if one_error:
                raised += 1
                continue
            for name in ("y", "q", "Q", "s", "t", "a0", "a2", "kappa1", "kappa2", "P", "R"):
                assert same_bits(getattr(one, name), getattr(chain, name)), name
            assert (one.kappa1, one.kappa2) == (ext.kappa1_bar, ext.kappa2_bar)
            assert one.subcase == ext.subcase and chain.subcase is None
        assert 0 < raised < 60

    @pytest.mark.parametrize("flags", FLAG_PAIRS)
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_projects_each_row_set_once(self, variant, flags, monkeypatch):
        """One ``_project`` call per distinct row set: the active rows, and the
        fixed ones when they differ (B.1.2 makes 2 calls, not 3)."""
        calls = []
        project = projection._project
        monkeypatch.setattr(projection, "_project",
                            lambda consts, rows: calls.append(rows) or project(consts, rows))
        rng = np.random.default_rng(59)
        coeffs, consts, mode, params = random_step_instance(rng, variant)
        fixed = tuple(r for r in mode.rows if flags[r])
        calls.clear()
        sol = solve_step(consts, coeffs, mode, ExtremumAutopilot(*flags), maximize=False)
        assert calls == [mode.rows] + [fixed] * (fixed != mode.rows)
        if (variant, flags) == (ConstraintVariant.BOTH, (True, False)):
            assert sol.subcase == "B.1.2" and len(calls) == 2
        calls.clear()
        solve_step(consts, coeffs, mode, params, maximize=False)
        assert calls == [mode.rows]


# The objective each coefficient row is the gradient of, as the report gives it.
OBJECTIVES = {
    ObjectiveKind.MIN_RISK: lambda rep, x0: rep.cvar / x0,
    ObjectiveKind.MAX_RETURN: lambda rep, x0: rep.total_return,
    ObjectiveKind.MAX_RETURN_TO_RISK: lambda rep, x0: rep.total_return_to_risk,
    ObjectiveKind.MIN_DIVERSIFICATION: lambda rep, x0: rep.diversification_index,
}


@st.composite
def perturbed_states(draw):
    """A small portfolio away from its base weights: each weight moved by
    10-50% up or down, so no sign changes; sometimes one group frozen."""
    n = draw(st.integers(3, 7))
    matrix, state = small_portfolio(seed=draw(st.integers(0, 2**32 - 1)), n=n, k=300)
    moves = draw(st.lists(st.floats(0.1, 0.5), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    weights = state.weights * (1.0 + np.array(moves) * np.array(signs))
    frozen = np.zeros(n, dtype=bool)
    if draw(st.booleans()):
        frozen[draw(st.integers(0, n - 1))] = True
        weights[frozen] = 0.0
    return matrix, state.with_weights(weights, frozen)


class TestCoefficientGradients:
    """Each objective row's f is the gradient of its objective over the active
    weights, checked against a central difference of the reported objective.

    The step is eps = 1e-6 w_n.  On a fixed tail set (kinks are skipped, by
    ``finite_difference_dar``'s flag) CVaR, the standalone sum, the return
    and the revenue are linear in w_n, so the difference is exact for the
    linear rows; for the ratio rows a / b it is off by the factor
    1 / (1 - (eps b' / b)^2), about 1e-12 here.  Rounding of the reported
    objective (a few ulps, relative 1e-14) divided by eps adds about
    1e-14 |objective| / eps = 1e-8 |objective| / w_n, which is of the order
    of 1e-8 of the gradient.  So the tolerance is 1e-6 of the largest |f|.
    """

    BETA = 0.9

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    @given(drawn=perturbed_states())
    @settings(max_examples=40, deadline=None)
    def test_f_is_the_gradient(self, objective, drawn):
        matrix, state = drawn
        table = build_losses(matrix)
        rep = report(table, state, self.BETA)
        coeffs = select_coefficients(objective, state, rep, REV)
        value = OBJECTIVES[objective]
        scale = float(np.max(np.abs(coeffs.f)))
        for f_n, n in zip(coeffs.f, np.flatnonzero(state.active)):
            eps = 1e-6 * state.weights[n]
            if finite_difference_dar(table, state, self.BETA, n, eps).kink:
                continue
            shifted = []
            for shift in (eps, -eps):
                weights = state.weights.copy()
                weights[n] += shift
                moved = state.with_weights(weights)
                shifted.append(value(report(table, moved, self.BETA), state.base_value))
            slope = (shifted[0] - shifted[1]) / (2.0 * eps)
            assert abs(f_n - slope) <= 1e-6 * scale, (n, f_n, slope)
