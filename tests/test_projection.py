"""Closed-form single steps: feasibility, optimality, multipliers, extrema."""
import re
import warnings

import numpy as np
import pytest

from cvarpath import (
    Coefficients,
    ConfigError,
    ConstraintMode,
    ConstraintVariant,
    DegenerateProblemError,
    DomainError,
    InfeasibleStepError,
    ObjectiveKind,
    PathParams,
    StepConstants,
    constants,
    direction_parts,
    effective_problem,
    extremum_kappas,
    solve_step,
    validate_mode,
)
from oracle import best_feasible_direction, hessian_sign_check, kappa_grid_search
from conftest import random_step_instance

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
        sol = solve_step(consts, coeffs, BOTH, PathParams(0.0, 0.0), maximize=True)
        np.testing.assert_allclose(sol.y, [np.sqrt(0.5), 0.0, -np.sqrt(0.5)], atol=1e-15)
        assert sol.a0 == pytest.approx(0.5)
        assert sol.a2 == pytest.approx(-1.0)
        assert sol.Q == pytest.approx(np.sqrt(0.5))

    def test_minimize_flips_direction(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0, 0.0]),
                              h=np.array([0.0, 1.0, 0.0]),
                              c=np.ones(3))
        consts = constants(coeffs)
        up = solve_step(consts, coeffs, BOTH, PathParams(0.0, 0.0), maximize=True)
        down = solve_step(consts, coeffs, BOTH, PathParams(0.0, 0.0), maximize=False)
        np.testing.assert_allclose(down.y, -up.y, atol=1e-15)
        assert down.Q == pytest.approx(-up.Q)
        assert down.q == pytest.approx(-up.q)

    def test_no_constraints_steepest(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0]), h=None, c=np.ones(2))
        consts = constants(coeffs)
        sol = solve_step(consts, coeffs, NONE, PathParams(), maximize=True)
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
            branch = direction_parts(consts, coeffs, mode, params)
            cross = float(np.sum(branch.P * branch.R / coeffs.c ** 2))
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
            solve_step(consts, coeffs, REV, PathParams(kappa1=10.0), maximize=True)

    def test_gradient_in_constraint_span_raises(self):
        coeffs = Coefficients(f=np.ones(3), h=None, c=np.ones(3))
        consts = constants(coeffs)
        with pytest.raises(DegenerateProblemError):
            solve_step(consts, coeffs, REV, PathParams(kappa1=0.0), maximize=True)

    def test_collinear_constraints_raise(self):
        coeffs = Coefficients(f=np.array([1.0, 0.0, 0.0]),
                              h=np.ones(3), c=np.ones(3))
        consts = constants(coeffs)
        with pytest.raises(DegenerateProblemError):
            solve_step(consts, coeffs, BOTH, PathParams(0.0, 0.0), maximize=True)

    def test_second_mode_requires_h(self):
        coeffs = Coefficients(f=np.array([1.0, -1.0]), h=None, c=np.ones(2))
        consts = constants(coeffs)
        with pytest.raises(ConfigError):
            solve_step(consts, coeffs, SEC, PathParams(), maximize=True)

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
                             PathParams(ext.kappa1_bar, ext.kappa2_bar), maximize=True)
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
