"""The reference implementations themselves: sanity and cross-checks."""
import numpy as np
import pytest

from cvarpath import (
    ConstraintMode,
    ConstraintVariant,
    DomainError,
    InfeasibleStepError,
    PathParams,
    build_losses,
    cvar_tail_average,
    solve_step,
)
from oracle import (_feasible_sphere, best_feasible_direction, finite_difference_dar,
                    kappa_grid_search)
from conftest import random_step_instance, small_portfolio


class TestTailAverage:
    def test_hand_values(self):
        losses = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        probs = np.full(5, 0.2)
        assert cvar_tail_average(losses, probs, 0.8) == pytest.approx(4.0)
        assert cvar_tail_average(losses, probs, 0.7) == pytest.approx(11.0 / 3.0)
        assert cvar_tail_average(losses, probs, 0.0) == pytest.approx(2.0)

    def test_order_independent(self):
        rng = np.random.default_rng(2)
        losses = rng.normal(0.0, 1.0, 20)
        probs = rng.uniform(0.1, 1.0, 20)
        probs /= probs.sum()
        want = cvar_tail_average(losses, probs, 0.85)
        perm = rng.permutation(20)
        assert cvar_tail_average(losses[perm], probs[perm], 0.85) == pytest.approx(want, rel=1e-14)

    def test_invalid_beta(self):
        with pytest.raises(DomainError):
            cvar_tail_average(np.ones(3), np.full(3, 1 / 3), 1.0)


class TestDirectionSampling:
    def test_samples_are_feasible(self):
        rng = np.random.default_rng(7)
        for variant in (ConstraintVariant.BOTH, ConstraintVariant.REVENUE_ONLY,
                        ConstraintVariant.NONE_ACTIVE):
            coeffs, _, mode, params = random_step_instance(rng, variant, n=4)
            sample = best_feasible_direction(coeffs, mode, params, samples=500, seed=1)
            for y in (sample.max_y, sample.min_y):
                assert float((coeffs.c ** 2) @ (y ** 2)) == pytest.approx(1.0, abs=1e-10)
                if mode.has_revenue:
                    assert float(y.sum()) == pytest.approx(params.kappa1, abs=1e-10)
                if mode.has_second:
                    assert float(coeffs.h @ y) == pytest.approx(params.kappa2, abs=1e-10)

    def test_sampling_approaches_closed_form_from_below(self):
        rng = np.random.default_rng(9)
        coeffs, consts, mode, params = random_step_instance(
            rng, ConstraintVariant.REVENUE_ONLY, n=4)
        sol = solve_step(consts, coeffs, mode, params, maximize=True)
        fine = best_feasible_direction(coeffs, mode, params, samples=50_000, seed=2)
        assert fine.max_Q <= sol.Q + 1e-12
        assert fine.max_Q == pytest.approx(sol.Q, abs=1e-3)

    @pytest.mark.parametrize("variant", tuple(ConstraintVariant))
    def test_extremes_match_the_full_direction_formula(self, variant):
        """Same extreme rows as forming every unit direction z = radius * g / |g|."""
        rng = np.random.default_rng(29)
        for seed in range(3):
            coeffs, _, mode, params = random_step_instance(rng, variant)
            got = best_feasible_direction(coeffs, mode, params, samples=20_000, seed=seed)
            u0, basis, radius = _feasible_sphere(coeffs, mode, params)
            gauss = np.random.default_rng(seed).standard_normal((20_000, basis.shape[0]))
            norms = np.linalg.norm(gauss, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            z = radius * gauss / norms
            f_over_c = coeffs.f / coeffs.c
            q_values = float(f_over_c @ u0) + z @ (basis @ f_over_c)
            for q, y, i in ((got.max_Q, got.max_y, int(np.argmax(q_values))),
                            (got.min_Q, got.min_y, int(np.argmin(q_values)))):
                assert q == pytest.approx(q_values[i], rel=1e-14)
                np.testing.assert_allclose(y, (u0 + basis.T @ z[i]) / coeffs.c,
                                           rtol=1e-12, atol=1e-12)

    def test_infeasible_rates_raise(self):
        rng = np.random.default_rng(11)
        coeffs, _, mode, _ = random_step_instance(rng, ConstraintVariant.REVENUE_ONLY, n=4)
        with pytest.raises(InfeasibleStepError):
            best_feasible_direction(coeffs, mode, PathParams(kappa1=1e6), samples=10)


class TestGridSearch:
    def test_grid_never_beats_closed_form(self):
        # the closed-form optimum over the rates, sqrt(F), bounds every grid point
        rng = np.random.default_rng(13)
        for variant in (ConstraintVariant.BOTH, ConstraintVariant.REVENUE_ONLY):
            _, consts, mode, _ = random_step_instance(rng, variant)
            grid = kappa_grid_search(consts, mode, 0.05, ((-1.0, 1.0), (-1.0, 1.0)))
            assert grid.Q <= np.sqrt(consts.F) + 1e-12

    def test_fixed_axes_collapse(self):
        rng = np.random.default_rng(17)
        _, consts, mode, _ = random_step_instance(rng, ConstraintVariant.BOTH)
        grid = kappa_grid_search(consts, mode, 0.05, ((-1.0, 1.0), (-1.0, 1.0)),
                                 fix_revenue=True)
        assert grid.kappa1 == 0.0

    def test_empty_grid_raises(self):
        rng = np.random.default_rng(19)
        _, consts, mode, _ = random_step_instance(rng, ConstraintVariant.REVENUE_ONLY)
        hi = 10.0 * np.sqrt(consts.U)
        with pytest.raises(InfeasibleStepError):
            kappa_grid_search(consts, mode, 1.0, ((hi, hi + 2.0), (0.0, 0.0)))


class TestFiniteDifference:
    def test_epsilon_must_be_positive(self):
        matrix, state = small_portfolio()
        with pytest.raises(DomainError):
            finite_difference_dar(build_losses(matrix), state, 0.9, 0, 0.0)

    def test_large_epsilon_flags_kink(self):
        matrix, state = small_portfolio(seed=23)
        table = build_losses(matrix)
        flags = [finite_difference_dar(table, state, 0.9, n, 0.2).kink
                 for n in range(state.n_groups)]
        assert any(flags)
