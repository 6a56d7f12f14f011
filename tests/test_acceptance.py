"""Acceptance criteria for the engine, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live) and then asserts, so the suite is red whenever a criterion is.
"""
import dataclasses
import time

import numpy as np
import pytest

from cvarpath import (
    ConstraintMode,
    ConstraintVariant,
    ContinuationConfig,
    DegenerateProblemError,
    ExtremumAutopilot,
    FixedKappas,
    GeneratorSpec,
    ObjectiveKind,
    PathParams,
    build_losses,
    convergence_study,
    cvar,
    cvar_tail_average,
    dar,
    extremum_kappas,
    generate,
    hessian_sign_check,
    initial_state,
    portfolio_losses,
    run,
    solve_step,
)
from oracle import best_feasible_direction, kappa_grid_search, risk_contributions
from conftest import random_distribution, random_matrix, random_step_instance


def verdict(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{number}: {detail}")
    assert ok, f"criterion-{number}: {detail}"


def min_risk_config(**kw):
    base = dict(objective=ObjectiveKind.MIN_RISK,
                mode=ConstraintMode(ConstraintVariant.BOTH, "return"),
                kappa_policy=ExtremumAutopilot(fixed_revenue=True),
                beta=0.95, delta_c=1e-4, total_cost=0.1,
                steady_state_tol=0.0, steady_state_window=50)
    base.update(kw)
    return ContinuationConfig(**base)


def test_criterion_1_cvar_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        losses, probs = random_distribution(rng, max_scenarios=50)
        cdf = np.cumsum(probs[np.argsort(losses)])
        betas = [0.0, 0.5, 0.7, 0.8, 0.95,
                 float(cdf[len(cdf) // 2]),          # exactly on a CDF boundary
                 float(cdf[0] + 0.5 * (cdf[1] - cdf[0]))]  # strictly inside an atom
        for beta in betas:
            if not 0.0 <= beta < 1.0:
                continue
            want = cvar_tail_average(losses, probs, beta)
            got = cvar(losses, probs, beta)
            scale = max(abs(want), 1e-12)
            worst = max(worst, abs(got - want) / scale)
    elapsed = time.perf_counter() - start
    verdict(1, worst < 1e-12 and elapsed < 5.0,
            f"engine vs tail-average oracle, worst rel err {worst:.2e} "
            f"(tol 1e-12), {elapsed:.1f}s (< 5s)")


def test_criterion_2_euler_allocation():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        matrix = random_matrix(rng, n=n, k=int(rng.integers(5, 50)))
        state = initial_state(matrix, 0.05)
        table = build_losses(matrix)
        beta = float(rng.uniform(0.0, 0.95))
        contrib = risk_contributions(table, state, beta)
        total = cvar(portfolio_losses(table, state), table.probabilities, beta)
        d = dar(contrib, state)
        scale = max(abs(total), 1e-12)
        worst = max(worst,
                    abs(contrib.sum() - total) / scale,
                    abs(float(state.weights @ d) - total) / scale)
    elapsed = time.perf_counter() - start
    verdict(2, worst < 1e-10 and elapsed < 5.0,
            f"sum(contributions) = CVaR and sum(w*DaR) = CVaR, worst rel err "
            f"{worst:.2e} (tol 1e-10), {elapsed:.1f}s (< 5s)")


def test_criterion_3_step_feasibility_and_optimality():
    start = time.perf_counter()
    worst_feas = 0.0
    worst_gap = -np.inf
    variants = (ConstraintVariant.BOTH, ConstraintVariant.REVENUE_ONLY,
                ConstraintVariant.SECOND_ONLY, ConstraintVariant.NONE_ACTIVE)
    for vi, variant in enumerate(variants):
        rng = np.random.default_rng(2000 + vi)
        for trial in range(1000):
            n = int(rng.integers(3, 6))
            coeffs, consts, mode, params = random_step_instance(rng, variant, n=n)
            sol = solve_step(consts, coeffs, mode, params, maximize=True)
            if mode.has_revenue:
                worst_feas = max(worst_feas, abs(float(sol.y.sum()) - params.kappa1))
            if mode.has_second:
                worst_feas = max(worst_feas, abs(float(coeffs.h @ sol.y) - params.kappa2))
            worst_feas = max(worst_feas, abs(float((coeffs.c ** 2) @ (sol.y ** 2)) - 1.0))
            sample = best_feasible_direction(coeffs, mode, params,
                                             samples=100_000, seed=trial)
            worst_gap = max(worst_gap, sample.max_Q - sol.Q)
    elapsed = time.perf_counter() - start
    verdict(3, worst_feas < 1e-10 and worst_gap < 1e-6 and elapsed < 60.0,
            f"4000 instances: worst constraint residual {worst_feas:.2e} (tol 1e-10), "
            f"worst sampled-oracle excess {worst_gap:.2e} (tol 1e-6), "
            f"{elapsed:.1f}s (< 60s)")


def test_criterion_4_quadratic_structure():
    from cvarpath.projection import direction_parts

    worst = 0.0
    variants = (ConstraintVariant.BOTH, ConstraintVariant.REVENUE_ONLY,
                ConstraintVariant.SECOND_ONLY, ConstraintVariant.NONE_ACTIVE)
    for vi, variant in enumerate(variants):
        rng = np.random.default_rng(3000 + vi)
        for _ in range(1000):
            coeffs, consts, mode, params = random_step_instance(rng, variant)
            branch = direction_parts(consts, coeffs, mode, params)
            worst = max(worst, abs(float(np.sum(branch.P * branch.R / coeffs.c ** 2))))
    verdict(4, worst < 1e-10,
            f"multiplier polynomial linear coefficient, worst |sum(P*R/c^2)| "
            f"{worst:.2e} (tol 1e-10)")


def test_criterion_5_extremum_verification():
    start = time.perf_counter()
    worst_root = 0.0
    worst_cell = 0.0
    min_det = np.inf
    subcases = [
        (ConstraintVariant.BOTH, False, False, "B.1.1"),
        (ConstraintVariant.BOTH, True, False, "B.1.2"),
        (ConstraintVariant.BOTH, False, True, "B.1.3"),
        (ConstraintVariant.REVENUE_ONLY, False, False, "B.2"),
        (ConstraintVariant.SECOND_ONLY, False, False, "B.3"),
    ]
    step = 0.02
    for si, (variant, fix_rev, fix_sec, subcase) in enumerate(subcases):
        rng = np.random.default_rng(4000 + si)
        mode = ConstraintMode(variant)
        done = 0
        while done < 200:
            coeffs, consts, _, _ = random_step_instance(rng, variant)
            try:
                ext = extremum_kappas(consts, mode, fix_rev, fix_sec, maximize=True)
            except DegenerateProblemError:
                continue
            done += 1
            assert ext.subcase == subcase
            span = 5 * step
            bounds = ((ext.kappa1_bar - span, ext.kappa1_bar + span),
                      (ext.kappa2_bar - span, ext.kappa2_bar + span))
            grid = kappa_grid_search(consts, mode, step, bounds, maximize=True,
                                     fix_revenue=fix_rev, fix_second=fix_sec)
            worst_cell = max(worst_cell,
                             abs(grid.kappa1 - ext.kappa1_bar),
                             abs(grid.kappa2 - ext.kappa2_bar))
            if subcase == "B.1.1":
                sol = solve_step(consts, coeffs, mode,
                                 PathParams(ext.kappa1_bar, ext.kappa2_bar), True)
                worst_root = max(worst_root,
                                 abs(sol.Q - np.sqrt(consts.F)) / np.sqrt(consts.F))
                min_det = min(min_det, hessian_sign_check(consts, ext).determinant)
    elapsed = time.perf_counter() - start
    verdict(5, worst_cell <= step * 1.001 and worst_root < 1e-12
            and min_det > 0.0 and elapsed < 30.0,
            f"200 sets/subcase: grid argmax within one cell (worst {worst_cell:.3f}, "
            f"cell {step}), B.1.1 Q vs sqrt(F) rel err {worst_root:.2e} (tol 1e-12), "
            f"min Hessian det {min_det:.2e} (> 0), {elapsed:.1f}s (< 30s)")


def test_criterion_6_continuation_monotonicity(flagship):
    matrix, returns = flagship
    start = time.perf_counter()
    # Positioning phases walk the equal-weight start into the plateau basin;
    # the assessed run then descends with a per-step weight reach of
    # delta_c / c = 2e-6 so kink crossings cannot lift CVaR past tolerance.
    res = run(matrix, initial_state(matrix, returns, 0.1), min_risk_config())
    for cost in (1.0, 50.0):
        state = dataclasses.replace(res.terminal_state,
                                    cost_coefficients=np.full(50, cost))
        tol = 1e-6 if cost == 50.0 else 0.0
        res = run(matrix, state, min_risk_config(steady_state_tol=tol))
    records = res.records
    violations = 0
    worst_inc = 0.0
    for prev, cur in zip(records, records[1:]):
        inc = cur.cvar - prev.cvar
        if inc <= 0.0:
            continue
        worst_inc = max(worst_inc, inc / prev.cvar)
        at_kink = cur.tail_signature != prev.tail_signature
        if not at_kink or inc > 1e-6 * prev.cvar:
            violations += 1
    steady = res.reason == "steady-state" and res.terminal_record.c < 0.1

    # return maximisation with no constraints: exactly monotone return
    cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN,
                             mode=ConstraintMode(ConstraintVariant.NONE_ACTIVE),
                             kappa_policy=FixedKappas(), beta=0.95,
                             delta_c=1e-4, total_cost=0.1, steady_state_tol=0.0)
    up = run(matrix, initial_state(matrix, returns, 0.1), cfg)
    rets = [rec.total_return for rec in up.records]
    monotone_up = all(b >= a - 1e-15 for a, b in zip(rets, rets[1:]))
    elapsed = time.perf_counter() - start
    verdict(6, violations == 0 and steady and monotone_up and elapsed < 120.0,
            f"min-risk CVaR non-increasing ({violations} violations, worst kink "
            f"increase {worst_inc:.2e} <= 1e-6), steady state at c = "
            f"{res.terminal_record.c:.4f} (< 0.1), max-return monotone: {monotone_up}, "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_7_fixed_risk_invariance(flagship):
    matrix, returns = flagship
    cfg = ContinuationConfig(objective=ObjectiveKind.MAX_RETURN,
                             mode=ConstraintMode(ConstraintVariant.NONE_ACTIVE),
                             kappa_policy=FixedKappas(), beta=0.95,
                             delta_c=1e-4, total_cost=0.1,
                             fixed_total_risk=True, steady_state_tol=0.0)
    res = run(matrix, initial_state(matrix, returns, 0.1), cfg)
    base = res.records[0].cvar
    worst = max(abs(rec.cvar / base - 1.0) for rec in res.records)
    verdict(7, worst <= 1e-6,
            f"max |CVaR_m/CVaR_0 - 1| = {worst:.2e} over {len(res.records) - 1} "
            f"steps (tol 1e-6)")


def test_criterion_8_convergence_sweep(flagship):
    matrix, returns = flagship
    start = time.perf_counter()
    table = convergence_study(matrix, initial_state(matrix, returns, 1.0),
                              min_risk_config(), [1e-2, 1e-3, 1e-4], 0.01)
    errors = [row.error for row in table.rows[:-1]]
    decreasing = all(np.isfinite(e) for e in errors) and errors[0] > errors[1] > 0.0
    slope_ok = 0.3 < table.slope < 1.2
    elapsed = time.perf_counter() - start
    verdict(8, decreasing and slope_ok and elapsed < 600.0,
            f"errors vs reference {errors[0]:.2e} > {errors[1]:.2e} (strictly "
            f"decreasing), log-log slope {table.slope:.3f} in (0.3, 1.2), "
            f"{elapsed:.1f}s (< 10min)")


def test_criterion_9_performance_budget():
    def timed(k):
        spec = GeneratorSpec(seed=42, n_groups=50, n_scenarios=k,
                             blocks=((10, 0.8), (10, 0.5), (10, 0.2),
                                     (10, 0.6), (10, 0.0)),
                             tail=0.8, loss_scale=0.15)
        matrix = generate(spec)
        returns = np.random.default_rng(7).uniform(0.01, 0.12, 50)
        state = initial_state(matrix, returns, 1.0)
        t0 = time.perf_counter()
        res = run(matrix, state, min_risk_config())
        assert res.terminal_record.step == 1000
        return time.perf_counter() - t0

    base = timed(2000)
    doubled = timed(4000)
    ratio = doubled / base
    verdict(9, base < 60.0 and ratio <= 2.6,
            f"N=50 K=2000 M=1000 run in {base:.1f}s (< 60s), K-doubling ratio "
            f"{ratio:.2f} (<= 2.6)")


def test_criterion_10_ratio_path_beats_risk_path():
    def terminal(matrix, returns, objective, mode, policy):
        cfg = ContinuationConfig(objective=objective, mode=mode, kappa_policy=policy,
                                 beta=0.95, delta_c=1e-3, total_cost=0.1,
                                 steady_state_tol=0.0)
        return run(matrix, initial_state(matrix, returns, 0.02), cfg).terminal_record.cvar_rel

    wins = 0
    for seed in range(20):
        spec = GeneratorSpec(seed=seed, n_groups=20, n_scenarios=500,
                             blocks=((5, 0.7), (5, 0.4), (5, 0.1), (5, 0.0)),
                             tail=0.6, loss_scale=0.12)
        matrix = generate(spec)
        returns = np.random.default_rng(seed + 100).uniform(0.045, 0.055, 20)
        risk_path = terminal(matrix, returns, ObjectiveKind.MIN_RISK,
                             ConstraintMode(ConstraintVariant.BOTH, "return"),
                             ExtremumAutopilot(fixed_revenue=True))
        ratio_path = terminal(matrix, returns, ObjectiveKind.MAX_RETURN_TO_RISK,
                              ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                              FixedKappas(0.0, 0.0))
        if ratio_path < risk_path:
            wins += 1
    verdict(10, wins >= 1,
            f"ratio-maximisation path ended with strictly lower CVaR than "
            f"risk-minimisation on {wins}/20 seeds (need >= 1)")
