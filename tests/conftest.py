"""Shared builders for the test suite."""
import numpy as np
import pytest

from cvarpath import (
    ConstraintMode,
    ConstraintVariant,
    Coefficients,
    FixedKappas,
    GeneratorSpec,
    InfeasibleStepError,
    ScenarioMatrix,
    constants,
    generate,
    initial_state,
    solve_step,
)


def random_distribution(rng, max_scenarios=50):
    """A discrete loss distribution with ties so atom splitting is exercised."""
    k = int(rng.integers(3, max_scenarios + 1))
    losses = rng.normal(0.0, 1.0, k)
    # duplicate a few losses so the VaR atom can hold more than one scenario
    dup = int(rng.integers(0, max(k // 3, 1)))
    if dup:
        idx = rng.integers(0, k, dup)
        losses[idx] = losses[rng.integers(0, k, dup)]
    probs = rng.uniform(0.1, 1.0, k)
    probs /= probs.sum()
    return losses, probs


def random_matrix(rng, n=None, k=None):
    n = n or int(rng.integers(2, 6))
    k = k or int(rng.integers(5, 40))
    initial = rng.uniform(5.0, 20.0, n)
    losses = rng.normal(0.0, 1.0, (k, n)) * initial[None, :] * 0.1
    values = initial[None, :] - losses
    probs = rng.uniform(0.1, 1.0, k)
    probs /= probs.sum()
    return ScenarioMatrix(initial_values=initial, values=values, probabilities=probs)


def random_step_instance(rng, variant, n=None):
    """Random coefficients, constants, and feasible path rates for one step."""
    n = n or int(rng.integers(3, 6))
    f = rng.normal(0.0, 1.0, n)
    h = rng.normal(0.0, 1.0, n)
    c = rng.uniform(0.5, 2.0, n)
    mode = ConstraintMode(variant)
    coeffs = Coefficients(f=f, h=h if mode.has_second else None, c=c)
    consts = constants(coeffs)
    k1 = float(rng.uniform(-0.3, 0.3)) * np.sqrt(consts.U) if mode.has_revenue else 0.0
    k2 = float(rng.uniform(-0.3, 0.3)) * np.sqrt(max(consts.W, consts.U)) if mode.has_second else 0.0

    def a2(k1, k2):
        """The step's a2; rates outside the unit ellipsoid (a2 >= 0) count as 0."""
        try:
            return solve_step(consts, coeffs, mode, FixedKappas(k1, k2), maximize=True).a2
        except InfeasibleStepError:
            return 0.0

    # shrink the rates until the constraint planes cut the unit ellipsoid
    while a2(k1, k2) > -0.05:
        k1 *= 0.5
        k2 *= 0.5
    return coeffs, consts, mode, FixedKappas(kappa1=k1, kappa2=k2)


FLAGSHIP_BLOCKS = ((10, 0.8), (10, 0.5), (10, 0.2), (10, 0.6), (10, 0.0))


def flagship_spec(n_scenarios=2000):
    return GeneratorSpec(seed=42, n_groups=50, n_scenarios=n_scenarios,
                         blocks=FLAGSHIP_BLOCKS, tail=0.8, loss_scale=0.15)


def flagship_returns(n=50):
    return np.random.default_rng(7).uniform(0.01, 0.12, n)


@pytest.fixture(scope="session")
def flagship():
    """The N=50, K=2000 synthetic portfolio used by the acceptance runs."""
    matrix = generate(flagship_spec())
    return matrix, flagship_returns()


def small_portfolio(seed=0, n=6, k=300):
    rng = np.random.default_rng(seed)
    matrix = random_matrix(rng, n=n, k=k)
    returns = rng.uniform(0.01, 0.1, n)
    return matrix, initial_state(matrix, returns)
