"""A brute-force CVaR reference, independent of the engine's tail split.

The tail average sorts and accumulates mass from the top instead of scanning
a CDF.  The benchmark checks runs at non-reference seeds against it; the
other slow references live beside the tests.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError


def cvar_tail_average(losses, probabilities, beta):
    """Mass-weighted average of the worst (1 - beta) probability of losses.

    Sorts descending and walks down until the tail mass is filled, splitting
    the boundary scenario pro-rata.  No VaR or CDF machinery involved.
    """
    losses = np.asarray(losses, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if not 0.0 <= beta < 1.0:
        raise DomainError(f"confidence level must be in [0, 1), got {beta!r}")
    need = 1.0 - beta
    order = np.argsort(-losses, kind="stable")
    remaining = need
    acc = 0.0
    for i in order:
        take = min(float(probabilities[i]), remaining)
        acc += take * float(losses[i])
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / need
