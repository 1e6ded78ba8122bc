"""Closed-form decode and failure probabilities.

These are the analytic counterparts of the Monte Carlo sampling paths: pure
arithmetic over Gaussian tails and collapse Bernoullis, never touching a
random generator. Every reported Monte Carlo rate carries one of these as its
oracle.
"""
from __future__ import annotations

import math

from .device import (
    Collapse,
    CellDisturbances,
    CurrentLevelModel,
    Disturbance,
    MeanShift,
    MtjState,
    PairState,
    collapse_rates,
    pair_index,
)


def normal_tail(z: float) -> float:
    """Standard normal upper tail Q(z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def exceed_prob(mean: float, sigma: float, ref: float) -> float:
    """P(N(mean, sigma) > ref); a step function when sigma is zero."""
    if sigma <= 0:
        return 1.0 if mean > ref else 0.0
    return normal_tail((ref - mean) / sigma)


def pair_exceed(
    model: CurrentLevelModel,
    states: PairState,
    ref: float,
    disturbance: CellDisturbances = None,
) -> float:
    """Closed-form P(pair sense current > ref) under a disturbance.

    Per-cell disturbances may carry different collapse rates; each heated AP
    cell collapses independently at its own rate.
    """
    base = pair_index(states)
    if isinstance(disturbance, MeanShift):
        return exceed_prob(
            model.pair_ladder[base] + disturbance.shifts[base], model.sigma, ref
        )
    rhos = collapse_rates(states, model, disturbance)
    if not rhos:
        return exceed_prob(model.pair_ladder[base], model.sigma, ref)
    total = 0.0
    for mask in range(1 << len(rhos)):
        weight = 1.0
        collapsed = 0
        for i, rho in enumerate(rhos):
            if mask >> i & 1:
                weight *= rho
                collapsed += 1
            else:
                weight *= 1.0 - rho
        total += weight * exceed_prob(
            model.pair_ladder[base + collapsed], model.sigma, ref
        )
    return total


def single_exceed(
    model: CurrentLevelModel,
    state: MtjState,
    ref: float,
    disturbance: Disturbance = None,
) -> float:
    """Closed-form P(single-cell sense current > ref) under a disturbance."""
    mean = model.single_level(state)
    if (
        isinstance(disturbance, Collapse)
        and state is MtjState.AP
    ):
        rho = disturbance.rho(model.ambient_temp)
        return (1.0 - rho) * exceed_prob(mean, model.sigma, ref) + rho * exceed_prob(
            model.mu_p, model.sigma, ref
        )
    return exceed_prob(mean, model.sigma, ref)


def binomial_stderr(p: float, n: int) -> float:
    """Standard error of an empirical rate with true probability p."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for a binomial proportion, clamped to [0, 1]."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials**2))
    # the score bounds are exact at the observed extremes
    low = 0.0 if failures == 0 else max((centre - spread) / denom, 0.0)
    high = 1.0 if failures == trials else min((centre + spread) / denom, 1.0)
    return (low, high)
