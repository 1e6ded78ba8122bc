"""Closed-form decode and failure probabilities.

These are the analytic counterparts of the Monte Carlo sampling paths: pure
arithmetic over Gaussian tails and collapse Bernoullis, never touching a
random generator. Every reported Monte Carlo rate carries one of these as its
oracle. The exceedance oracle :func:`law_exceed` reads a sense's resolved
law, the one the sampler draws under.
"""
from __future__ import annotations

import math

from .device import CellDisturbances, CurrentLevelModel, MtjState, column_law


def normal_tail(z: float) -> float:
    """Standard normal upper tail Q(z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def exceed_prob(mean: float, sigma: float, ref: float) -> float:
    """P(N(mean, sigma) > ref); a step function when sigma is zero."""
    if sigma <= 0:
        return 1.0 if mean > ref else 0.0
    return normal_tail((ref - mean) / sigma)


def law_exceed(law, bits, ref: float, sigma: float) -> float:
    """Closed-form P(sense current > ref) of a column of ``bits`` (one 0/1 per
    row) under ``law``, a :func:`~spincim.device.column_law`: a sum over which
    AP cells collapse, each independently at its row's rate, one level up."""
    levels, collapses = law
    base = sum(bits)
    rhos = [rho for row, rho in collapses if not bits[row]]
    total = 0.0
    for mask in range(1 << len(rhos)):
        weight, level = 1.0, base
        for i, rho in enumerate(rhos):
            hit = mask >> i & 1
            weight, level = weight * (rho if hit else 1.0 - rho), level + hit
        total += weight * exceed_prob(levels[level], sigma, ref)
    return total


def pair_exceed(
    model: CurrentLevelModel,
    cells: tuple[MtjState, ...],
    ref: float,
    disturbance: CellDisturbances = None,
) -> float:
    """Closed-form P(sense current > ref) of one cell or a pair, by :func:`law_exceed`."""
    law = column_law(len(cells), model, disturbance)
    return law_exceed(law, [cell.bit for cell in cells], ref, model.sigma)


def binomial_stderr(p: float, n: int) -> float:
    """Standard error of an empirical rate with true probability p."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def wilson_interval(failures: int, trials: int):
    """Wilson 95% score interval for a binomial proportion, clamped to [0, 1]."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054
    phat = failures / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials**2))
    # the score bounds are exact at the observed extremes
    low = 0.0 if failures == 0 else max((centre - spread) / denom, 0.0)
    high = 1.0 if failures == trials else min((centre + spread) / denom, 1.0)
    return (low, high)
