"""Independent oracles for test expectations.

These deliberately re-derive expected values from first principles (erfc
arithmetic, exhaustive enumeration, numeric integration) instead of calling
the package's analytic module, so each Monte Carlo or closed-form result in
the package is checked against a second, independent route.
"""
from __future__ import annotations

import math

import numpy as np

from spincim.device import Collapse, MeanShift, MtjState, _per_row, pair_index


def q(z: float) -> float:
    """Standard normal upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_exceed(mean: float, sigma: float, ref: float) -> float:
    if sigma == 0:
        return 1.0 if mean > ref else 0.0
    return q((ref - mean) / sigma)


def collapse_pair_exceed(
    ladder: tuple[float, float, float],
    base: int,
    sigma: float,
    ref: float,
    rho: float,
) -> float:
    """Binomial mixture over 0..(2-base) collapses of heated AP cells."""
    n = 2 - base
    total = 0.0
    for k in range(n + 1):
        w = math.comb(n, k) * rho**k * (1 - rho) ** (n - k)
        total += w * gaussian_exceed(ladder[base + k], sigma, ref)
    return total


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def wilson(successes: int, n: int, z: float = 1.959963984540054):
    phat = successes / n
    denom = 1 + z * z / n
    centre = phat + z * z / (2 * n)
    spread = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return ((centre - spread) / denom, (centre + spread) / denom)


def nearest_centroid_accuracy_by_integration(
    centroids: np.ndarray,
    sigma_d: float,
    sigma_e: float,
    grid: int = 801,
    span_sigmas: float = 8.0,
) -> float:
    """Expected accuracy of nearest-centroid classification by 2D quadrature.

    Observations are Gaussian around each (known) centroid with a diagonal
    covariance; decision regions use the same diagonal metric. Integrates the
    class-conditional density over each class's decision region on a grid in
    whitened offset coordinates.
    """
    sig = np.array([sigma_d, sigma_e])
    white = centroids / sig
    axis = np.linspace(-span_sigmas, span_sigmas, grid)
    step = axis[1] - axis[0]
    dx, dy = np.meshgrid(axis, axis, indexing="ij")
    density = (
        np.exp(-0.5 * (dx**2 + dy**2)) / (2.0 * math.pi) * step * step
    )
    total = 0.0
    for c in range(len(centroids)):
        px = white[c, 0] + dx
        py = white[c, 1] + dy
        d2 = (px[..., None] - white[None, None, :, 0]) ** 2 + (
            py[..., None] - white[None, None, :, 1]
        ) ** 2
        correct = d2.argmin(axis=2) == c
        total += float((density * correct).sum())
    return total / len(centroids)


def int_add_oracle(a: int, b: int, width: int) -> tuple[int, int]:
    """Reference unsigned adder: (sum mod 2^width, carry out)."""
    total = a + b
    return total & ((1 << width) - 1), total >> width


def scalar_pair_current(states, model, disturbance, rng):
    """The one-call scalar pair sampler as it stood before per-report setup.

    Kept verbatim (every step redone on each call) as the reference that
    ``device.pair_sampler`` must match draw for draw and bit for bit.
    """
    idx = pair_index(states)
    collapsible = [
        d for s, d in zip(states, _per_row(disturbance, 2))
        if s is MtjState.AP and isinstance(d, Collapse)
    ]
    if rng is None and (bool(collapsible) or model.sigma > 0):
        raise ValueError("a random generator is required for stochastic sampling")
    for d in collapsible:
        idx += rng.random() < d.rho(model.ambient_temp)
    value = model.pair_ladder[idx]
    if isinstance(disturbance, MeanShift):
        value += disturbance.shifts[idx]
    if model.sigma > 0:
        return value + rng.normal(0.0, model.sigma)
    return value
