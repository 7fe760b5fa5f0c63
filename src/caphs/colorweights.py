"""Seeded random colorings (perfect-hash stand-in) and weight estimates."""

from __future__ import annotations

import math

import numpy as np

from .core import Instance


def random_colorings(ids, k: int, trials: int, seed: int) -> list[list[list[int]]]:
    """trials independent colorings of ids into k ordered parts.

    Every id gets a uniform color in [k]; parts may be empty.  Deterministic
    for a fixed (ids, k, trials, seed).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    ids = list(ids)
    rng = np.random.default_rng(int(seed))
    colors = rng.integers(0, k, size=(trials, len(ids))).tolist()
    out = []
    for row in colors:
        parts: list[list[int]] = [[] for _ in range(k)]
        for x, c in zip(ids, row):
            parts[c].append(x)
        out.append(parts)
    return out


def default_trials(n: int, k: int) -> int:
    """ceil(e^k * k * ln(n+1)): enough trials to separate a hidden k-subset whp."""
    return max(1, math.ceil(math.exp(k) * k * math.log(n + 1)))


def weight_estimates(inst: Instance, k: int) -> list[int]:
    """Doubling sweep {w_min * 2^j} clipped to [w_min, sum of weights].

    Some entry is within a factor 2 of any optimum weight in range, which is
    all the driver needs from the estimate step.
    """
    if not inst.elements:
        raise ValueError("instance has no elements")
    weights = [e.weight for e in inst.elements]
    w_min = min(weights)
    total = sum(weights)
    out = [w_min]
    last = w_min
    while last < total:
        last = min(total, last * 2 if last > 0 else 1)
        out.append(last)
    return out
