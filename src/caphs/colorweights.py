"""Seeded random colorings (perfect-hash stand-in) and weight estimates."""

from __future__ import annotations

import math
import sys

from .core import Instance
from .pcg import Stream


class Colorings:
    """The colorings random_colorings returns, drawn as they are iterated.

    rows() reseeds a Stream and draws each coloring as one row of colors, one
    per id, with a single Stream.bounded_row call, so a caller that stops early
    draws no row it does not use; parts(row) turns a row into its k parts, and
    iterating yields parts(row) for every row.  With one part every row is
    zeros, so nothing is drawn and no Stream is built.
    """

    def __init__(self, ids, k: int, trials: int, seed: int):
        self.ids = list(ids)
        self.k = k
        self.trials = trials
        self.seed = int(seed)

    def __len__(self) -> int:
        return self.trials

    def __iter__(self):
        return map(self.parts, self.rows())

    def rows(self):
        """Each coloring as the list of its ids' colors, in [0, k)."""
        n = len(self.ids)
        if self.k == 1:
            for _ in range(self.trials):
                yield [0] * n
            return
        draw, r = Stream(self.seed).bounded_row, self.k - 1
        for _ in range(self.trials):
            yield draw(r, n)

    def parts(self, row) -> list[list[int]]:
        """The k parts of a row: part c lists the ids colored c, in the order of ids."""
        parts: list[list[int]] = [[] for _ in range(self.k)]
        for x, c in zip(self.ids, row):
            parts[c].append(x)
        return parts


def random_colorings(ids, k: int, trials: int, seed: int) -> Colorings:
    """trials independent colorings of ids into k ordered parts, drawn lazily.

    Every id gets a uniform color in [k]; parts may be empty.  The result is a
    sized iterable (len() is trials) that draws colorings as it is iterated;
    they are the same colorings, in the same order, as the rows of one
    (trials, len(ids)) table of numpy.random.default_rng(seed).integers(0, k),
    reproduced in pure Python by caphs.pcg without numpy.  Deterministic for
    a fixed (ids, k, trials, seed), and every iteration repeats them.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    return Colorings(ids, k, trials, seed)


def default_trials(n: int, k: int) -> int:
    """ceil(e^k * k * ln(n+1)): enough trials to separate a hidden k-subset whp.

    Clamped to [1, sys.maxsize], also past the float range (from k = 703 at n = 12).
    """
    if n < 1:
        return 1  # ln(1) = 0
    try:
        return min(sys.maxsize, max(1, math.ceil(math.exp(k) * k * math.log(n + 1))))
    except OverflowError:
        return sys.maxsize


def weight_estimates(inst: Instance) -> list[int]:
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
