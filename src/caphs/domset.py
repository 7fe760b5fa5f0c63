"""Red-blue dominating sets on bipartite graphs.

min_dominator_forced is the exact enumerator the extended-tuple solver uses
to pick the parts that take two elements (the red side there has at most k
nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class BipartiteGraph:
    reds: tuple
    blues: tuple
    adj: dict  # blue -> tuple of reds, multi-edges collapsed

    def __post_init__(self):
        red_set = set(self.reds)
        norm = {}
        for v in self.blues:
            nbrs = tuple(sorted(set(self.adj.get(v, ()))))
            for r in nbrs:
                if r not in red_set:
                    raise ValueError(f"blue {v} adjacent to unknown red {r}")
            norm[v] = nbrs
        object.__setattr__(self, "adj", norm)

    def red_neighbors(self) -> dict:
        inv = {r: set() for r in self.reds}
        for v, nbrs in self.adj.items():
            for r in nbrs:
                inv[r].add(v)
        return inv


def min_dominator_forced(g: BipartiteGraph, forced):
    """Minimum red set containing forced with N(D) = B; None when impossible.

    Ties at the minimum size go to the lexicographically smallest set.  The
    enumeration is over all red subsets, so keep |R| small (at most k in the
    solver).
    """
    forced = set(forced)
    reds = sorted(g.reds)
    if not forced <= set(reds):
        raise ValueError("forced vertices must be reds")
    inv = g.red_neighbors()
    blues = set(g.blues)
    if any(not g.adj[v] for v in g.blues):
        return None
    for size in range(len(forced), len(reds) + 1):
        for combo in combinations(reds, size):
            cs = set(combo)
            if not forced <= cs:
                continue
            covered = set()
            for red in combo:
                covered |= inv[red]
            if covered >= blues:
                return tuple(combo)
    return None
