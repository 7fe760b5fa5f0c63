"""Red-blue dominating sets on bipartite graphs.

construct_small_dominator realizes the constructive (b+r)/3 bound: repeatedly
grab a red with two or more undominated blue neighbors, then finish with one
neighbor per leftover blue.  min_dominator_forced is the exact enumerator the
extended-tuple solver actually uses (the red side there has at most k nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvariantViolated, PreconditionViolated


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


def construct_small_dominator(g: BipartiteGraph):
    """Dominating red set of size at most floor((b+r)/3).

    Preconditions (checked): every blue has degree at least 2 and r < 2b.
    Deterministic: every pick takes the smallest eligible id.
    """
    b, r = len(g.blues), len(g.reds)
    for v in g.blues:
        if len(g.adj[v]) < 2:
            raise PreconditionViolated(f"blue {v} has degree {len(g.adj[v])} < 2")
    if not r < 2 * b:
        raise PreconditionViolated(f"need r < 2b, got r={r}, b={b}")
    inv = g.red_neighbors()
    undominated = set(g.blues)
    D: list = []
    while True:
        eligible = [red for red in g.reds
                    if red not in D and len(inv[red] & undominated) >= 2]
        if not eligible:
            break
        pick = min(eligible)
        D.append(pick)
        undominated -= inv[pick]
    for v in sorted(undominated):
        if v not in undominated:
            continue
        pick = min(g.adj[v])
        D.append(pick)
        undominated -= inv[pick]
    if undominated:
        raise InvariantViolated("construction left a blue undominated")
    if len(D) > (b + r) // 3:
        raise InvariantViolated(f"|D|={len(D)} beats the (b+r)/3 bound")
    return tuple(sorted(D))


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
