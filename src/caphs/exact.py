"""Exact solvers by deficit branching: ground truth for certification and tests.

The search walks copy vectors (copies per element, ascending id) level by
level from the all-zero vector, one copy more per step.  An infeasible
vector is extended only at elements that can fix its deficit: the members of
a set nothing can serve yet, or else the members of the sets a failed
matching round scanned (a Hall violator).  Each vector carries the bitmask
of the sets its bought members lie in, the OR of their Instance.hits masks,
so the lowest unserved set is read off it.  Any feasible vector above an
infeasible one buys more of some such element, so every feasible vector
that is minimal under the componentwise order is reached, and with
nonnegative weights every optimum below is such a vector.
"""

from __future__ import annotations

import itertools
import math

from .core import Instance, Result, Solution
from .errors import BudgetExceeded
from .feasibility import _augment, check_feasible

DEFAULT_CANDIDATE_BUDGET = 10**6


def _limits(inst: Instance, k: int) -> list[tuple[int, int]]:
    """(element id, clamped max copies) in ascending id order."""
    return [(e.id, k if e.mult is None else min(k, e.mult))
            for e in sorted(inst.elements, key=lambda e: e.id)]


def _count_vectors(limits, k: int) -> int:
    """Number of copies vectors with per-element bounds and total at most k: a DP
    counts the vectors under the limits below k by total t, and the u limits
    that reach k bound nothing, so they share the rest in C(k - t + u, u) ways."""
    bounded = [lim for _, lim in limits if lim < k]
    free = len(limits) - len(bounded)
    top = min(k, sum(bounded))
    ways = [1] + [0] * top
    for lim in bounded:
        # nxt[t] sums ways[t - lim .. t]: a difference of prefix sums.
        prefix = list(itertools.accumulate(ways, initial=0))
        ways = [prefix[t + 1] - prefix[max(0, t - lim)] for t in range(top + 1)]
    return sum(w * math.comb(k - t + free, free) for t, w in enumerate(ways))


def _search(inst: Instance, k: int, budget: int, weighted: bool):
    """The feasible copy vector of size at most k with the smallest key, as a
    Solution, or None.

    The key is (size, vector) or, when weighted, (weight, size, vector).
    Vectors run over the _limits order and never exceed its limits, so the
    search visits at most the _count_vectors candidates the budget is
    checked against.  No vector exceeds the sum of the limits either, so k
    is cut to it first, and the search stops at the first empty level.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not inst.family:
        return Solution(copies={})  # nothing to hit: no search, no precheck
    limits = _limits(inst, k)
    k = min(k, sum(lim for _, lim in limits))  # the same vectors, so the same count
    count = _count_vectors(limits, k)
    if count > budget:
        raise BudgetExceeded(f"{count} candidate multisets exceed the budget of {budget}")
    pos = {x: p for p, (x, _) in enumerate(limits)}
    lims = [lim for _, lim in limits]
    caps = [inst.element(x).cap for x, _ in limits]
    weights = [inst.element(x).weight if weighted else 0 for x, _ in limits]
    hits = [inst.hits[x] for x, _ in limits]
    # Per set, the positions of its members that can take it at all.
    rows = [[pos[x] for x in s if caps[pos[x]] > 0] for s in inst.family]

    def deficit(vec, served):
        """None when vec is feasible, else the positions to branch on.  served
        has a bit per set a bought member holds; only rows are branched on, so
        every bought member has cap > 0."""
        j = ((served + 1) & ~served).bit_length() - 1  # the lowest unserved set
        if j < len(rows):
            return [p for p in rows[j] if vec[p] < lims[p]]
        room = {p: caps[p] * c for p, c in enumerate(vec) if c}
        _, scanned = _augment([[p for p in row if vec[p]] for row in rows], room)
        if scanned is None:
            return None
        return {p for j in scanned for p in rows[j] if vec[p] < lims[p]}

    best = None  # the smallest (weight, size, vector) found; weight 0 for size
    # Each vector of a level maps to its (served-sets bitmask, weight), both
    # carried from its parent.
    level = {(0,) * len(limits): (0, 0)}
    for t in range(k + 1):
        nxt = {}
        for vec in sorted(level):
            served, w = level[vec]
            key = (w, t, vec)
            if best is not None and key >= best:
                continue
            branch = deficit(vec, served)
            if branch is None:
                best = key
                if not weighted:
                    break  # the first feasible vector of the lowest level wins
                continue
            if t < k and (best is None or w < best[0]):
                for p in branch:
                    nxt[vec[:p] + (vec[p] + 1,) + vec[p + 1:]] = (served | hits[p], w + weights[p])
        if (best is not None and not weighted) or not nxt:
            break
        level = nxt
    if best is None:
        return None
    vec = best[2]
    return Solution(copies={x: c for (x, _), c in zip(limits, vec) if c > 0})


def solve_exact(inst: Instance, k: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> Result | None:
    """Minimum-size feasible solution of size at most k, or None.

    Candidates are multisets with copies(x) <= min(k, mult(x)); ties are
    broken by the lexicographically smallest copies vector (ascending id
    order).  The search visits only copy vectors that fix a deficit, but the
    budget counts every candidate vector: raises BudgetExceeded when there
    are more than budget of them, never conflating that with infeasibility,
    and ValueError for k < 0.  Without sets the answer is empty, unbudgeted.
    """
    sol = _search(inst, k, budget, weighted=False)
    return None if sol is None else Result(sol, check_feasible(inst, sol), sol.weight(inst))


def solve_exact_weighted(inst: Instance, k: int,
                         budget: int = DEFAULT_CANDIDATE_BUDGET) -> Result | None:
    """Minimum-weight feasible solution among those of size at most k.

    Ties go to the smaller size, then the lexicographically smallest copies
    vector.  Same budget behavior as solve_exact.
    """
    sol = _search(inst, k, budget, weighted=True)
    return None if sol is None else Result(sol, check_feasible(inst, sol), sol.weight(inst))
