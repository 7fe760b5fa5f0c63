"""Exact solvers by deficit branching: ground truth for certification and tests.

The search runs best-first over copy vectors (copies per element, ascending
id) from the all-zero vector, popping the smallest key (weight, size,
vector) from one heap; size mode gives every element weight 0.  An
infeasible vector is extended by one copy only at elements that can fix its
deficit: the members of a set nothing can serve yet, or else the members of
the sets a failed matching round scanned (a Hall violator).  Each vector
carries the bitmask of the sets its bought members lie in, the OR of their
Instance.hits masks, so the lowest unserved set is read off it.  Any
feasible vector above an infeasible one buys more of some such element, so
every feasible vector that is minimal under the componentwise order is
reached, and with nonnegative weights every optimum is such a vector.  A
child's key exceeds its parent's, so the first feasible vector popped is
the optimum.
"""

from __future__ import annotations

import heapq
import math

from .core import Assignment, Instance, Result, Solution, copy_limit
from .errors import BudgetExceeded
from .feasibility import _augment, checked_assignment

DEFAULT_CANDIDATE_BUDGET = 10**6


def _limits(inst: Instance, k: int) -> list[tuple[int, int]]:
    """(element id, copy_limit) in ascending id order."""
    return [(e.id, copy_limit(e, k)) for e in sorted(inst.elements, key=lambda e: e.id)]


def _count_vectors(limits, k: int) -> int:
    """Number of copies vectors with per-element bounds and total at most k,
    by inclusion-exclusion: C(k - s + n, n) vectors of n elements have total
    at most k - s, and each limit below k excludes those buying more than it,
    so the sum runs over the subsets T of those limits with
    s = sum of (lim + 1) over T at most k, signed (-1)^|T|.  A limit that
    reaches k bounds nothing."""
    signed = {0: 1}  # s -> the signed number of subsets T summing to s
    for _, lim in limits:
        if lim < k:
            for s, c in list(signed.items()):
                if s + lim + 1 <= k:
                    signed[s + lim + 1] = signed.get(s + lim + 1, 0) - c
    n = len(limits)
    return sum(c * math.comb(k - s + n, n) for s, c in signed.items())


def _search(inst: Instance, k: int, budget: int, weighted: bool) -> Result | None:
    """The feasible copy vector of size at most k with the smallest key
    (weight, size, vector), as a Result, or None; every weight is 0 unless
    weighted.  Its assignment is the matching that found the vector feasible,
    which is check_feasible's: both run _augment over each set's members in
    ascending id, and a member with zero room, unbought or of cap 0, takes
    no set.

    Vectors run over the _limits order and never exceed its limits, so the
    search visits at most the _count_vectors candidates the budget is
    checked against.  No vector exceeds the sum of the limits either, so k
    is cut to it first.  A child's key is larger than its parent's, so every
    parent of a vector pops before it: queued holds the vectors on the heap,
    and a vector already popped is never pushed again.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not inst.family:
        return Result(Solution(copies={}), Assignment(target={}), 0)  # no search, no precheck
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
        """(the matching's target, None) when vec is feasible, else (None, the
        positions to branch on).  served has a bit per set a bought member
        holds; only rows are branched on, so every bought member has cap > 0."""
        j = ((served + 1) & ~served).bit_length() - 1  # the lowest unserved set
        if j < len(rows):
            return None, [p for p in rows[j] if vec[p] < lims[p]]
        target, scanned = _augment(rows, {p: caps[p] * c for p, c in enumerate(vec)})
        if scanned is None:
            return target, None
        return None, {p for j in scanned for p in rows[j] if vec[p] < lims[p]}

    # (weight, size, vector, served-sets bitmask); weight and mask are carried
    # from the parent.
    heap = [(0, 0, (0,) * len(limits), 0)]
    queued = {heap[0][2]}
    while heap:
        w, t, vec, served = heapq.heappop(heap)
        queued.remove(vec)
        target, branch = deficit(vec, served)
        if target is not None:
            sol = Solution(copies={x: c for (x, _), c in zip(limits, vec) if c > 0})
            asg = checked_assignment(inst, sol, {j: limits[p][0] for j, p in target.items()})
            return Result(sol, asg, sol.weight(inst))
        if t < k:
            for p in branch:
                child = vec[:p] + (vec[p] + 1,) + vec[p + 1:]
                if child not in queued:
                    queued.add(child)
                    heapq.heappush(heap, (w + weights[p], t + 1, child, served | hits[p]))
    return None


def solve_exact(inst: Instance, k: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> Result | None:
    """Minimum-size feasible solution of size at most k, or None.

    Candidates are multisets with copies(x) <= min(k, mult(x)); ties are
    broken by the lexicographically smallest copies vector (ascending id
    order).  The search visits only copy vectors that fix a deficit, but the
    budget counts every candidate vector: raises BudgetExceeded when there
    are more than budget of them, never conflating that with infeasibility,
    and ValueError for k < 0.  Without sets the answer is empty, unbudgeted.
    """
    return _search(inst, k, budget, weighted=False)


def solve_exact_weighted(inst: Instance, k: int,
                         budget: int = DEFAULT_CANDIDATE_BUDGET) -> Result | None:
    """Minimum-weight feasible solution among those of size at most k.

    Ties go to the smaller size, then the lexicographically smallest copies
    vector.  Same budget behavior as solve_exact.
    """
    return _search(inst, k, budget, weighted=True)
