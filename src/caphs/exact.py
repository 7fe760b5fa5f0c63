"""Brute-force exact solvers: ground truth for certification and tests."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Assignment, Instance, Solution
from .errors import BudgetExceeded
from .feasibility import check_feasible

DEFAULT_CANDIDATE_BUDGET = 10**6


@dataclass(frozen=True)
class ExactResult:
    solution: Solution
    assignment: Assignment


@dataclass(frozen=True)
class WeightedResult:
    solution: Solution
    assignment: Assignment
    weight: int


def _limits(inst: Instance, k: int) -> list[tuple[int, int]]:
    """(element id, clamped max copies) in ascending id order."""
    out = []
    for e in sorted(inst.elements, key=lambda e: e.id):
        mult = k if e.mult is None else min(k, e.mult)
        out.append((e.id, mult))
    return out


def _count_vectors(limits, k: int) -> int:
    """Number of copies vectors with per-element bounds and total at most k."""
    ways = [1] + [0] * k
    for _, lim in limits:
        nxt = [0] * (k + 1)
        for t in range(k + 1):
            if ways[t]:
                for c in range(0, min(lim, k - t) + 1):
                    nxt[t + c] += ways[t]
        ways = nxt
    return sum(ways)


def _iter_vectors(limits, total: int):
    """All copies vectors summing to exactly total, lexicographically ascending."""
    n = len(limits)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + limits[i][1]
    vec = [0] * n

    def rec(i: int, rem: int):
        if i == n:
            if rem == 0:
                yield tuple(vec)
            return
        if rem > suffix_max[i]:
            return
        for c in range(0, min(limits[i][1], rem) + 1):
            vec[i] = c
            yield from rec(i + 1, rem - c)
        vec[i] = 0

    yield from rec(0, total)


def _vector_solution(limits, vec) -> Solution:
    return Solution(copies={x: c for (x, _), c in zip(limits, vec) if c > 0})


def _enumerate_feasible(inst: Instance, k: int, budget: int):
    """Yield (size, vec, sol, asg) for every feasible candidate, ordered by
    size then lexicographic copies vector."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    limits = _limits(inst, k)
    count = _count_vectors(limits, k)
    if count > budget:
        raise BudgetExceeded(f"{count} candidate multisets exceed the budget of {budget}")
    caps = {e.id: e.cap for e in inst.elements}
    for t in range(k + 1):
        for vec in _iter_vectors(limits, t):
            if sum(caps[x] * c for (x, _), c in zip(limits, vec)) < inst.m:
                continue
            sol = _vector_solution(limits, vec)
            asg = check_feasible(inst, sol)
            if asg is not None:
                yield t, vec, sol, asg


def solve_exact(inst: Instance, k: int, budget: int = DEFAULT_CANDIDATE_BUDGET) -> ExactResult | None:
    """Minimum-size feasible solution of size at most k, or None.

    Candidates are multisets with copies(x) <= min(k, mult(x)); ties are
    broken by the lexicographically smallest copies vector (ascending id
    order).  Raises ValueError for k < 0, and BudgetExceeded when the
    candidate space is too large, never conflating that with infeasibility.
    """
    for _, _, sol, asg in _enumerate_feasible(inst, k, budget):
        return ExactResult(solution=sol, assignment=asg)
    return None


def solve_exact_weighted(inst: Instance, k: int,
                         budget: int = DEFAULT_CANDIDATE_BUDGET) -> WeightedResult | None:
    """Minimum-weight feasible solution among those of size at most k.

    Ties go to the smaller size, then the lexicographically smallest copies
    vector.  Same budget behavior as solve_exact.
    """
    best = None
    best_w = None
    for t, vec, sol, asg in _enumerate_feasible(inst, k, budget):
        w = sol.weight(inst)
        if best is None or w < best_w:
            best = WeightedResult(solution=sol, assignment=asg, weight=w)
            best_w = w
    return best
