"""Matching-based feasibility: decide whether a Solution admits a valid Assignment.

The assignment constraints (every set charged to a member element, per-element
load at most cap * copies) form a bipartite b-matching from sets to bought
elements, solved here by breadth-first augmenting paths over adjacency lists.
"""

from __future__ import annotations

from bisect import insort

from .core import Assignment, Instance, Solution
from .errors import InvariantViolated, ValidationError


def _bought(inst: Instance, sol: Solution) -> list[int]:
    for x, c in sol.copies.items():
        e = inst.element(x)  # raises UnknownElement
        if e.mult is not None and c > e.mult:
            raise ValidationError(f"solution buys {c} copies of {x}, mult is {e.mult}")
    return sorted(x for x, c in sol.copies.items() if c >= 1)


def build_network(inst: Instance, sol: Solution) -> tuple[list[list[int]], dict[int, int]]:
    """The b-matching graph: per set, its bought members in ascending id, and
    per bought element, its room cap * copies."""
    room = {x: inst.element(x).cap * sol.copies[x] for x in _bought(inst, sol)}
    members = [[x for x in s if x in room] for s in inst.family]
    return members, room


def assignment_ok(inst: Instance, sol: Solution, asg: Assignment) -> bool:
    """Membership plus load check, recomputed from scratch."""
    if set(asg.target) != set(range(inst.m)):
        return False
    loads: dict[int, int] = {}
    for j, x in asg.target.items():
        if x not in inst.family[j]:
            return False
        loads[x] = loads.get(x, 0) + 1
    for x, load in loads.items():
        c = sol.copies.get(x, 0)
        if load > inst.element(x).cap * c:
            return False
    return True


def checked_assignment(inst: Instance, sol: Solution, target: dict) -> Assignment:
    """The Assignment of a matching's target (set index -> element id), in
    ascending set index; raises InvariantViolated unless assignment_ok holds."""
    asg = Assignment(target=dict(sorted(target.items())))
    if not assignment_ok(inst, sol, asg):
        raise InvariantViolated("matching produced an invalid assignment")
    return asg


def _augment(members: list[list[int]], room: dict[int, int]):
    """Assign every set by breadth-first augmenting paths.

    Each round searches from the unassigned sets in ascending index, going
    from a set to its members in the given order and from an element to the
    sets it holds in ascending index, and shifts the sets on the path to the
    first element reached with spare room one step forward.  Every member of
    a set must be a key of room.

    Returns (target, None) with an element per set index, or (None, scanned)
    when a round finds no path.  Then every member of a scanned set is full
    and held only by scanned sets, so the scanned sets outnumber their
    members' room: a Hall violator.
    """
    target: dict[int, int] = {}
    holders: dict[int, list[int]] = {x: [] for x in room}  # ascending set indices
    free = list(range(len(members)))
    while free:
        # reached[x] is the set x was first reached from.  An assigned set is
        # reached only from its own element, so that element is never revisited.
        reached: dict[int, int] = {}
        queue = list(free)
        end = None
        for j in queue:  # grows while it is scanned
            for x in members[j]:
                if x in reached:
                    continue
                reached[x] = j
                # Elements would leave a BFS queue in the order they are
                # reached, so testing for room here finds the same one.
                if len(holders[x]) < room[x]:
                    end = x
                    break
                queue.extend(holders[x])
            if end is not None:
                break
        if end is None:
            return None, queue
        x = end
        while True:
            j = reached[x]
            prev = target.get(j)
            target[j] = x
            insort(holders[x], j)
            if prev is None:
                free.remove(j)
                break
            holders[prev].remove(j)
            x = prev
    return target, None


def check_feasible(inst: Instance, sol: Solution) -> Assignment | None:
    """Return a valid Assignment for sol, or None when none exists.

    The matching is _augment's over each set's bought members in ascending
    id.  Each of its augmenting paths is the one a dense
    shortest-augmenting-path max flow with ascending node order would push,
    so the result is deterministic for a fixed (inst, sol).

    Args:
        inst: the instance.
        sol: candidate solution; copy counts must respect multiplicities.

    Returns:
        An Assignment covering every set occurrence, or None iff no
        b-matching saturates all m sets.
    """
    target, _ = _augment(*build_network(inst, sol))
    return None if target is None else checked_assignment(inst, sol, target)
