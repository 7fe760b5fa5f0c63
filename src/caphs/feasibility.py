"""Matching-based feasibility: decide whether a Solution admits a valid Assignment.

The assignment constraints (every set charged to a member element, per-element
load at most cap * copies) form a bipartite b-matching from sets to elements,
solved here over adjacency lists in two phases: one ascending sweep gives each
set its first member with spare room, and breadth-first augmenting paths then
place the sets the sweep left over.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence

from .core import Assignment, Instance, Solution
from .errors import InvariantViolated, ValidationError


def build_network(inst: Instance, sol: Solution) -> tuple[Sequence[Sequence[int]], dict[int, int]]:
    """The b-matching graph: per set, its members in ascending id (the
    family itself), and per element id, its room cap * copies, 0 for an
    element sol does not buy.  A member without room takes no set in either
    phase of _augment."""
    room = dict.fromkeys(inst.by_id, 0)
    for x, c in sol.copies.items():
        e = inst.element(x)  # raises UnknownElement
        if e.mult is not None and c > e.mult:
            raise ValidationError(f"solution buys {c} copies of {x}, mult is {e.mult}")
        room[x] = e.cap * c
    return inst.family, room


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


def _augment(members: Sequence[Sequence[int]], room: dict[int, int]):
    """Assign every set: one direct sweep, then breadth-first augmenting paths.

    The sweep takes the sets in ascending index and gives each one the
    first of its members, in the given order, with spare room.  Each round
    after it searches from the sets still unassigned, in ascending index,
    going from a set to its members in the given order and from an element
    to the sets it holds in ascending index, and shifts the sets on the path
    to the first element reached with spare room one step forward.  Every
    member of a set must be a key of room.

    A round scans every unassigned set before any set it reaches, so while
    one of them has a member with room, the round assigns the lowest such
    set to its first such member; room only shrinks, so a set the sweep
    passes over never gains one.  The sweep thus makes exactly the rounds'
    first assignments, in the same order.

    Returns (target, None) with an element per set index, or (None, scanned)
    when a round finds no path.  Then every member of a scanned set is full
    and held only by scanned sets, so the scanned sets outnumber their
    members' room: a Hall violator.
    """
    target: dict[int, int] = {}
    holders: dict[int, list[int]] = {x: [] for x in room}  # ascending set indices
    free = []
    for j, row in enumerate(members):
        for x in row:
            if len(holders[x]) < room[x]:
                target[j] = x
                holders[x].append(j)  # j ascends, so holders stay sorted
                break
        else:
            free.append(j)
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

    The matching is _augment's, a direct sweep and then augmenting rounds,
    over each set's members in ascending id with the room build_network
    gives them.  Each of its augmenting paths is the one a dense
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
