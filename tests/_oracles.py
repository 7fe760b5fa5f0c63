"""Independent reference implementations used to cross-check the real modules.

Everything here is deliberately naive: straight-line enumeration, DFS and
dense BFS with none of the package's pruning, bucketing, or matching machinery.
It also holds the paper-lemma witnesses that no solver path calls (the (b+r)/3
dominator construction and the conflict-pair count), the checkers for CSP
values and MDK picks, the equivalence classes and stars as index tuples from
a full rescan of the family, a conflict test that rescans the family per
star, the eager per-star scores that candidate_set computes lazily, and the
enumerate-mode recursion without its failed-subtree memo or without both
failure memos, the exact search as it was before it went best-first
(level by level, with a stopping rule per mode), and the matching kernel as
it was before its direct sweep (one augmenting round per set, over each
set's bought members only).  It also keeps the instance parser as it was
before it checked each rule once (a shape pass, then the Element and Instance
checks, written out here) and guided mode's separation step as it was before
it read only the oracle's colors (parts built for every coloring drawn).
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from collections import Counter
from fractions import Fraction

import numpy as np

from caphs import approx
from caphs.core import (
    UNBOUNDED,
    Assignment,
    Element,
    Instance,
    Result,
    Solution,
    _check_format,
    _expect,
    _is_int,
    _load_object,
)
from caphs.errors import (
    BudgetExceeded,
    CaphsError,
    InvariantViolated,
    NoColoringSeparates,
    PartialPlurality,
    PreconditionViolated,
    UnknownElement,
    ValidationError,
)
from caphs.exact import _count_vectors, _limits
from caphs.feasibility import _augment, assignment_ok, check_feasible
from caphs.independence import is_conflicting
from caphs.reductions import Constraint, CspInstance, MdkInstance


class OracleTooLarge(CaphsError):
    """A brute-force oracle was asked to enumerate beyond its configured cap."""


def ford_fulkerson_value(cap, source: int, sink: int) -> int:
    """Max-flow value by DFS augmenting paths on a dense capacity matrix.

    Different search order than the library kernel (DFS vs BFS), same value.
    """
    n = cap.shape[0]
    res = [[int(cap[i, j]) for j in range(n)] for i in range(n)]
    total = 0
    while True:
        parent = [-1] * n
        parent[source] = source
        stack = [source]
        while stack:
            u = stack.pop()
            for v in range(n):
                if parent[v] < 0 and res[u][v] > 0:
                    parent[v] = u
                    stack.append(v)
        if parent[sink] < 0:
            return total
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(res[u][v] for u, v in path)
        for u, v in path:
            res[u][v] -= push
            res[v][u] += push
        total += push


def _bought(inst: Instance, sol: Solution) -> list[int]:
    for x, c in sol.copies.items():
        e = inst.element(x)  # raises UnknownElement
        if e.mult is not None and c > e.mult:
            raise ValidationError(f"solution buys {c} copies of {x}, mult is {e.mult}")
    return sorted(x for x, c in sol.copies.items() if c >= 1)


def filtered_network(inst: Instance, sol: Solution) -> tuple[list[list[int]], dict[int, int]]:
    """The b-matching graph as check_feasible built it before the direct
    sweep: per set, its bought members in ascending id, and per bought
    element, its room cap * copies."""
    room = {x: inst.element(x).cap * sol.copies[x] for x in _bought(inst, sol)}
    members = [[x for x in s if x in room] for s in inst.family]
    return members, room


def augment_by_rounds(members: list[list[int]], room: dict[int, int]):
    """Assign every set by breadth-first augmenting paths, one round per set,
    as caphs.feasibility._augment did before its direct sweep.

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


def dense_network(inst: Instance, sol: Solution):
    """(cap, bought) of the dense flow network for the assignment question.

    Nodes: 0 = source, 1..m = sets, then one node per bought element in
    ascending id, then the sink.  Arcs: source -> set (1), set -> bought
    member (1), element -> sink (cap * copies).
    """
    bought = _bought(inst, sol)
    m = inst.m
    sink = 1 + m + len(bought)
    elem_node = {x: 1 + m + i for i, x in enumerate(bought)}
    cap = np.zeros((sink + 1, sink + 1), dtype=np.int64)
    for j, members in enumerate(inst.family):
        cap[0, 1 + j] = 1
        for x in members:
            if x in elem_node:
                cap[1 + j, elem_node[x]] = 1
    for x in bought:
        cap[elem_node[x], sink] = inst.element(x).cap * sol.copies[x]
    return cap, bought


def edmonds_karp_assignment(inst: Instance, sol: Solution) -> dict | None:
    """Assignment target from shortest augmenting paths on the dense network.

    The BFS scans neighbors in ascending node order; this fixes which
    assignment comes out, and check_feasible must return the same one.
    """
    cap, bought = dense_network(inst, sol)
    n = cap.shape[0]
    source, sink = 0, n - 1
    res = [[int(cap[i, j]) for j in range(n)] for i in range(n)]
    total = 0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        head = 0
        while head < len(queue) and parent[sink] < 0:
            u = queue[head]
            head += 1
            for v in range(n):
                if parent[v] < 0 and res[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        push = None
        v = sink
        while v != source:
            u = parent[v]
            push = res[u][v] if push is None else min(push, res[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            res[u][v] -= push
            res[v][u] += push
            v = u
        total += push
    if total < inst.m:
        return None
    m = inst.m
    target = {}
    for j in range(m):
        for i, x in enumerate(bought):
            if res[1 + m + i][1 + j] > 0:  # reverse residual = flow on set -> element
                target[j] = x
                break
    return target


def brute_force_assignment(inst: Instance, sol: Solution, max_sets: int = 12) -> Assignment | None:
    """Independent oracle: exhaustive search over membership-respecting maps.

    Tries targets in lexicographic order (set index ascending, member ids
    ascending), pruning on capacity overload.  Only usable for small families.
    """
    if inst.m > max_sets:
        raise OracleTooLarge(f"m={inst.m} exceeds the {max_sets}-set oracle cap")
    bought = set(_bought(inst, sol))
    budget = {x: inst.element(x).cap * sol.copies[x] for x in bought}
    choices = [[x for x in members if x in bought] for members in inst.family]
    target: dict[int, int] = {}

    def rec(j: int) -> bool:
        if j == inst.m:
            return True
        for x in choices[j]:
            if budget[x] > 0:
                budget[x] -= 1
                target[j] = x
                if rec(j + 1):
                    return True
                del target[j]
                budget[x] += 1
        return False

    if rec(0):
        asg = Assignment(target=dict(target))
        assert assignment_ok(inst, sol, asg), "oracle produced an invalid assignment"
        return asg
    return None


def assign_backtracking(inst: Instance, copies: dict) -> dict | None:
    """Reference feasibility: assign each set occurrence to a bought member."""
    budget = {}
    for x, c in copies.items():
        el = inst.element(x)
        if el.mult is not None and c > el.mult:
            return None
        budget[x] = el.cap * c

    def go(j: int):
        if j == len(inst.family):
            return {}
        for x in inst.family[j]:
            if budget.get(x, 0) > 0:
                budget[x] -= 1
                got = go(j + 1)
                if got is not None:
                    got[j] = x
                    return got
                budget[x] += 1
        return None

    return go(0)


def min_hitting_bruteforce(inst: Instance, k: int):
    """Smallest feasible copy vector by exhaustive search, or None."""
    limits = []
    for el in sorted(inst.elements, key=lambda e: e.id):
        cap = k if el.mult is None else min(k, el.mult)
        limits.append((el.id, cap))
    best = None
    for total in range(0, k + 1):
        for combo in _vectors_of_total(limits, total):
            copies = {x: c for (x, _), c in zip(limits, combo) if c}
            if assign_backtracking(inst, copies) is not None:
                return copies
    return best


def _vectors_of_total(limits, total):
    if not limits:
        if total == 0:
            yield ()
        return
    (_, hi) = limits[0]
    for c in range(0, min(hi, total) + 1):
        for rest in _vectors_of_total(limits[1:], total - c):
            yield (c,) + rest


def min_weight_bruteforce(inst: Instance, k: int):
    """(copies, weight) minimizing weight over feasible vectors of size <= k."""
    limits = [
        (el.id, k if el.mult is None else min(k, el.mult))
        for el in sorted(inst.elements, key=lambda e: e.id)
    ]
    best = None
    for total in range(0, k + 1):
        for combo in _vectors_of_total(limits, total):
            copies = {x: c for (x, _), c in zip(limits, combo) if c}
            if assign_backtracking(inst, copies) is None:
                continue
            w = sum(inst.element(x).weight * c for x, c in copies.items())
            if best is None or w < best[1]:
                best = (copies, w)
    return best


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


def count_vectors_bruteforce(limits, k: int) -> int:
    """Number of copies vectors under limits with total at most k, one by one."""
    return sum(1 for t in range(k + 1) for _ in _iter_vectors(limits, t))


def _enumerate_feasible(inst: Instance, k: int, budget: int):
    """Yield (size, vec, sol, asg) for every feasible candidate, ordered by
    size then lexicographic copies vector.  The budget refuses only an
    instance with sets: without any, the empty solution needs no search."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    limits = _limits(inst, k)
    count = _count_vectors(limits, k)
    if count > budget and inst.family:
        raise BudgetExceeded(f"{count} candidate multisets exceed the budget of {budget}")
    caps = {e.id: e.cap for e in inst.elements}
    for t in range(k + 1):
        for vec in _iter_vectors(limits, t):
            if sum(caps[x] * c for (x, _), c in zip(limits, vec)) < inst.m:
                continue
            sol = Solution(copies={x: c for (x, _), c in zip(limits, vec) if c > 0})
            asg = check_feasible(inst, sol)
            if asg is not None:
                yield t, vec, sol, asg


def enumerate_exact(inst: Instance, k: int, budget: int) -> Result | None:
    """The exact solver that checks every copy vector of size at most k in
    (size, lexicographic) order and returns the first feasible one."""
    for _, _, sol, asg in _enumerate_feasible(inst, k, budget):
        return Result(solution=sol, assignment=asg, weight=sol.weight(inst))
    return None


def enumerate_exact_weighted(inst: Instance, k: int, budget: int) -> Result | None:
    """The same enumeration keeping the first vector of each strictly
    smaller weight."""
    best = None
    for _, _, sol, asg in _enumerate_feasible(inst, k, budget):
        w = sol.weight(inst)
        if best is None or w < best.weight:
            best = Result(solution=sol, assignment=asg, weight=w)
    return best


def level_search_exact(inst: Instance, k: int, budget: int, weighted: bool) -> Result | None:
    """The exact search level by level: every vector of size t, in
    lexicographic order, before any of size t + 1.  Size mode stops at the
    first feasible vector; weight mode keeps the smallest (weight, size,
    vector) key found, skips vectors at or above it and extends only
    vectors lighter than it.  Same precheck, branching and winner check as
    caphs.exact."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not inst.family:
        return Result(Solution(copies={}), check_feasible(inst, Solution(copies={})), 0)
    limits = _limits(inst, k)
    k = min(k, sum(lim for _, lim in limits))
    count = _count_vectors(limits, k)
    if count > budget:
        raise BudgetExceeded(f"{count} candidate multisets exceed the budget of {budget}")
    pos = {x: p for p, (x, _) in enumerate(limits)}
    lims = [lim for _, lim in limits]
    caps = [inst.element(x).cap for x, _ in limits]
    weights = [inst.element(x).weight if weighted else 0 for x, _ in limits]
    hits = [inst.hits[x] for x, _ in limits]
    rows = [[pos[x] for x in s if caps[pos[x]] > 0] for s in inst.family]

    def deficit(vec, served):
        j = ((served + 1) & ~served).bit_length() - 1
        if j < len(rows):
            return [p for p in rows[j] if vec[p] < lims[p]]
        room = {p: caps[p] * c for p, c in enumerate(vec) if c}
        _, scanned = _augment([[p for p in row if vec[p]] for row in rows], room)
        if scanned is None:
            return None
        return {p for j in scanned for p in rows[j] if vec[p] < lims[p]}

    best = None
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
                    break
                continue
            if t < k and (best is None or w < best[0]):
                for p in branch:
                    nxt[vec[:p] + (vec[p] + 1,) + vec[p + 1:]] = (served | hits[p], w + weights[p])
        if (best is not None and not weighted) or not nxt:
            break
        level = nxt
    if best is None:
        return None
    sol = Solution(copies={x: c for (x, _), c in zip(limits, best[2]) if c > 0})
    return Result(sol, check_feasible(inst, sol), sol.weight(inst))


def construct_small_dominator(g):
    """Dominating red set of size at most floor((b+r)/3) on a BipartiteGraph.

    The constructive (b+r)/3 bound: repeatedly grab a red with two or more
    undominated blue neighbors, then finish with one neighbor per leftover
    blue.  Preconditions (checked): every blue has degree at least 2 and
    r < 2b.  Deterministic: every pick takes the smallest eligible id.
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


def rescan_classes(inst: Instance, S) -> dict[tuple[int, ...], tuple[int, ...]]:
    """equivalence_classes as index tuples: each set's A ∩ S read off its
    member list.  The classes come in order of their first set; sorted, they
    are in class order, as equivalence_classes returns them."""
    s_set = set(S)
    for x in s_set:
        if x not in inst.by_id:
            raise UnknownElement(f"S mentions unknown element {x}")
    buckets: dict[tuple[int, ...], list[int]] = {}
    for idx, members in enumerate(inst.family):
        E = tuple(x for x in members if x in s_set)
        buckets.setdefault(E, []).append(idx)
    return {E: tuple(v) for E, v in buckets.items()}


def rescan_stars(classes: dict, pi: dict) -> dict[int, tuple[int, ...]]:
    """stars over rescan_classes: the sorted union of the index tuples that
    pi sends to each s; PartialPlurality when pi misses a nonempty class."""
    for E in classes:
        if E and E not in pi:
            raise PartialPlurality(f"plurality map misses class {E}")
    out: dict[int, list[int]] = {}
    for E, idxs in classes.items():
        if E in pi:
            out.setdefault(pi[E], []).extend(idxs)
    return {s: tuple(sorted(v)) for s, v in out.items()}


def conflicting_by_rescan(ctx, x: int, y: int, inst: Instance) -> bool:
    """is_conflicting from incidence lists: per star, the set indices whose
    member list in inst.family holds x, and those that hold y."""
    for s in sorted(ctx.stars):
        idxs = [j for j in range(inst.m) if ctx.stars[s] >> j & 1]
        ax = [j for j in idxs if x in inst.family[j]]
        ay = [j for j in idxs if y in inst.family[j]]
        both = len(set(ax) & set(ay))
        if both and both * ctx.rho.denominator > ctx.rho.numerator * min(len(ax), len(ay)):
            return True
    return False


def count_conflicting_pairs(ctx, X, inst: Instance, k: int | None = None) -> int:
    """Number of unordered conflicting pairs within X under an IndependenceContext.

    When k is given, the |X| * d * k / rho upper bound is enforced: beating
    it raises InvariantViolated.
    """
    xs = sorted(set(X))
    count = 0
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            if is_conflicting(ctx, xs[a], xs[b], inst):
                count += 1
    if k is not None:
        bound = Fraction(len(xs) * inst.d * k) / ctx.rho
        if count > bound:
            raise InvariantViolated(f"conflict count {count} beats the {bound} bound")
    return count


def eager_info_tuple(t, ctx):
    """(xprime, n_of, score) for an AnnotatedTuple, every score computed up front.

    xprime[i] keeps the part-i candidates whose capacity and class incidence
    meet the gamma demands; n_of[(v, cls)] caps the useful incidence and
    score[(v, s)] is the residual value of v toward star s, for every kept v
    and every s in S.  The class incidence inc[(v, cls)] is counted here from
    rescan_classes, apart from the library's masks.
    """
    inst = ctx.inst
    classes = rescan_classes(inst, t.S)
    realized = sorted(classes)
    inc = Counter((v, cls) for cls, idxs in classes.items() for j in idxs for v in inst.family[j])
    base = ctx.cfg.bucket_base
    xprime = []
    n_of: dict = {}
    score: dict = {}
    for part, row in zip(t.parts, t.gamma):
        gamma = dict(row)  # a class the row omits has demand 0
        demand = sum(gamma.values())
        kept = []
        for v in part:
            if inst.element(v).cap < demand:
                continue
            if any(inc.get((v, cls), 0) < g for cls, g in gamma.items()):
                continue
            kept.append(v)
        kept = tuple(sorted(kept))
        xprime.append(kept)
        other = {
            s: demand - sum(g for cls, g in gamma.items() if t.pi.get(cls) == s) for s in t.S
        }
        for v in kept:
            cap = inst.element(v).cap
            for cls in realized:
                g = gamma.get(cls, 0)
                n_of[(v, cls)] = min(math.ceil(base * g), inc.get((v, cls), 0))
            for s in t.S:
                n_vs = sum(n_of[(v, cls)] for cls in realized if t.pi.get(cls) == s)
                score[(v, s)] = max(0, min(n_vs, cap - other[s]))
    return tuple(xprime), n_of, score


def ranked_candidate_set(t, tau1, ctx):
    """X''_i from the eager scores: the whole of X'_i when small, else the
    top_t elements by (-score, id) for each star s with tau1(s) = i."""
    xprime, _, score = eager_info_tuple(t, ctx)
    out = []
    for i, xp in enumerate(xprime):
        if len(xp) <= ctx.cfg.small_class_threshold:
            out.append(xp)
            continue
        chosen = set()
        for s in sorted(t.S):
            if tau1.get(s) == i:
                ranked = sorted(xp, key=lambda v: (-score[(v, s)], v))
                chosen.update(ranked[: ctx.cfg.top_t])
        out.append(tuple(sorted(chosen)))
    return tuple(out)


def plain_search_below(S, parts, ctx):
    """approx._search_below without its memo: every (S, parts) is searched
    each time it is met.  Patched over approx._search_below, it is also what
    solve_annotated recurses into."""
    for child in approx.enumerate_tuples(S, parts, ctx):
        ctx.charge_recursion()
        got = approx.solve_annotated(child, ctx)
        if got is not None:
            return got
    return None


def memoless_search_below(S, parts, ctx):
    """approx._search_below with neither failed-subtree memo: every (S, parts)
    and every annotated tuple below it is searched each time it is met."""
    for child in approx.enumerate_tuples(S, parts, ctx):
        ctx.charge_recursion()
        got = memoless_solve_annotated(child, ctx)
        if got is not None:
            return got
    return None


def memoless_solve_annotated(t, ctx):
    """approx.solve_annotated without its failed-tuple memo, recursing into
    memoless_search_below."""
    if t.r == 0:
        return approx.solve_extended(t, {}, {}, (), ctx).solution
    xprime = approx.info_tuple(t, ctx)
    for m1 in itertools.product(range(t.r), repeat=len(t.S)):
        tau1 = dict(zip(t.S, m1))
        xpp = approx.candidate_set(t, tau1, xprime, ctx)
        for m2 in itertools.product(range(t.r), repeat=len(t.S)):
            ctx.charge_tuple()
            for i, xpp_i in enumerate(xpp):
                for v in xpp_i:
                    got = memoless_search_below(t.S + (v,), t.parts[:i] + t.parts[i + 1 :], ctx)
                    if got is not None:
                        return got
            res = approx.solve_extended(t, tau1, dict(zip(t.S, m2)), xpp, ctx)
            if res.solution is not None:
                return res.solution
    return None


def min_dominator_bruteforce(reds, blues, adj, forced=frozenset()):
    """Smallest red set containing forced that dominates every blue, or None."""
    reds = sorted(reds)
    blues = sorted(blues)
    forced = set(forced)
    for size in range(len(forced), len(reds) + 1):
        for combo in itertools.combinations(reds, size):
            chosen = set(combo)
            if not forced <= chosen:
                continue
            if all(any(r in chosen for r in adj.get(v, ())) for v in blues):
                return tuple(sorted(chosen))
    return None


def mdk_min_bruteforce(vectors, target):
    """Smallest subset of vector indices covering target, or None."""
    nvec = len(vectors)
    d = len(target)
    for size in range(0, nvec + 1):
        for combo in itertools.combinations(range(nvec), size):
            if all(sum(vectors[j][i] for j in combo) >= target[i] for i in range(d)):
                return combo
    return None


def csp_satisfiable_bruteforce(csp) -> bool:
    for values in itertools.product(range(1, csp.n + 1), repeat=csp.k):
        if all((values[c.u], values[c.v]) in c.allowed for c in csp.constraints):
            return True
    return False


def csp_value(csp: CspInstance, assignment) -> Fraction:
    """Fraction of satisfied constraints under a total assignment.

    assignment maps variable id to a value in 1..n (dict or sequence).  An
    instance with no constraints has value 1.
    """
    if csp.m == 0:
        return Fraction(1)
    sat = 0
    for c in csp.constraints:
        if (assignment[c.u], assignment[c.v]) in c.allowed:
            sat += 1
    return Fraction(sat, csp.m)


def verify_mdk(mdk: MdkInstance, picks) -> bool:
    """Do the (deduplicated) picked vectors cover the target within budget k?"""
    idxs = sorted(set(picks))
    for j in idxs:
        if not 0 <= j < len(mdk.vectors):
            raise ValidationError(f"pick {j} out of range")
    if len(idxs) > mdk.k:
        return False
    return all(
        sum(mdk.vectors[j][i] for j in idxs) >= mdk.target[i]
        for i in range(mdk.d)
    )


THREE_REGULAR_EDGES = {
    2: ((0, 1), (0, 1), (0, 1)),
    4: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}


def random_three_regular_csp(k: int, n: int, seed: int, satisfiable: bool):
    """Random 3-regular CSP, planted-satisfiable or rejection-sampled unsat."""
    edges = THREE_REGULAR_EDGES[k]
    rng = np.random.default_rng(seed)
    while True:
        planted = [int(rng.integers(1, n + 1)) for _ in range(k)]
        cons = []
        for (u, v) in edges:
            pairs = set()
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if rng.random() < 0.3:
                        pairs.add((a, b))
            if satisfiable:
                pairs.add((planted[u], planted[v]))
            if not pairs:
                pairs.add((int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))))
            cons.append(Constraint(u, v, tuple(sorted(pairs))))
        csp = CspInstance(k=k, n=n, constraints=tuple(cons))
        if csp_satisfiable_bruteforce(csp) == satisfiable:
            return csp


def random_bipartite_mindeg2(b: int, r: int, seed: int):
    """(blues, reds, adj) with every blue adjacent to >= 2 reds."""
    rng = np.random.default_rng(seed)
    blues = list(range(b))
    reds = list(range(r))
    adj = {}
    for v in blues:
        deg = int(rng.integers(2, min(3, r) + 1))
        picks = rng.choice(r, size=deg, replace=False)
        adj[v] = tuple(sorted(int(x) for x in picks))
    return blues, reds, adj


def _element_checks(ident, cap, mult, weight) -> None:
    """Element's value checks, in its order."""
    if cap < 0:
        raise ValidationError(f"element {ident}: negative capacity {cap}")
    if weight < 0:
        raise ValidationError(f"element {ident}: negative weight {weight}")
    if mult is not None and mult < 1:
        raise ValidationError(f"element {ident}: multiplicity {mult} < 1")


def _instance_checks(ids, family, d) -> None:
    """Instance's checks, in its order, on every set sorted."""
    if len(ids) != len(set(ids)):
        raise ValidationError("duplicate element ids")
    if d < 1:
        raise ValidationError(f"d must be positive, got {d}")
    known = set(ids)
    for idx, members in enumerate(family):
        members = tuple(sorted(members))
        if not members:
            raise ValidationError(f"set {idx} is empty")
        if len(set(members)) != len(members):
            raise ValidationError(f"set {idx} repeats an element id")
        if len(members) > d:
            raise ValidationError(f"set {idx} has {len(members)} > d={d} elements")
        for x in members:
            if x not in known:
                raise ValidationError(f"set {idx} names unknown element {x}")


def shape_then_model_parse_instance(text: str) -> Instance:
    """The instance parser in two stages: every shape check of the document,
    with each element's value checks at the element, then the instance checks,
    then the models built by their checking constructors."""
    obj = _load_object(text, "instance document")
    if "format" in obj:
        _check_format(obj["format"])
    for key in ("d", "elements", "family"):
        _expect(key in obj, f"missing key {key!r}")
    _expect(_is_int(obj["d"]), "d must be an integer")
    _expect(isinstance(obj["elements"], list), "elements must be a list")
    _expect(isinstance(obj["family"], list), "family must be a list")
    elements = []
    for ent in obj["elements"]:
        _expect(isinstance(ent, dict), "each element must be an object")
        _expect("id" in ent and "cap" in ent, "element needs id and cap")
        _expect(_is_int(ent["id"]) and _is_int(ent["cap"]),
                "element id and cap must be integers")
        mult = ent.get("mult", UNBOUNDED)
        _expect(mult is None or _is_int(mult), "mult must be an integer or null")
        _expect("weight" in ent and _is_int(ent["weight"]),
                "element needs an integer weight")
        _element_checks(ent["id"], ent["cap"], mult, ent["weight"])
        elements.append(Element(id=ent["id"], cap=ent["cap"], mult=mult, weight=ent["weight"]))
    family = []
    for s in obj["family"]:
        _expect(isinstance(s, list) and all(_is_int(x) for x in s),
                "each family set must be a list of integer ids")
        family.append(tuple(s))
    _instance_checks([e.id for e in elements], family, obj["d"])
    return Instance(elements=tuple(elements), family=tuple(family), d=obj["d"])


def separating_parts(inst2: Instance, cfg, ell: int, opt2: Solution):
    """Guided mode's root parts: the first coloring of inst2's elements into
    ell parts, each built whole, that puts the oracle's ell clones in ell
    distinct parts, then with epsilon set each part cut to the weight window
    of its oracle element; NoColoringSeparates when none does."""
    colorings = approx._colorings(inst2, cfg, ell)
    for cand in colorings:
        hit = {i for i, part in enumerate(cand) for v in part if v in opt2.copies}
        if len(hit) == ell:
            parts = tuple(tuple(sorted(p)) for p in cand)
            break
    else:
        raise NoColoringSeparates(
            f"no coloring among {len(colorings)} separated the oracle solution"
        )
    if cfg.epsilon is not None:
        w_star = opt2.weight(inst2)
        W = next(w for w in approx.weight_estimates(inst2) if w >= w_star)
        delta = approx._window_width(cfg.epsilon, W, ell, inst2.n)
        bvec = [inst2.element(v).weight // delta for v in approx._oracle_reps((), parts, opt2)]
        parts = approx._weight_windows(inst2, parts, bvec, delta)
    return parts
