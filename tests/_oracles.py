"""Independent reference implementations used to cross-check the real modules.

Everything here is deliberately naive: straight-line enumeration, DFS and
dense BFS with none of the package's pruning, bucketing, or matching machinery.
It also holds the paper-lemma witnesses that no solver path calls (the (b+r)/3
dominator construction and the conflict-pair count), the eager per-star
scores that candidate_set computes lazily, and the enumerate-mode recursion
without its failed-subtree memo or without both failure memos.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from caphs import approx
from caphs.core import Assignment, Instance, Solution
from caphs.errors import BudgetExceeded, CaphsError, InvariantViolated, PreconditionViolated
from caphs.exact import ExactResult, WeightedResult, _count_vectors, _limits
from caphs.feasibility import _bought, assignment_ok, check_feasible
from caphs.independence import is_conflicting


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


def enumerate_exact(inst: Instance, k: int, budget: int) -> ExactResult | None:
    """The exact solver that checks every copy vector of size at most k in
    (size, lexicographic) order and returns the first feasible one."""
    for _, _, sol, asg in _enumerate_feasible(inst, k, budget):
        return ExactResult(solution=sol, assignment=asg)
    return None


def enumerate_exact_weighted(inst: Instance, k: int, budget: int) -> WeightedResult | None:
    """The same enumeration keeping the first vector of each strictly
    smaller weight."""
    best = None
    for _, _, sol, asg in _enumerate_feasible(inst, k, budget):
        w = sol.weight(inst)
        if best is None or w < best.weight:
            best = WeightedResult(solution=sol, assignment=asg, weight=w)
    return best


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
    and every s in S.
    """
    inst = ctx.inst
    _, realized, inc = ctx.frame(t.S)
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


THREE_REGULAR_EDGES = {
    2: ((0, 1), (0, 1), (0, 1)),
    4: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}


def random_three_regular_csp(k: int, n: int, seed: int, satisfiable: bool):
    """Random 3-regular CSP, planted-satisfiable or rejection-sampled unsat."""
    from caphs.reductions import Constraint, CspInstance

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
