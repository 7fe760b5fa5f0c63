"""Annotated-tuple search: the 4/3-approximation on top of the exact oracle.

The solver walks tuples (S, X_1..X_r, pi, gamma): a committed partial solution
S, disjoint candidate parts covering the undecided picks, a plurality map on
the equivalence classes of S, and bucketed coverage demands.  A guess extends
a tuple by part maps tau1, tau2 on S; a red-blue dominating set plus a
quota-respecting independent set then closes it (solve_extended, whose r = 0
branch, S itself, is the one leaf).  The two modes share every layer from the
root (S empty, the parts of one coloring) down: X' (info_tuple), X''
(candidate_set) and the closing step.  Enumerate (solve_annotated, budgeted)
tries every tuple, every (tau1, tau2) and every candidate of X'' as the next
commitment; guided (_solve_guided) takes all three from an exact solution.

The enumeration remembers every subtree that failed, with the tuple and
recursion charges it made, keyed by what the subtree reads: (S, parts) for
the tuples on them, and for one tuple with r >= 1 (S, parts, pi, X', then
gamma or ()), gamma only when candidate_set reads it: when some X'_i is
ranked.  Meeting a key again subtracts its charges when both budgets cover
them and otherwise searches it again, so BudgetExceeded fires at the same
charge, with the same message, as a search without the memos.  A leaf
(|S| = k) reads neither pi nor gamma, so enumerate_tuples builds no frame.

The closing step charges nothing and runs afresh for each extended tuple;
Search keeps its quotas by (r, tau pairs) and its conflicts by (S, pi).
Before it builds a Solution, the closing step rejects a pick that leaves some
set without a picked member or whose capacities sum below m, from
Instance.hits and the capacities Search holds: the only check of those two
rules.  check_feasible's matching decides the rest.

A class or a star is a set mask: frame(S) holds the class masks, a star ORs
those that pi sends to s, and guided mode counts the sets of one charged to x
as (asg.owned[x] & mask).bit_count().  X'_i is part i cut by capacity and
class incidence, where v lies in (inst.hits[v] & masks[cls]).bit_count() sets
of class cls.  X''_i, the candidates the closing step may pick from, is all
of X'_i for a small part; only a part above small_class_threshold is ranked,
so candidate_set scores those parts alone.

Every layer takes the pieces of a tuple it reads (t, tau1, tau2, X'') and one
Search last: the instance, its capacities, the target size k, the config
resolved for it, both budgets and the memos of one search.  A direct call
builds it with Search(inst, k, cfg).  Search.resize changes k and starts every
memo but the frames empty, so no key holds k or the rho and base it fixes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .colorweights import default_trials, random_colorings, weight_estimates
from .core import (
    Assignment,
    Element,
    Instance,
    Result,
    Solution,
    _trusted,
    copy_limit,
    equivalence_classes,
    stars,
)
from .domset import BipartiteGraph, min_dominator_forced
from .errors import (
    BudgetExceeded,
    InvariantViolated,
    NoColoringSeparates,
    OracleInconsistent,
    PreconditionViolated,
)
from .exact import solve_exact, solve_exact_weighted
from .feasibility import check_feasible
from .independence import IndependenceContext, find_independent_set

ENUMERATE = "enumerate"
GUIDED = "guided"

# Reasons a closing attempt on an extended tuple can give up.
TAU_CLASH = "tau-clash"
INDEPENDENCE_FAIL = "independence-fail"
INFEASIBLE_OR_TOO_BIG = "infeasible-or-too-big"


@dataclass(frozen=True)
class SolverConfig:
    """Search constants and budgets, checked when built; frozen, so a config
    stays valid.  None constants are derived from (d, k) for one target size
    by resolved(); the size itself is the k of a solve.

    The theory constants are enormous (top_t = d*k^10 and so on); stress tests
    override them downward, but a bucket_base nearer 1 adds rungs and gamma rows.
    """

    rho: Fraction | None = None
    top_t: int | None = None
    small_class_threshold: int | None = None
    bucket_base: Fraction | None = None
    tuple_budget: int = 200_000
    recursion_budget: int = 20_000
    seed: int = 0
    epsilon: Fraction | None = None
    max_coloring_trials: int = 10_000

    def __post_init__(self):
        rho, base, top_t, thr = self.rho, self.bucket_base, self.top_t, self.small_class_threshold
        if rho is not None and not 0 < rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        if base is not None and base <= 1:
            raise ValueError("bucket_base must exceed 1")
        if (top_t is not None and top_t < 1) or (thr is not None and thr < 0):
            raise ValueError("top_t must be positive and the threshold nonnegative")
        if self.tuple_budget < 0 or self.recursion_budget < 0:
            raise ValueError("budgets must be nonnegative")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_coloring_trials < 1:
            raise ValueError("max_coloring_trials must be at least 1")

    def resolved(self, d: int, k: int) -> "SolverConfig":
        """This config with its None constants filled in for size k and d."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if d < 1:
            raise ValueError("d must be at least 1")
        rho, base, top_t, thr = self.rho, self.bucket_base, self.top_t, self.small_class_threshold
        return replace(
            self,
            rho=Fraction(1, k**4) if rho is None else Fraction(rho),
            top_t=d * k**10 if top_t is None else top_t,
            small_class_threshold=d * k**11 if thr is None else thr,
            bucket_base=1 + Fraction(1, 3 * k) if base is None else Fraction(base),
        )


def ceil43(k: int) -> int:
    """The size target ceil(4k/3)."""
    return (4 * k + 2) // 3


def bucket_values_upto(limit: int, base) -> list[int]:
    """Distinct rung values ceil(a^p / b^p) <= limit for base = a / b, ascending.

    Every integer up to t = a // (a - b) is a rung: the powers step by at most
    1 while they are at most b / (a - b) = a / (a - b) - 1, which is below t.
    Above t they step by more than 1, so their ceilings are distinct and
    exceed t; the exact walk starts at the first power above t, found by one
    exponentiation from a log estimate and then corrected exactly.
    """
    if limit < 1:
        return []
    base = Fraction(base)
    a, b = base.numerator, base.denominator
    if a <= b:
        raise ValueError("bucket base must exceed 1")
    t = min(limit, a // (a - b))
    out = list(range(1, t + 1))
    if t < limit:
        # Logs of the integers, since a float base may overflow.
        p = int(math.log(t) / (math.log(a) - math.log(b)))
        num, den = a**p, b**p
        while p and num // a > t * (den // b):
            num, den, p = num // a, den // b, p - 1
        while num <= t * den:
            num, den = num * a, den * b
        while num <= limit * den:
            out.append(-(-num // den))
            num, den = num * a, den * b
    return out


@dataclass(frozen=True)
class AnnotatedTuple:
    """(S, X_1..X_r, pi, gamma) with one sparse gamma row per part.

    gamma[i] holds part i's positive demands as (class, demand) pairs sorted
    by class; a class the row omits has demand 0.  pi maps each realized
    class of S to an element of S, in class order (sorted), so the empty
    class comes first when S is nonempty.  At r = 0 nothing reads pi or
    gamma, and enumerate_tuples leaves both empty there.  r, the number of
    parts, is set when built.
    """

    S: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    pi: dict
    gamma: tuple
    r: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "S", tuple(sorted(self.S)))
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(p)) for p in self.parts)
        )
        object.__setattr__(self, "pi", {cls: self.pi[cls] for cls in sorted(self.pi)})
        object.__setattr__(self, "r", len(self.parts))
        seen = set(self.S)
        for p in self.parts:
            for v in p:
                if v in seen:
                    raise ValueError("parts must be disjoint from S and each other")
                seen.add(v)
        for s in self.pi.values():
            if s not in set(self.S):
                raise ValueError("pi must map into S")
        if len(self.gamma) != len(self.parts):
            raise ValueError("gamma must hold one row per part")
        rows = []
        for row in self.gamma:
            if len({cls for cls, _ in row}) != len(row) or any(g < 0 for _, g in row):
                raise ValueError("a gamma row names each class once, with demand >= 0")
            rows.append(tuple(sorted((cls, g) for cls, g in row if g)))
        object.__setattr__(self, "gamma", tuple(rows))


@dataclass(frozen=True)
class ExtendedResult:
    solution: Solution | None
    reason: str | None = None


@dataclass(frozen=True)
class Expansion:
    """Clone instance; back maps clone ids to originals, copy_ids the reverse."""

    instance: Instance
    back: dict
    copy_ids: dict


class Search:
    """The context every annotated-tuple layer of both modes takes: one search.

    Search(inst, k, cfg) searches for target size k: cfg (the defaults when
    None) resolved for inst.d and k.  It takes cfg's two budgets and reads
    inst once for caps, each element id's capacity (incidence is inst.hits).
    The budgets and _frames live for the whole search: a frame depends only
    on S (equivalence_classes: each realized class to its set mask, in the
    class order every pi a solve builds keeps too).  Every other memo lives
    for one size, whose k fixes the config it reads; resize(k), the one way
    to change the target size, starts it empty.

    _gammas maps a class size to the gamma values enumerate_tuples ranges
    over.  _failed maps the key of an enumerate-mode subtree that found
    nothing to the (tuple, recursion) charges it made: (sorted S, parts)
    from _search_below, and (S, parts, pi items, X', then gamma or ()) from
    solve_annotated.  replayed() and record_failure() are the one rule both
    apply.  Only failures are stored, and every entry charged at least one
    tuple itself, so there are at most tuple_budget.  The closing step is
    computed afresh each time; what it looks up is kept: _quotas maps (r,
    the (tau1(s), tau2(s)) pairs over sorted S) to the quota vector, and
    _independence maps (S, pi items) to an IndependenceContext, the one
    place a search builds stars, with its conflict cache.
    """

    def __init__(self, inst: Instance, k: int, cfg: SolverConfig | None = None):
        self.inst = inst
        self._given = cfg if cfg is not None else SolverConfig()
        self.tuples = self._given.tuple_budget
        self.recursions = self._given.recursion_budget
        self.caps = {e.id: e.cap for e in inst.elements}
        self._frames: dict = {}
        self.resize(k)

    def resize(self, k: int):
        """Search for size k from now on: its config resolved, every memo but the frames empty."""
        self.cfg = self._given.resolved(self.inst.d, k)
        self.k = k
        self._gammas, self._independence, self._quotas, self._failed = {}, {}, {}, {}

    def charge_tuple(self):
        if self.tuples <= 0:
            raise BudgetExceeded("annotated-tuple budget exhausted")
        self.tuples -= 1

    def charge_recursion(self):
        if self.recursions <= 0:
            raise BudgetExceeded("recursion budget exhausted")
        self.recursions -= 1

    def replayed(self, key) -> bool:
        """Whether key failed before and both budgets cover its recorded charges.

        When they do, the charges are subtracted and the caller returns None.
        When one does not, the caller searches for real, so the budget runs out
        at the same charge, with the same message, as a search without memos.
        """
        spent = self._failed.get(key)
        if spent is None or self.tuples < spent[0] or self.recursions < spent[1]:
            return False
        self.tuples -= spent[0]
        self.recursions -= spent[1]
        return True

    def record_failure(self, key, tuples: int, recursions: int):
        """Record that key failed, charging what the budgets lost since they
        read (tuples, recursions), nested replays included."""
        self._failed[key] = (tuples - self.tuples, recursions - self.recursions)

    def frame(self, S: tuple[int, ...]) -> dict:
        """Each realized class of a sorted S to its set mask, in class order."""
        got = self._frames.get(S)
        if got is None:
            got = self._frames[S] = equivalence_classes(self.inst, S)
        return got

    def gamma_values(self, size: int) -> list[int]:
        """0 plus the bucket rungs up to size: the demands on a class that big."""
        if size not in self._gammas:
            self._gammas[size] = [0] + bucket_values_upto(size, self.cfg.bucket_base)
        return self._gammas[size]

    def quotas(self, r: int, pairs: tuple) -> tuple[int, ...]:
        """2 for each part the minimum dominator takes, else 1: blue j is adjacent
        to the parts pairs[j], and a part that two blues name first is forced."""
        if (r, pairs) not in self._quotas:
            firsts = Counter(a for a, _ in pairs)
            adj = dict(enumerate(pairs))
            graph = BipartiteGraph(tuple(range(r)), tuple(adj), adj)
            dom = min_dominator_forced(graph, {i for i in range(r) if firsts[i] >= 2})
            if dom is None:  # tau1/tau2 are total, so all the reds dominate
                raise InvariantViolated("the red parts do not dominate S")
            self._quotas[r, pairs] = tuple(2 if i in dom else 1 for i in range(r))
        return self._quotas[r, pairs]

    def independence(self, S: tuple[int, ...], pi: dict) -> IndependenceContext:
        """The (S, pi, rho) conflict relation, its stars and caches, one per size."""
        key = (S, tuple(pi.items()))
        if key not in self._independence:
            st = stars(self.frame(S), pi)
            self._independence[key] = IndependenceContext(stars=st, rho=self.cfg.rho)
        return self._independence[key]


def info_tuple(t: AnnotatedTuple, ctx: Search) -> tuple[tuple[int, ...], ...]:
    """X': each part cut to the elements that can meet its gamma demands.

    v stays in part i when its capacity covers the part's total demand and it
    lies in at least g sets of class cls for every (cls, g) in gamma row i;
    an unrealized class has mask 0, so no v meets a demand on it.
    """
    caps, hits = ctx.caps, ctx.inst.hits
    masks = ctx.frame(t.S)
    xprime = []
    for part, row in zip(t.parts, t.gamma):
        demand = sum(g for _, g in row)
        need = [(masks.get(cls, 0), g) for cls, g in row]
        xprime.append(tuple([
            v for v in part
            if caps[v] >= demand and all((hits[v] & mask).bit_count() >= g for mask, g in need)
        ]))
    return tuple(xprime)


def candidate_set(
    t: AnnotatedTuple, tau1: dict, xprime: tuple[tuple[int, ...], ...], ctx: Search
) -> tuple[tuple[int, ...], ...]:
    """X''_i: the whole of X'_i when small, else its top scorers per tau1 star.

    A part with at most small_class_threshold elements is taken whole and no
    score is computed.  A larger part keeps, for each s in S with tau1(s) = i,
    the top_t elements by (-score(v, s), v), where

        score(v, s) = max(0, min(n(v, s), cap(v) - (demand_i - gamma(i, s))))

    and n(v, s) sums min(ceil(base * gamma(i, cls)), inc(v, cls)) over the
    classes pi sends to s.  Scores are computed here, for those parts and
    stars only; when no part is ranked, X'' equals X'.
    """
    cfg, caps, hits = ctx.cfg, ctx.caps, ctx.inst.hits
    thr = cfg.small_class_threshold
    masks = ctx.frame(t.S)
    out = []
    for i, (xp, row) in enumerate(zip(xprime, t.gamma)):
        if len(xp) <= thr:
            out.append(xp)
            continue
        demand = sum(g for _, g in row)
        chosen: set[int] = set()
        for s in t.S:
            if tau1.get(s) != i:
                continue
            star = [(cls, g) for cls, g in row if t.pi.get(cls) == s]
            other = demand - sum(g for _, g in star)
            # Per class of star s, its mask and the incidence that counts toward n(v, s).
            useful = [(masks.get(cls, 0), math.ceil(cfg.bucket_base * g)) for cls, g in star]

            def score(v: int) -> int:
                n_vs = sum(min(c, (hits[v] & mask).bit_count()) for mask, c in useful)
                return max(0, min(n_vs, caps[v] - other))

            chosen.update(sorted(xp, key=lambda v: (-score(v), v))[: cfg.top_t])
        out.append(tuple(sorted(chosen)))
    return tuple(out)


def solve_extended(
    t: AnnotatedTuple, tau1: dict, tau2: dict, xpp: tuple[tuple[int, ...], ...], ctx: Search
) -> ExtendedResult:
    """Close t extended by tau1, tau2: dominate the stars, pick an independent set.

    xpp is the candidate set, candidate_set(t, tau1, info_tuple(t, ctx), ctx),
    which every caller already holds.  At r = 0 (tau1, tau2 and xpp empty) S
    itself is the pick: this is the one leaf of both modes.  Returns a
    solution only when the pick passes check_feasible and stays within
    ceil(4k/3).  The quotas and the conflict relation come from ctx's memos.
    A pick that leaves a set without a picked member, or whose capacities sum
    below m, is rejected from inst.hits and ctx's capacities before a
    Solution is built; check_feasible's matching decides the rest.
    """
    if len(t.S) + t.r != ctx.k:
        raise ValueError("tuple arity does not match k")
    picked: tuple[int, ...] | None = ()
    if t.r:
        for s in t.S:
            if tau1.get(s) is None or tau2.get(s) is None:
                raise ValueError("tau1/tau2 must be total on S")
            if t.r >= 2 and tau1[s] == tau2[s]:
                return ExtendedResult(solution=None, reason=TAU_CLASH)
        if not all(xpp):
            # An empty X''_i leaves part i without a pick whatever the quotas.
            return ExtendedResult(solution=None, reason=INDEPENDENCE_FAIL)
        quotas = ctx.quotas(t.r, tuple((tau1[s], tau2[s]) for s in t.S))
        ind = ctx.independence(t.S, t.pi)
        picked = find_independent_set(ind, xpp, quotas, ctx.inst)
    if picked is None:
        return ExtendedResult(solution=None, reason=INDEPENDENCE_FAIL)
    chosen = set(t.S) | set(picked)
    hit = room = 0
    for x in chosen:
        hit |= ctx.inst.hits[x]
        room += ctx.caps[x]
    if len(chosen) <= ceil43(ctx.k) and hit.bit_count() == ctx.inst.m and room >= ctx.inst.m:
        sol = Solution({x: 1 for x in chosen})
        if check_feasible(ctx.inst, sol) is not None:
            return ExtendedResult(sol)
    return ExtendedResult(None, INFEASIBLE_OR_TOO_BIG)


def enumerate_tuples(S, parts, ctx: Search):
    """Yield every annotated tuple on (S, parts): all pi maps, all gamma rows.

    A class's demand in a row is 0 or a bucket rung up to the class size; the
    tuples come in lexicographic order of the demands by part, then class.
    At |S| = k the one tuple is (S, parts, {}, ()), built without a frame.
    Each yielded tuple is charged against the search's tuple budget.  S and
    the parts must be disjoint: the tuples are built sorted and not re-checked.
    """
    S = tuple(sorted(S))
    parts = tuple(tuple(sorted(p)) for p in parts)
    r = len(parts)
    if len(S) == ctx.k:
        ctx.charge_tuple()
        yield _trusted(AnnotatedTuple, S=S, parts=parts, pi={}, gamma=(), r=r)
        return
    frame = ctx.frame(S)
    # Rows are cut per tuple from one product, rows^r of which may dwarf the
    # tuple budget; each distinct row is built once, after its first charge.
    n = len(frame)
    cuts = [(i, i + n) for i in range(0, n * r, n)]
    values = [ctx.gamma_values(mask.bit_count()) for mask in frame.values()] * r
    rows: dict = {}
    # pi sends the empty class, first in class order, to min(S), and any other anywhere in S.
    for choice in itertools.product(*([S if cls else S[:1] for cls in frame] if S else [])):
        pi = dict(zip(frame, choice))
        for combo in itertools.product(*values):
            ctx.charge_tuple()
            gamma = []
            for a, b in cuts:
                key = combo[a:b]
                row = rows.get(key)
                if row is None:  # the (class, demand) pairs with a positive demand
                    row = rows[key] = tuple(itertools.compress(zip(frame, key), key))
                gamma.append(row)
            yield _trusted(AnnotatedTuple, S=S, parts=parts, pi=pi, gamma=tuple(gamma), r=r)


def good_tuple_from_opt(
    S, parts, opt: Solution, asg: Assignment, ctx: Search
) -> AnnotatedTuple:
    """The annotated tuple an optimal pair (opt, asg) induces on (S, parts).

    pi follows the majority coverage, gamma buckets the actual coverage of the
    representative opt element in each part.  S and the parts must be disjoint:
    like enumerate_tuples', the tuple is built sorted and not re-checked.
    """
    S = tuple(sorted(S))
    parts = tuple(tuple(sorted(p)) for p in parts)
    rep = _oracle_reps(S, parts, opt)
    # held[cls][x]: how many sets of class cls the assignment charges to x, in class order.
    owned = asg.owned.items()
    held = {cls: {x: (cm & m).bit_count() for x, m in owned} for cls, cm in ctx.frame(S).items()}
    # pi[cls]: the first s of sorted S that holds the most, min(S) when none does.
    pi = {cls: max(S, key=lambda s: got.get(s, 0)) for cls, got in held.items()} if S else {}
    # Each demand is the top rung up to the coverage c: the largest ceil(base^p) <= c.
    gamma = tuple(
        tuple((cls, ctx.gamma_values(c)[-1]) for cls, got in held.items() if (c := got.get(v, 0)))
        for v in rep
    )
    return _trusted(AnnotatedTuple, S=S, parts=parts, pi=pi, gamma=gamma, r=len(parts))


def solve_annotated(t: AnnotatedTuple, ctx: Search) -> Solution | None:
    """Enumerate mode: per charged (tau1, tau2), commit each candidate of X'', then close.

    A tuple with r >= 1 that failed before is replayed by what its subtree reads:
    S, parts, pi, X' and, when some X'_i is longer than small_class_threshold, gamma.
    """
    if len(t.S) + t.r != ctx.k:
        raise ValueError("tuple arity does not match k")
    if t.r == 0:
        return solve_extended(t, {}, {}, (), ctx).solution
    xprime = info_tuple(t, ctx)
    thr = ctx.cfg.small_class_threshold
    gamma = t.gamma if max(map(len, xprime)) > thr else ()
    key = (t.S, t.parts, tuple(t.pi.items()), xprime, gamma)
    if ctx.replayed(key):
        return None
    tuples, recursions = ctx.tuples, ctx.recursions
    r = t.r
    rests = [t.parts[:i] + t.parts[i + 1 :] for i in range(r)]
    for m1 in itertools.product(range(r), repeat=len(t.S)):
        tau1 = dict(zip(t.S, m1))
        xpp = candidate_set(t, tau1, xprime, ctx)
        for m2 in itertools.product(range(r), repeat=len(t.S)):
            ctx.charge_tuple()
            tau2 = dict(zip(t.S, m2))
            for rest, xpp_i in zip(rests, xpp):
                for v in xpp_i:
                    got = _search_below(t.S + (v,), rest, ctx)
                    if got is not None:
                        return got
            res = solve_extended(t, tau1, tau2, xpp, ctx)
            if res.solution is not None:
                return res.solution
    ctx.record_failure(key, tuples, recursions)
    return None


def _search_below(S, parts, ctx: Search) -> Solution | None:
    """Enumerate mode: charge a recursion, then solve, per annotated tuple on (S, parts).

    A subtree that failed before is replayed (Search.replayed) instead of
    searched again.
    """
    key = (tuple(sorted(S)), parts)
    if ctx.replayed(key):
        return None
    tuples, recursions = ctx.tuples, ctx.recursions
    for child in enumerate_tuples(S, parts, ctx):
        ctx.charge_recursion()
        got = solve_annotated(child, ctx)
        if got is not None:
            return got
    ctx.record_failure(key, tuples, recursions)
    return None


def _oracle_reps(S, parts, opt: Solution) -> list[int]:
    """The oracle element of each part; raises PreconditionViolated unless S
    lies in opt and each part holds exactly one element of opt."""
    if not set(S) <= opt.copies.keys():
        raise PreconditionViolated("S is not contained in the oracle solution")
    rep = []
    for p in parts:
        inside = [v for v in p if v in opt.copies]
        if len(inside) != 1:
            raise PreconditionViolated("a part does not hold exactly one oracle element")
        rep.append(inside[0])
    return rep


def _solve_guided(S, parts, rep, opt: Solution, asg: Assignment, ctx: Search) -> Solution | None:
    """Guided mode from (S, parts), where rep[i] is the oracle element of
    parts[i]: per pass, t is the tuple the optimum induces on them; tau1, tau2
    send each s to the two parts whose oracle elements cover most of star s;
    the first oracle element left in X'' joins S and leaves with its part,
    else t is closed.  The r = 0 leaf is closed after the loop."""
    while (t := good_tuple_from_opt(S, parts, opt, asg, ctx)).r:
        st = ctx.independence(t.S, t.pi).stars
        tau1, tau2 = {}, {}
        for s in t.S:
            cover = [(st.get(s, 0) & asg.owned.get(v, 0)).bit_count() for v in rep]
            ranked = sorted(range(t.r), key=lambda i: (-cover[i], i))
            tau1[s], tau2[s] = ranked[0], ranked[min(1, t.r - 1)]
        xpp = candidate_set(t, tau1, info_tuple(t, ctx), ctx)
        hit = next((i for i in range(t.r) if rep[i] in xpp[i]), None)
        if hit is None:
            return solve_extended(t, tau1, tau2, xpp, ctx).solution
        S, parts = t.S + (rep[hit],), t.parts[:hit] + t.parts[hit + 1 :]
        rep = rep[:hit] + rep[hit + 1 :]
    return solve_extended(t, {}, {}, (), ctx).solution


def expand_multiplicities(inst: Instance, k: int) -> Expansion:
    """Clone each element copy_limit(el, k) times with multiplicity one.

    Set membership is inherited by every clone, so sets grow up to d*k wide;
    the clone instance's d is its widest set (d itself when there is none).
    Built trusted, without the Instance and Element checks: clone ids are
    distinct and each set's are sorted, and every copy limit is at least 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    new_elements = []
    back: dict = {}
    copy_ids: dict = {}
    for el in inst.elements:
        start = len(back)
        copy_ids[el.id] = list(range(start, start + copy_limit(el, k)))
        for x in copy_ids[el.id]:
            new_elements.append(_trusted(Element, id=x, cap=el.cap, mult=1, weight=el.weight))
            back[x] = el.id
    family2 = [tuple(sorted(x for y in fs for x in copy_ids[y])) for fs in inst.family]
    d2 = max((len(fs) for fs in family2), default=inst.d)
    inst2 = _trusted(Instance, elements=tuple(new_elements), family=tuple(family2), d=d2)
    return Expansion(instance=inst2, back=back, copy_ids=copy_ids)


def _lift_oracle(
    inst2: Instance, copy_ids: dict, opt: Solution, asg: Assignment
) -> tuple[Solution, Assignment]:
    """Spread an original-instance optimum over clones, one copy each."""
    copies2: dict = {}
    target2: dict = {}
    for x in sorted(opt.copies):
        ids = copy_ids[x][: opt.copies[x]]
        for cid in ids:
            copies2[cid] = 1
        assigned = sorted(j for j, tgt in asg.target.items() if tgt == x)
        cap = inst2.element(ids[0]).cap if ids else 0
        pos = 0
        for cid in ids:
            chunk = assigned[pos : pos + cap]
            pos += cap
            for j in chunk:
                target2[j] = cid
        if pos < len(assigned):
            raise OracleInconsistent("oracle assignment overloads an element")
    return Solution(copies2), Assignment(target2)


def solve_approx(
    inst: Instance, k: int, cfg: SolverConfig | None = None, mode: str = GUIDED
) -> Result | None:
    """Find a capacitated hitting set of size at most ceil(4k/3), or None.

    mode is ENUMERATE for the self-contained search or GUIDED for the
    oracle-backed descent.  With cfg.epsilon set the weighted variant runs:
    parts are additionally sliced into weight windows and the guarantee traded
    for weight at most (2 + epsilon) times the optimum.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if k < 0:
        raise ValueError("k must be nonnegative")
    if mode not in (GUIDED, ENUMERATE):
        raise ValueError("mode must be GUIDED or ENUMERATE")
    if mode == GUIDED:
        oracle = (solve_exact if cfg.epsilon is None else solve_exact_weighted)(inst, k)
        return None if oracle is None else _guided(inst, k, cfg, oracle)
    if k == 0 or not inst.family:
        # No set is empty, so the empty solution is feasible iff there are none.
        return None if inst.family else _finish(inst, Solution({}), {})
    exp = expand_multiplicities(inst, k)
    inst2 = exp.instance
    ctx = Search(inst2, k, cfg)
    # A size above the clone count leaves a part of every coloring empty.
    for ell in range(1, min(k, inst2.n) + 1):
        ctx.resize(ell)
        for cand in _colorings(inst2, cfg, ell):
            parts0 = tuple(tuple(sorted(p)) for p in cand)
            if any(not p for p in parts0):
                continue
            for parts in _all_windows(inst2, parts0, ell, cfg.epsilon):
                got = _search_below((), parts, ctx)
                if got is not None:
                    return _finish(inst, got, exp.back)
    return None


def _guided(inst: Instance, k: int, cfg: SolverConfig, oracle: Result) -> Result | None:
    """Guided mode after its oracle call on (inst, k): spread the optimum over
    the clones, separate it by a coloring and descend along it.  An empty
    oracle solution (an instance without sets) is the answer itself."""
    if not oracle.solution.copies:
        return _finish(inst, Solution({}), {})
    exp = expand_multiplicities(inst, k)
    inst2 = exp.instance
    ell = oracle.solution.size()
    ctx = Search(inst2, ell, cfg)
    opt2, asg2 = _lift_oracle(inst2, exp.copy_ids, oracle.solution, oracle.assignment)
    colorings = _colorings(inst2, cfg, ell)
    # The oracle's clones, by position in the coloring's ids: only their colors decide.
    where = [(i, x) for i, x in enumerate(colorings.ids) if x in opt2.copies]
    for row in colorings.rows():
        rep = {row[i]: x for i, x in where}
        if len(rep) == ell:
            parts = tuple(tuple(sorted(p)) for p in colorings.parts(row))
            rep = [rep[c] for c in range(ell)]
            break
    else:
        raise NoColoringSeparates(
            f"no coloring among {len(colorings)} separated the oracle solution"
        )
    if cfg.epsilon is not None:
        # Each part keeps the weight window of its oracle element.
        w_star = opt2.weight(inst2)
        W = next(w for w in weight_estimates(inst2) if w >= w_star)
        delta = _window_width(cfg.epsilon, W, ell, inst2.n)
        bvec = [inst2.element(v).weight // delta for v in rep]
        parts = _weight_windows(inst2, parts, bvec, delta)
    sol2 = _solve_guided((), parts, rep, opt2, asg2, ctx)
    return None if sol2 is None else _finish(inst, sol2, exp.back)


def _colorings(inst2: Instance, cfg: SolverConfig, ell: int):
    """The colorings of inst2's elements into ell parts to try, at most max_coloring_trials."""
    trials = min(default_trials(inst2.n, ell), cfg.max_coloring_trials)
    return random_colorings([e.id for e in inst2.elements], ell, trials, cfg.seed)


def _window_width(epsilon, W: int, ell: int, n: int) -> int:
    """delta = ceil(epsilon * W / (ell * log n)), at least 1."""
    log_n = max(1, (n - 1).bit_length())
    return max(1, math.ceil(Fraction(epsilon) * W / (ell * log_n)))


def _weight_windows(inst2: Instance, parts, bvec, delta: int):
    """Part i cut to the elements weighing between b_i * delta and (b_i + 1) * delta."""
    return tuple(
        tuple(v for v in p if b * delta <= inst2.element(v).weight <= b * delta + delta)
        for p, b in zip(parts, bvec)
    )


def _all_windows(inst2: Instance, parts0, ell: int, epsilon):
    """parts0 itself; with epsilon set, its cut to every window vector that
    leaves no part empty instead, ascending.  Weight w lies in window w // delta
    and, when delta divides w > 0, in the one below: each part offers only the
    windows of its elements, so the walk does not grow with the weights."""
    if epsilon is None:
        yield parts0
        return
    for W in weight_estimates(inst2):
        delta = _window_width(epsilon, W, ell, inst2.n)
        offered = []
        for p in parts0:
            ws = [inst2.element(v).weight for v in p]
            below = {w // delta - 1 for w in ws if w and w % delta == 0}
            offered.append(sorted({w // delta for w in ws} | below))
        for bvec in itertools.product(*offered):
            yield _weight_windows(inst2, parts0, bvec, delta)


def _finish(inst: Instance, sol2: Solution, back: dict) -> Result:
    """The Result on inst of a clone solution: each clone back to its original."""
    sol = Solution(dict(Counter(back[x] for x in sol2.copies)))
    asg = check_feasible(inst, sol)
    if asg is None:
        raise InvariantViolated("the mapped-back solution is infeasible")
    return Result(solution=sol, assignment=asg, weight=sol.weight(inst))
