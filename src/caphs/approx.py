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
recursion charges it made, keyed by what the subtree reads: (size, S, parts)
for the tuples on them, and for one tuple with r >= 1 (size, S, parts, pi,
X', then gamma or ()), gamma only when candidate_set reads it: when some
X'_i is ranked.  Meeting a key again subtracts its charges when both budgets
cover them and otherwise searches it again, so BudgetExceeded fires at the
same charge, with the same message, as a search without the memos.  A leaf
(|S| = k) reads neither pi nor gamma, so enumerate_tuples builds no frame.

The closing step charges nothing, so Search memoizes each closing by (size, S,
pi, X'', quotas), its quotas by (r, tau pairs) and its conflicts by (S, pi, rho).

X'_i is part i cut by capacity and class incidence.  X''_i, the candidates the
closing step may pick from, is all of X'_i for a small part; only a part above
small_class_threshold is ranked, so candidate_set scores those parts alone.

Every layer takes the pieces of a tuple it reads (t, tau1, tau2, X'') and one
Search last: the instance, the resolved config, both budgets and the per-S
memos of one search.  A direct call builds it with Search(inst, cfg).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .colorweights import default_trials, random_colorings, weight_estimates
from .core import (
    Assignment,
    Instance,
    Solution,
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
from .feasibility import check_feasible, coverage
from .independence import IndependenceContext, find_independent_set

ENUMERATE = "enumerate"
GUIDED = "guided"

# Reasons a closing attempt on an extended tuple can give up.
TAU_CLASH = "tau-clash"
INDEPENDENCE_FAIL = "independence-fail"
INFEASIBLE_OR_TOO_BIG = "infeasible-or-too-big"


@dataclass(frozen=True)
class SolverConfig:
    """Search constants.  None fields are derived from (k, d) by resolved().

    The theory constants are enormous (top_t = d*k^10 and so on); stress tests
    override them downward, which only ever shrinks the search space.
    """

    k: int
    rho: Fraction | None = None
    top_t: int | None = None
    small_class_threshold: int | None = None
    bucket_base: Fraction | None = None
    tuple_budget: int = 200_000
    recursion_budget: int = 20_000
    seed: int = 0
    epsilon: Fraction | None = None
    max_coloring_trials: int = 10_000

    def resolved(self, d: int, k: int | None = None) -> "SolverConfig":
        kk = int(self.k if k is None else k)
        if kk < 1:
            raise ValueError("k must be at least 1")
        if d < 1:
            raise ValueError("d must be at least 1")
        rho = self.rho if self.rho is not None else Fraction(1, kk ** 4)
        rho = Fraction(rho)
        if not 0 < rho <= 1:
            raise ValueError("rho must lie in (0, 1]")
        top_t = self.top_t if self.top_t is not None else d * kk ** 10
        thr = (
            self.small_class_threshold
            if self.small_class_threshold is not None
            else d * kk ** 11
        )
        base = (
            Fraction(self.bucket_base)
            if self.bucket_base is not None
            else 1 + Fraction(1, 3 * kk)
        )
        if base <= 1:
            raise ValueError("bucket_base must exceed 1")
        if top_t < 1 or thr < 0:
            raise ValueError("top_t must be positive and the threshold nonnegative")
        if self.tuple_budget < 0 or self.recursion_budget < 0:
            raise ValueError("budgets must be nonnegative")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_coloring_trials < 1:
            raise ValueError("max_coloring_trials must be at least 1")
        return replace(
            self,
            k=kk,
            rho=rho,
            top_t=top_t,
            small_class_threshold=thr,
            bucket_base=base,
        )


def ceil43(k: int) -> int:
    """The size target ceil(4k/3)."""
    return (4 * k + 2) // 3


def _rung(c: int, base) -> tuple[Fraction, int]:
    """(base, largest p with base^p <= c)."""
    if c < 1:
        raise ValueError("bucket values need c >= 1")
    base = Fraction(base)
    if base <= 1:
        raise ValueError("bucket base must exceed 1")
    # A float estimate, corrected exactly.  From 2 up, ln base is taken from
    # its integer numerator and denominator: float(base) may overflow.
    a, b = base.numerator, base.denominator
    p = int(math.log(c) / (math.log1p(base - 1) if a < 2 * b else math.log(a) - math.log(b)))
    while p > 0 and base ** p > c:
        p -= 1
    while base ** (p + 1) <= c:
        p += 1
    return base, p


def bucket_value(c: int, base) -> int:
    """ceil(base^p) for the largest p with base^p <= c.  Exact arithmetic."""
    base, p = _rung(c, base)
    return math.ceil(base ** p)


def bucket_value_next(c: int, base) -> int:
    """ceil(base^(p+1)) for the same p as bucket_value: the next rung up."""
    base, p = _rung(c, base)
    return math.ceil(base ** (p + 1))


def bucket_values_upto(limit: int, base) -> list[int]:
    """Distinct rung values ceil(a^p / b^p) <= limit for base = a / b, ascending."""
    if limit < 1:
        return []
    base = Fraction(base)
    if base <= 1:
        raise ValueError("bucket base must exceed 1")
    num, den, out = 1, 1, []
    while num <= limit * den:
        out.append(-(-num // den))
        num, den = num * base.numerator, den * base.denominator
    return list(dict.fromkeys(out))


@dataclass(frozen=True)
class AnnotatedTuple:
    """(S, X_1..X_r, pi, gamma) with one sparse gamma row per part.

    gamma[i] holds part i's positive demands as (class, demand) pairs sorted
    by class; a class the row omits has demand 0.  pi maps each realized
    class of S to an element of S, including the empty class when S is
    nonempty.  At r = 0 nothing reads pi or gamma, and enumerate_tuples
    leaves both empty there.
    """

    S: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    pi: dict
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "S", tuple(sorted(self.S)))
        object.__setattr__(
            self, "parts", tuple(tuple(sorted(p)) for p in self.parts)
        )
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

    @classmethod
    def _trusted(cls, S, parts, pi, gamma) -> "AnnotatedTuple":
        """A tuple already canonical and valid, built without __post_init__."""
        t = object.__new__(cls)
        t.__dict__.update(S=S, parts=parts, pi=pi, gamma=gamma)
        return t

    @property
    def r(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class ExtendedResult:
    solution: Solution | None
    reason: str | None = None


@dataclass(frozen=True)
class ApproxResult:
    solution: Solution
    assignment: Assignment
    weight: int


@dataclass(frozen=True)
class Expansion:
    """Clone instance; back maps clone ids to originals, copy_ids the reverse."""

    instance: Instance
    back: dict
    copy_ids: dict


class Search:
    """The context every annotated-tuple layer of both modes takes: one search.

    Search(inst, cfg) resolves cfg for inst.d and takes its two budgets.  It
    memoizes what depends only on S (its classes, sorted realized classes and
    class incidence) or on a class size and k, which fixes the bucket base
    (the gamma values enumerate_tuples ranges over).  solve_approx builds one
    per call and re-resolves cfg for each target size; budgets and memos carry
    across sizes.

    _failed maps the key of an enumerate-mode subtree that found nothing to
    the (tuple, recursion) charges it made: (size, sorted S, parts) from
    _search_below, and (size, S, parts, sorted pi items, X', then gamma or ())
    from solve_annotated.  replayed() and record_failure() are the one rule
    both apply.  Only failures are stored, and every entry
    charged at least one tuple itself, so there are at most tuple_budget.

    The closing memos: _closings maps (size, S, sorted pi items, X'', quotas),
    () for the last three at r = 0, to solve_extended's result; _quotas maps
    (r, the (tau1(s), tau2(s)) pairs over sorted S) to the quota vector; and
    _independence maps (S, sorted pi items, rho) to an IndependenceContext.
    """

    def __init__(self, inst: Instance, cfg: SolverConfig):
        self.inst = inst
        self.cfg = cfg.resolved(inst.d)
        self.tuples = cfg.tuple_budget
        self.recursions = cfg.recursion_budget
        self._frames: dict = {}
        self._gammas: dict = {}
        self._failed: dict = {}
        self._closings: dict = {}
        self._quotas: dict = {}
        self._independence: dict = {}

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

    def frame(self, S: tuple[int, ...]):
        """(classes, sorted realized classes, incidence) for a sorted S.

        incidence[(v, cls)] counts the sets of class cls that contain v.
        """
        got = self._frames.get(S)
        if got is None:
            classes = equivalence_classes(self.inst, S)
            family = self.inst.family
            inc = Counter(
                (v, cls) for cls, idxs in classes.items() for j in idxs for v in family[j]
            )
            got = self._frames[S] = (classes, sorted(classes), inc)
        return got

    def gamma_values(self, size: int) -> list[int]:
        """0 plus the bucket rungs up to size: the demands on a class that big."""
        key = (size, self.cfg.k)  # k fixes the bucket base; a Fraction hashes slowly
        if key not in self._gammas:
            self._gammas[key] = [0] + bucket_values_upto(size, self.cfg.bucket_base)
        return self._gammas[key]

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

    def independence(self, S: tuple[int, ...], pi_items: tuple) -> IndependenceContext:
        """The (S, pi, rho) conflict relation and its caches, one per search."""
        key = (S, pi_items, self.cfg.rho)
        if key not in self._independence:
            st = stars(self.frame(S)[0], dict(pi_items))
            self._independence[key] = IndependenceContext(stars=st, rho=self.cfg.rho)
        return self._independence[key]


def info_tuple(t: AnnotatedTuple, ctx: Search) -> tuple[tuple[int, ...], ...]:
    """X': each part cut to the elements that can meet its gamma demands.

    v stays in part i when its capacity covers the part's total demand and it
    lies in at least g sets of class cls for every (cls, g) in gamma row i.
    """
    inst = ctx.inst
    inc = ctx.frame(t.S)[2]
    xprime = []
    for part, row in zip(t.parts, t.gamma):
        demand = sum(g for _, g in row)
        xprime.append(
            tuple(
                v
                for v in part
                if inst.element(v).cap >= demand
                and all(inc.get((v, cls), 0) >= g for cls, g in row)
            )
        )
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
    stars only.
    """
    inst, cfg = ctx.inst, ctx.cfg
    inc = ctx.frame(t.S)[2]
    out = []
    for i, (xp, row) in enumerate(zip(xprime, t.gamma)):
        if len(xp) <= cfg.small_class_threshold:
            out.append(xp)
            continue
        demand = sum(g for _, g in row)
        chosen: set[int] = set()
        for s in t.S:
            if tau1.get(s) != i:
                continue
            star = [(cls, g) for cls, g in row if t.pi.get(cls) == s]
            other = demand - sum(g for _, g in star)
            # Per class of star s, the incidence that counts toward n(v, s).
            useful = [(cls, math.ceil(cfg.bucket_base * g)) for cls, g in star]

            def score(v: int) -> int:
                n_vs = sum(min(c, inc.get((v, cls), 0)) for cls, c in useful)
                return max(0, min(n_vs, inst.element(v).cap - other))

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
    ceil(4k/3).  Past the tau clash and an empty X''_i it is memoized on ctx.
    """
    cfg = ctx.cfg
    if len(t.S) + t.r != cfg.k:
        raise ValueError("tuple arity does not match k")
    if t.r == 0:
        pi_items, xpp, quotas = (), (), ()
    else:
        for s in t.S:
            if tau1.get(s) is None or tau2.get(s) is None:
                raise ValueError("tau1/tau2 must be total on S")
            if t.r >= 2 and tau1[s] == tau2[s]:
                return ExtendedResult(solution=None, reason=TAU_CLASH)
        if not all(xpp):
            # An empty X''_i leaves part i without a pick whatever the quotas.
            return ExtendedResult(solution=None, reason=INDEPENDENCE_FAIL)
        pi_items = tuple(sorted(t.pi.items()))
        quotas = ctx.quotas(t.r, tuple((tau1[s], tau2[s]) for s in t.S))
    key = (cfg.k, t.S, pi_items, xpp, quotas)
    if key in ctx._closings:
        return ctx._closings[key]
    picked: tuple[int, ...] | None = ()
    if xpp:
        picked = find_independent_set(ctx.independence(t.S, pi_items), xpp, quotas, ctx.inst)
    if picked is None:
        res = ExtendedResult(solution=None, reason=INDEPENDENCE_FAIL)
    else:
        sol = Solution({x: 1 for x in set(t.S) | set(picked)})
        ok = sol.size() <= ceil43(cfg.k) and check_feasible(ctx.inst, sol) is not None
        res = ExtendedResult(sol) if ok else ExtendedResult(None, INFEASIBLE_OR_TOO_BIG)
    ctx._closings[key] = res
    return res


def enumerate_tuples(S, parts, ctx: Search):
    """Yield every annotated tuple on (S, parts): all pi maps, all gamma rows.

    A class's demand in a row is 0 or a bucket rung up to the class size; the
    tuples come in lexicographic order of the demands by part, then class.
    At |S| = k the one tuple is (S, parts, {}, ()), built without a frame.
    Each yielded tuple is charged against the search's tuple budget.  S and
    the parts must be disjoint: the tuples are built sorted and not re-checked.
    """
    cfg = ctx.cfg
    S = tuple(sorted(S))
    parts = tuple(tuple(sorted(p)) for p in parts)
    if len(S) == cfg.k:
        ctx.charge_tuple()
        yield AnnotatedTuple._trusted(S, parts, {}, ())
        return
    classes, realized, _ = ctx.frame(S)
    nonempty = [cls for cls in realized if cls]
    if S:
        pi_choices = itertools.product(sorted(S), repeat=len(nonempty))
    else:
        pi_choices = iter([()])
    # Rows are cut per tuple from one product: rows^r may dwarf the tuple budget.
    n = len(realized)
    values = [ctx.gamma_values(len(classes[cls])) for cls in realized] * len(parts)
    for choice in pi_choices:
        pi = dict(zip(nonempty, choice))
        if S and () in classes:
            pi[()] = min(S)
        for combo in itertools.product(*values):
            gamma = tuple(
                tuple((cls, g) for cls, g in zip(realized, combo[i * n : i * n + n]) if g)
                for i in range(len(parts))
            )
            ctx.charge_tuple()
            yield AnnotatedTuple._trusted(S, parts, pi, gamma)


def good_tuple_from_opt(
    S, parts, opt: Solution, asg: Assignment, ctx: Search
) -> AnnotatedTuple:
    """The annotated tuple an optimal pair (opt, asg) induces on (S, parts).

    pi follows the majority coverage, gamma buckets the actual coverage of the
    representative opt element in each part.
    """
    S = tuple(sorted(S))
    parts = tuple(tuple(sorted(p)) for p in parts)
    rep = _oracle_reps(S, parts, opt)
    classes, realized, _ = ctx.frame(S)
    pi: dict = {}
    for cls in realized:
        if not S:
            break
        if cls == ():
            pi[cls] = min(S)
            continue
        idxs = classes[cls]
        best_s, best_c = None, -1
        for s in S:
            c = coverage(asg, s, idxs)
            if c > best_c:
                best_s, best_c = s, c
        pi[cls] = best_s if best_c > 0 else min(S)
    # Each demand is the top rung up to the coverage c, bucket_value(c, base).
    gamma = [
        [(cls, ctx.gamma_values(c)[-1])
         for cls in realized if (c := coverage(asg, v, classes[cls]))]
        for v in rep
    ]
    return AnnotatedTuple(S=S, parts=parts, pi=pi, gamma=gamma)


def solve_annotated(t: AnnotatedTuple, ctx: Search) -> Solution | None:
    """Enumerate mode: per charged (tau1, tau2), commit each candidate of X'', then close.

    A tuple with r >= 1 that failed before is replayed by what its subtree
    reads: size, S, parts, pi, X' and, only when some X'_i is ranked (longer
    than small_class_threshold), gamma.
    """
    if len(t.S) + t.r != ctx.cfg.k:
        raise ValueError("tuple arity does not match k")
    if t.r == 0:
        return solve_extended(t, {}, {}, (), ctx).solution
    xprime = info_tuple(t, ctx)
    thr = ctx.cfg.small_class_threshold
    gamma = t.gamma if any(len(xp) > thr for xp in xprime) else ()
    key = (ctx.cfg.k, t.S, t.parts, tuple(sorted(t.pi.items())), xprime, gamma)
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

    A subtree that failed before at this size is replayed (Search.replayed)
    instead of searched again.
    """
    key = (ctx.cfg.k, tuple(sorted(S)), parts)
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


def _solve_guided(
    t: AnnotatedTuple, opt: Solution, asg: Assignment, ctx: Search
) -> Solution | None:
    """Guided mode: tau1, tau2 send each s to the two parts whose oracle elements
    cover most of star s; the first oracle element left in X'' is committed,
    else t is closed."""
    if t.r == 0:
        return solve_extended(t, {}, {}, (), ctx).solution
    rep = _oracle_reps(t.S, t.parts, opt)
    st = stars(ctx.frame(t.S)[0], t.pi)
    r = t.r
    tau1: dict = {}
    tau2: dict = {}
    for s in t.S:
        cover = [coverage(asg, rep[i], st.get(s, ())) for i in range(r)]
        ranked = sorted(range(r), key=lambda i: (-cover[i], i))
        tau1[s], tau2[s] = ranked[0], ranked[min(1, r - 1)]
    xpp = candidate_set(t, tau1, info_tuple(t, ctx), ctx)
    hit = next((i for i in range(r) if rep[i] in xpp[i]), None)
    if hit is not None:
        s2 = t.S + (rep[hit],)
        parts2 = t.parts[:hit] + t.parts[hit + 1 :]
        return _solve_guided(good_tuple_from_opt(s2, parts2, opt, asg, ctx), opt, asg, ctx)
    return solve_extended(t, tau1, tau2, xpp, ctx).solution


def expand_multiplicities(inst: Instance, k: int) -> Expansion:
    """Clone each element min(k, mult) times with multiplicity one.

    Set membership is inherited by every clone, so sets grow up to d*k wide.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    from .core import Element

    new_elements = []
    back: dict = {}
    copy_ids: dict = {}
    nxt = 0
    for el in inst.elements:
        copies = min(k, el.mult) if el.mult is not None else k
        copy_ids[el.id] = []
        for _ in range(copies):
            new_elements.append(
                Element(id=nxt, cap=el.cap, mult=1, weight=el.weight)
            )
            back[nxt] = el.id
            copy_ids[el.id].append(nxt)
            nxt += 1
    family2 = []
    for fs in inst.family:
        members: list[int] = []
        for x in fs:
            members.extend(copy_ids[x])
        family2.append(tuple(sorted(members)))
    widest = max((len(fs) for fs in family2), default=inst.d)
    d2 = max(1, min(inst.d * k, widest))
    inst2 = Instance(elements=tuple(new_elements), family=tuple(family2), d=d2)
    return Expansion(instance=inst2, back=back, copy_ids=copy_ids)


def _map_back(sol2: Solution, back: dict) -> Solution:
    return Solution(dict(Counter(back[x] for x in sol2.copies)))


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
) -> ApproxResult | None:
    """Find a capacitated hitting set of size at most ceil(4k/3), or None.

    mode is ENUMERATE for the self-contained search or GUIDED for the
    oracle-backed descent.  With cfg.epsilon set the weighted variant runs:
    parts are additionally sliced into weight windows and the guarantee traded
    for weight at most (2 + epsilon) times the optimum.
    """
    if cfg is None:
        cfg = SolverConfig(k=k)
    if cfg.k != k:
        cfg = replace(cfg, k=k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if mode not in (GUIDED, ENUMERATE):
        raise ValueError("mode must be GUIDED or ENUMERATE")
    if k == 0 or not inst.family:
        # No set is empty, so the empty solution is feasible iff there are none.
        cfg.resolved(inst.d, k=max(k, 1))  # checks every other config field
        return None if inst.family else _finish(inst, Solution({}), {})
    exp = expand_multiplicities(inst, k)
    inst2 = exp.instance
    ctx = Search(inst2, cfg)

    if mode == GUIDED:
        got = (solve_exact if cfg.epsilon is None else solve_exact_weighted)(inst, k)
        if got is None:
            return None
        ell = got.solution.size()
        opt2, asg2 = _lift_oracle(inst2, exp.copy_ids, got.solution, got.assignment)
        colorings = _colorings(ctx, cfg, ell)
        parts = None
        for cand in colorings:
            hit = {i for i, part in enumerate(cand) for v in part if v in opt2.copies}
            if len(hit) == ell:
                parts = tuple(tuple(sorted(p)) for p in cand)
                break
        if parts is None:
            raise NoColoringSeparates(
                f"no coloring among {len(colorings)} separated the oracle solution"
            )
        if cfg.epsilon is not None:
            # Each part keeps the weight window of its oracle element.
            w_star = opt2.weight(inst2)
            W = next(w for w in weight_estimates(inst2) if w >= w_star)
            delta = _window_width(cfg.epsilon, W, ell, inst2.n)
            reps = [next(v for v in p if v in opt2.copies) for p in parts]
            bvec = [inst2.element(v).weight // delta for v in reps]
            parts = _weight_windows(inst2, parts, bvec, delta)
        root = good_tuple_from_opt((), parts, opt2, asg2, ctx)
        sol2 = _solve_guided(root, opt2, asg2, ctx)
        return None if sol2 is None else _finish(inst, sol2, exp.back)

    # A size above the clone count leaves a part of every coloring empty.
    for ell in range(1, min(k, inst2.n) + 1):
        for cand in _colorings(ctx, cfg, ell):
            parts0 = tuple(tuple(sorted(p)) for p in cand)
            if any(not p for p in parts0):
                continue
            for parts in _all_windows(inst2, parts0, ell, cfg.epsilon):
                if any(not p for p in parts):
                    continue
                got = _search_below((), parts, ctx)
                if got is not None:
                    return _finish(inst, got, exp.back)
    return None


def _colorings(ctx: Search, cfg: SolverConfig, ell: int):
    """Re-resolve ctx.cfg for size ell; the colorings to try, at most max_coloring_trials."""
    ctx.cfg = cfg.resolved(ctx.inst.d, k=ell)
    trials = min(default_trials(ctx.inst.n, ell), cfg.max_coloring_trials)
    return random_colorings([e.id for e in ctx.inst.elements], ell, trials, cfg.seed)


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
    """parts0 itself; with epsilon set, its cut to every window vector instead."""
    if epsilon is None:
        yield parts0
        return
    max_w = max(e.weight for e in inst2.elements)
    for W in weight_estimates(inst2):
        delta = _window_width(epsilon, W, ell, inst2.n)
        for bvec in itertools.product(range(max_w // delta + 1), repeat=ell):
            yield _weight_windows(inst2, parts0, bvec, delta)


def _finish(inst: Instance, sol2: Solution, back: dict) -> ApproxResult:
    sol = _map_back(sol2, back)
    asg = check_feasible(inst, sol)
    if asg is None:
        raise InvariantViolated("the mapped-back solution is infeasible")
    return ApproxResult(solution=sol, assignment=asg, weight=sol.weight(inst))
