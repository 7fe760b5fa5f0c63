"""Gap-preserving reductions: 2-CSP to knapsack to capacitated vertex cover.

The chain demonstrates hardness transfer empirically: a binary CSP over domain
[n] turns into a multi-dimensional knapsack whose guard dimensions force one
vector per variable and per constraint, and the knapsack in turn becomes a
degree-2 capacitated cover instance whose dummy vertices absorb exactly the
slack between column sums and targets.  A covering-family variant batches
variables to amplify the gap.  Everything here is exact integer arithmetic;
randomness only enters when sampling covering families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import FORMAT_VERSION, Element, Instance, json_text
from .core import _check_format, _expect, _is_int, _load_object, _trusted
from .errors import (
    BudgetExceeded,
    EnumerationBudgetExceeded,
    NotThreeRegular,
    ParameterViolation,
    TargetExceedsColumnSum,
    ValidationError,
)
from .pcg import Stream


@dataclass(frozen=True)
class Constraint:
    """One binary constraint: (value(u), value(v)) must be an allowed pair."""

    u: int
    v: int
    allowed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "allowed", tuple(sorted(set(tuple(p) for p in self.allowed)))
        )


@dataclass(frozen=True)
class CspInstance:
    """Binary CSP: k variables (ids 0..k-1) over values 1..n.

    Constraints form a multigraph; parallel edges are distinct constraints.
    """

    k: int
    n: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not (_is_int(self.k) and _is_int(self.n)):
            raise ValidationError("csp k and n must be integers")
        if self.k < 1 or self.n < 1:
            raise ValidationError("csp needs k >= 1 and n >= 1")
        for c in self.constraints:
            if not (_is_int(c.u) and _is_int(c.v) and 0 <= c.u < self.k and 0 <= c.v < self.k):
                raise ValidationError(f"constraint names unknown variable: {c}")
            if c.u == c.v:
                raise ValidationError(f"constraint loops on variable {c.u}")
            for a, b in c.allowed:
                if not (_is_int(a) and _is_int(b) and 1 <= a <= self.n and 1 <= b <= self.n):
                    raise ValidationError(f"allowed pair {(a, b)} out of range")

    @property
    def m(self) -> int:
        return len(self.constraints)


def is_three_regular(csp: CspInstance) -> bool:
    deg = [0] * csp.k
    for c in csp.constraints:
        deg[c.u] += 1
        deg[c.v] += 1
    return all(x == 3 for x in deg)


def serialize_csp(csp: CspInstance) -> str:
    doc = {
        "format": FORMAT_VERSION,
        "k": csp.k,
        "n": csp.n,
        "constraints": [
            {"u": c.u, "v": c.v, "allowed": [list(p) for p in c.allowed]}
            for c in csp.constraints
        ],
    }
    return json_text(doc)


def parse_csp(text: str) -> CspInstance:
    doc = _load_object(text, "csp document")
    _check_format(doc.get("format"))
    for key in ("k", "n", "constraints"):
        _expect(key in doc, f"csp document misses key {key!r}")
    _expect(_is_int(doc["k"]) and _is_int(doc["n"]), "k and n must be integers")
    _expect(isinstance(doc["constraints"], list), "constraints must be a list")
    cons = []
    for ent in doc["constraints"]:
        _expect(isinstance(ent, dict) and {"u", "v", "allowed"} <= set(ent),
                "bad constraint entry: {!r}", ent)
        _expect(_is_int(ent["u"]) and _is_int(ent["v"]), "constraint endpoints must be integers")
        _expect(isinstance(ent["allowed"], list), "allowed must be a list of pairs")
        pairs = []
        for p in ent["allowed"]:
            _expect(isinstance(p, list) and len(p) == 2 and all(_is_int(x) for x in p),
                    "bad allowed pair: {!r}", p)
            pairs.append((p[0], p[1]))
        cons.append(Constraint(u=ent["u"], v=ent["v"], allowed=tuple(pairs)))
    return CspInstance(k=doc["k"], n=doc["n"], constraints=tuple(cons))


@dataclass(frozen=True)
class MdkInstance:
    """Multi-dimensional knapsack: pick at most k vectors whose sum covers target."""

    d: int
    k: int
    target: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(
            self, "vectors", tuple(tuple(v) for v in self.vectors)
        )
        if not (_is_int(self.d) and _is_int(self.k)):
            raise ValidationError("mdk d and k must be integers")
        if self.d < 1:
            raise ValidationError("mdk needs d >= 1")
        if self.k < 0:
            raise ValidationError("mdk needs k >= 0")
        if len(self.target) != self.d:
            raise ValidationError("target length must equal d")
        for v in self.vectors:
            if len(v) != self.d:
                raise ValidationError("every vector must have d entries")
            if any(not _is_int(x) or x < 0 for x in v):
                raise ValidationError("vector entries must be nonnegative ints")
        if any(not _is_int(x) or x < 0 for x in self.target):
            raise ValidationError("target entries must be nonnegative ints")


def serialize_mdk(mdk: MdkInstance) -> str:
    doc = {
        "format": FORMAT_VERSION,
        "d": mdk.d,
        "k": mdk.k,
        "target": list(mdk.target),
        "vectors": [list(v) for v in mdk.vectors],
    }
    return json_text(doc)


def parse_mdk(text: str) -> MdkInstance:
    doc = _load_object(text, "mdk document")
    _check_format(doc.get("format"))
    for key in ("d", "k", "target", "vectors"):
        _expect(key in doc, f"mdk document misses key {key!r}")
    _expect(_is_int(doc["d"]) and _is_int(doc["k"]), "d and k must be integers")
    _expect(isinstance(doc["target"], list) and isinstance(doc["vectors"], list),
            "target and vectors must be lists")
    for row in [doc["target"]] + doc["vectors"]:
        _expect(isinstance(row, list) and all(_is_int(x) for x in row),
                "target and every vector must be lists of integers")
    return MdkInstance(
        d=doc["d"],
        k=doc["k"],
        target=tuple(doc["target"]),
        vectors=tuple(tuple(v) for v in doc["vectors"]),
    )


def _checked_q(Q, n: int) -> int:
    """The pair weight Q, an integer above the domain size n: every MDK entry
    Q ± a is then a positive integer."""
    if not _is_int(Q):
        raise ValidationError("Q must be an integer")
    if Q <= n:
        raise ValidationError("Q must exceed the domain size")
    return Q


def _incident(csp: CspInstance, u: int) -> list[int]:
    return [e for e, c in enumerate(csp.constraints) if u in (c.u, c.v)]


def csp_to_mdk(csp: CspInstance, Q: int | None = None) -> MdkInstance:
    """Encode a 3-regular binary CSP as an MDK with guard and matching dims.

    Guard dims force one vector per variable and per constraint; the four
    matching dims per constraint pay off at 2Q exactly when the variable
    vector and the constraint vector agree on the chosen value.  The CSP is
    satisfiable iff the MDK has a solution of size k + m = 5k/2.
    """
    if not is_three_regular(csp):
        raise NotThreeRegular("every variable must occur in exactly 3 constraints")
    Q = _checked_q(10 * csp.n if Q is None else Q, csp.n)
    k, m = csp.k, csp.m
    d = k + m + 4 * m

    def block(e: int) -> int:
        return k + m + 4 * e

    vectors: list[tuple[int, ...]] = []
    for u in range(k):
        inc = _incident(csp, u)
        for a in range(1, csp.n + 1):
            vec = [0] * d
            vec[u] = 1
            for e in inc:
                c = csp.constraints[e]
                off = 0 if c.u == u else 2
                vec[block(e) + off] = Q + a
                vec[block(e) + off + 1] = Q - a
            vectors.append(tuple(vec))
    for e, c in enumerate(csp.constraints):
        for a, b in c.allowed:
            vec = [0] * d
            vec[k + e] = 1
            vec[block(e) + 0] = Q - a
            vec[block(e) + 1] = Q + a
            vec[block(e) + 2] = Q - b
            vec[block(e) + 3] = Q + b
            vectors.append(tuple(vec))
    target = [1] * (k + m) + [2 * Q] * (4 * m)
    return _trusted(MdkInstance, d=d, k=k + m, target=tuple(target), vectors=tuple(vectors))


def solve_mdk_exact(mdk: MdkInstance, node_budget: int = 2_000_000):
    """Smallest vector subset of size at most mdk.k covering the target, or None.

    Iterative deepening over the solution size s = 0, 1, ..., mdk.k; the
    answer is the first subset found at the smallest size, as sorted vector
    indices.  Each node branches on the unmet dimension with the fewest
    remaining candidates (vectors not yet picked that are positive there),
    ties going to the lowest dimension, and tries its candidates by ascending
    vector index.  A node with an unmet dimension that has no candidate, or
    whose disjoint-support lower bound exceeds s, is a dead end.  Candidate
    sets are bitmasks over the vector indices.  Deterministic; node_budget
    counts the DFS calls over all deepening rounds together, and the call
    past it raises BudgetExceeded.
    """
    vectors, target, d = mdk.vectors, mdk.target, mdk.d
    support = [0] * d
    cols = [0] * d
    for j, vec in enumerate(vectors):
        bit = 1 << j
        for i, x in enumerate(vec):
            if x:
                support[i] |= bit
                cols[i] += x
    if any(c < t for c, t in zip(cols, target)):
        return None
    dims = range(d)
    nodes = 0

    def dfs(used: list[int], taken: int, sums: list[int], limit: int):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded(f"mdk search exceeded {node_budget} nodes")
        unmet = [i for i in dims if sums[i] < target[i]]
        if not unmet:
            return list(used)
        room = limit - len(used)
        if not room:
            return None
        free = ~taken
        order = []
        for i in unmet:
            cands = support[i] & free
            if not cands:
                return None
            order.append((cands.bit_count(), i, cands))
        order.sort()
        covered = 0
        lb = 0
        for _, _, cands in order:
            if not cands & covered:
                lb += 1
                if lb > room:
                    return None
                covered |= cands
        cands = order[0][2]
        while cands:
            low = cands & -cands
            cands ^= low
            j = low.bit_length() - 1
            used.append(j)
            got = dfs(used, taken | low, [a + b for a, b in zip(sums, vectors[j])], limit)
            if got is not None:
                return got
            used.pop()
        return None

    for s in range(mdk.k + 1):
        got = dfs([], 0, [0] * d, s)
        if got is not None:
            return tuple(sorted(got))
    return None


def _cvc_instance(mdk: MdkInstance, weighted: bool) -> Instance:
    """The degree-2 cover instance behind mdk_to_cvc and mdk_to_wcvc.

    Elements: one vertex per vector (capacity m, effectively unbounded), then
    one forced vertex per dimension i (capacity cols[i] - target[i] + 1), then
    its zero-capacity twin.  Sets: one (forced, twin) pair per dimension, then
    vectors[v][i] copies of (v, forced i).  Every vertex weighs 1, or, when
    weighted, 1 / 0 / heavier than any feasible budget for the three kinds.

    Built trusted, without the Instance and Element checks: every pair is
    (v, nvec + i) or (nvec + i, nvec + d + i), already sorted, and a forced
    capacity is at least 1 once the column-sum check has passed.
    """
    nvec = len(mdk.vectors)
    cols = [0] * mdk.d
    family = [(nvec + i, nvec + mdk.d + i) for i in range(mdk.d)]
    for v, vec in enumerate(mdk.vectors):
        for i, c in enumerate(vec):
            if c:
                cols[i] += c
                family += [(v, nvec + i)] * c
    for i in range(mdk.d):
        if mdk.target[i] > cols[i]:
            raise TargetExceedsColumnSum(
                f"dimension {i}: target {mdk.target[i]} > column sum {cols[i]}"
            )
    m_cvc = len(family)
    if weighted:
        w_vec, w_forced, w_twin = 1, 0, (nvec + 2 * mdk.d) * m_cvc + 1
    else:
        w_vec = w_forced = w_twin = 1
    elements = (
        [_trusted(Element, id=v, cap=m_cvc, mult=1, weight=w_vec) for v in range(nvec)]
        + [
            _trusted(Element, id=nvec + i, cap=cols[i] - mdk.target[i] + 1, mult=1,
                     weight=w_forced)
            for i in range(mdk.d)
        ]
        + [_trusted(Element, id=nvec + mdk.d + i, cap=0, mult=1, weight=w_twin)
           for i in range(mdk.d)]
    )
    return _trusted(Instance, elements=tuple(elements), family=tuple(family), d=2)


def mdk_to_cvc(mdk: MdkInstance) -> Instance:
    """Degree-2 capacitated cover instance solvable at size k + d iff the MDK is.

    Vector vertices get capacity m (effectively unbounded); each dimension i
    contributes a forced vertex of capacity cols[i] - target[i] + 1 paired
    with a zero-capacity twin, so the forced vertex can absorb exactly the
    copies the picked vectors may leave uncovered.
    """
    return _cvc_instance(mdk, weighted=False)


def mdk_to_wcvc(mdk: MdkInstance) -> Instance:
    """Weighted twin of mdk_to_cvc: weight budget k separates yes from no.

    Vector vertices cost 1, forced dimension vertices are free, and the
    zero-capacity twins are priced above any feasible budget so no solution
    ever buys one.
    """
    return _cvc_instance(mdk, weighted=True)


def _subfamily_size(count: int, alpha, budget: int) -> int:
    """ceil(alpha * count), or BudgetExceeded when more than budget subfamilies have that size."""
    s_min = math.ceil(Fraction(alpha) * count)
    if (total := math.comb(count, s_min)) > budget:
        raise BudgetExceeded(f"{total} subfamilies of size {s_min} exceed budget {budget}")
    return s_min


def verify_covering_family(family, n: int, alpha, beta, budget: int = 10 ** 6) -> bool:
    """Check that every ceil(alpha*|F|)-subfamily covers (1-beta)n ground elements.

    Walks all subfamilies of exactly that size; BudgetExceeded when there are
    more than budget.
    """
    fam = [frozenset(s) for s in family]
    if not fam:
        raise ValidationError("covering family must be nonempty")
    for s in fam:
        if any(not (0 <= x < n) for x in s):
            raise ValidationError("family member outside ground set")
    s_min = _subfamily_size(len(fam), alpha, budget)
    need = (1 - Fraction(beta)) * n

    def ok(idxs) -> bool:
        union: set[int] = set()
        for j in idxs:
            union |= fam[j]
        return Fraction(len(union)) >= need

    return all(ok(idxs) for idxs in itertools.combinations(range(len(fam)), s_min))


def _log(q: Fraction) -> float:
    """ln q from q's integer numerator and denominator: no float overflow or underflow."""
    return math.log(q.numerator) - math.log(q.denominator)


def _covering_threshold(alpha: Fraction, beta: Fraction) -> float:
    """log_{1/(1-beta)}(e^2/alpha) in log space, for 0 < alpha <= 1 and 0 < beta < 1.

    ln(1/(1-beta)) is -log1p(-beta) for beta < 1/2, where it is small and a
    difference of logs would cancel; it underflows to 0 only for beta below
    the float range, and the threshold is then infinite.
    """
    num = 2 - _log(alpha)
    den = -math.log1p(-float(beta)) if beta < Fraction(1, 2) else -_log(1 - beta)
    return num / den if den else math.inf


def build_covering_family(n: int, alpha, beta, r: int, seed: int = 0, trials: int = 200):
    """Sample uniform r-subsets until the covering property verifies, or None.

    The parameter gate r > log_{1/(1-beta)}(e^2/alpha) is the regime where a
    random family of ceil(n/alpha) subsets works with constant probability.
    A family too large to verify raises BudgetExceeded before any is drawn.
    """
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not 0 < alpha <= 1 or not 0 < beta < 1:
        raise ParameterViolation("need 0 < alpha <= 1 and 0 < beta < 1")
    thr = _covering_threshold(alpha, beta)
    if not r > thr:
        raise ParameterViolation(f"r={r} must exceed {thr:.3f}")
    if r > n:
        raise ParameterViolation(f"r={r} exceeds the ground set size {n}")
    size = math.ceil(Fraction(n) / alpha)
    rng = Stream(int(seed))
    if trials >= 1:
        _subfamily_size(size, alpha, 10 ** 6)
    for _ in range(trials):
        fam = [tuple(sorted(rng.choice(n, r))) for _ in range(size)]
        if verify_covering_family(fam, n, alpha, beta):
            return tuple(fam)
    return None


def csp_to_mdk_covering(
    csp: CspInstance, family, Q: int | None = None, budget: int = 10 ** 6
) -> MdkInstance:
    """Batched CSP encoding: one vector per (family set, local assignment).

    Each family set is padded to its closed constraint neighborhood; vectors
    enumerate the assignments of that neighborhood satisfying every constraint
    inside it.  Shared variables are synchronized through paired Q-dims, so a
    size-|family| solution induces one consistent global assignment over the
    covered variables.
    """
    fam = [tuple(sorted(set(s))) for s in family]
    if not fam:
        raise ValidationError("covering family must be nonempty")
    for s in fam:
        if any(not (0 <= u < csp.k) for u in s):
            raise ValidationError("family member names unknown variable")
    kstar = len(fam)
    Q = _checked_q(10 * csp.n * kstar if Q is None else Q, csp.n)
    hoods: list[tuple[int, ...]] = []
    for s in fam:
        hood = set(s)
        for c in csp.constraints:
            if c.u in s:
                hood.add(c.v)
            if c.v in s:
                hood.add(c.u)
        hoods.append(tuple(sorted(hood)))
    # Each variable u shared by sets i < j, in ascending (i, j, u), owns the next
    # two dimensions; mine[i] lists (the first of them, sign, u), +1 for i, -1 for j.
    mine: list[list[tuple[int, int, int]]] = [[] for _ in fam]
    d = kstar
    for i in range(kstar):
        for j in range(i + 1, kstar):
            for u in sorted(set(hoods[i]) & set(hoods[j])):
                mine[i].append((d, 1, u))
                mine[j].append((d, -1, u))
                d += 2

    vectors: list[tuple[int, ...]] = []
    for i, hood in enumerate(hoods):
        count = csp.n ** len(hood)
        if count > budget:
            raise EnumerationBudgetExceeded(
                f"neighborhood {i} has {count} assignments, budget {budget}"
            )
        members = set(hood)
        local = [c for c in csp.constraints if c.u in members and c.v in members]
        for values in itertools.product(range(1, csp.n + 1), repeat=len(hood)):
            gamma = dict(zip(hood, values))
            if any((gamma[c.u], gamma[c.v]) not in c.allowed for c in local):
                continue
            vec = [0] * d
            vec[i] = 1
            for dim, sign, u in mine[i]:  # a shared u lies in hood i
                vec[dim] = Q - sign * gamma[u]
                vec[dim + 1] = Q + sign * gamma[u]
            vectors.append(tuple(vec))
    target = [1] * kstar + [2 * Q] * (d - kstar)
    return _trusted(MdkInstance, d=d, k=kstar, target=tuple(target), vectors=tuple(vectors))
