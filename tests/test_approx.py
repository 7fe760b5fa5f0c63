import itertools
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caphs import approx
from caphs.approx import (
    ENUMERATE,
    GUIDED,
    INDEPENDENCE_FAIL,
    INFEASIBLE_OR_TOO_BIG,
    TAU_CLASH,
    AnnotatedTuple,
    Search,
    SolverConfig,
    bucket_values_upto,
    candidate_set,
    ceil43,
    enumerate_tuples,
    expand_multiplicities,
    good_tuple_from_opt,
    info_tuple,
    solve_approx,
    solve_extended,
)
from caphs.colorweights import random_colorings
from caphs.core import (
    Assignment,
    Element,
    Instance,
    Result,
    Solution,
    generate_instance,
)
from caphs.errors import (
    BudgetExceeded,
    InvariantViolated,
    NoColoringSeparates,
    OracleInconsistent,
    PreconditionViolated,
)
from caphs.exact import solve_exact, solve_exact_weighted
from caphs.feasibility import assignment_ok, check_feasible

from _oracles import (
    eager_info_tuple,
    memoless_search_below,
    min_dominator_bruteforce,
    plain_search_below,
    ranked_candidate_set,
    rescan_classes,
    separating_parts,
)

GEN = {
    "n": 6,
    "m": 8,
    "d": 3,
    "cap_range": (1, 3),
    "weight_range": (1, 9),
    "mult_range": (1, 2),
}
GEN_UNW = {**GEN, "weight_range": (1, 1)}


def naive_bucket(c, base):
    base = Fraction(base)
    p = 0
    while base ** (p + 1) <= c:
        p += 1
    return math.ceil(base ** p)


def test_ceil43_values():
    assert [ceil43(k) for k in range(1, 10)] == [2, 3, 4, 6, 7, 8, 10, 11, 12]


def test_bucket_value_matches_naive_scan():
    for base in (Fraction(4, 3), Fraction(10, 9), Fraction(7, 6)):
        # The guided descent reads the demand for a coverage c off this ladder.
        ctx = Search(_hand_instance(), 2, SolverConfig(bucket_base=base))
        for c in range(1, 300):
            assert ctx.gamma_values(c)[-1] == naive_bucket(c, base)


def test_bucket_value_is_sandwiched():
    # g <= c < base * g for the top rung g up to c: no coverage is overstated,
    # and none is understated by a factor of base or more.
    base = Fraction(4, 3)
    ladder = bucket_values_upto(200, base)
    for c in range(1, 200):
        g = bucket_values_upto(c, base)[-1]
        assert g in ladder and g <= c < base * g


def test_bucket_value_survives_huge_bases():
    assert bucket_values_upto(5, Fraction(10**400)) == [1]
    assert bucket_values_upto(10**500, Fraction(10**400)) == [1, 10**400]
    for k in range(1, 7):  # the criterion-10 bases
        base = 1 + Fraction(1, 3 * k)
        for c in (1, 2, 3, 10, 99, 10**4):
            assert bucket_values_upto(c, base)[-1] == naive_bucket(c, base)


def test_bucket_values_upto():
    assert bucket_values_upto(8, Fraction(10, 9)) == [1, 2, 3, 4, 5, 6, 7, 8]
    assert bucket_values_upto(10, Fraction(2)) == [1, 2, 4, 8]
    assert bucket_values_upto(0, Fraction(2)) == []


def test_bucket_values_upto_skips_the_walk_near_one():
    # Base 1.00001 needs about 208 000 exact steps to reach 8; every integer
    # up to 8 is a rung, and the list comes back at once.
    t0 = time.perf_counter()
    assert bucket_values_upto(8, Fraction("1.00001")) == list(range(1, 9))
    assert time.perf_counter() - t0 < 0.5
    # At limit * (base - 1) = base exactly, the last step lands on the limit.
    assert bucket_values_upto(3, Fraction(3, 2)) == [1, 2, 3]


@given(
    base=st.one_of(
        st.integers(1, 8).map(lambda k: 1 + Fraction(1, 3 * k)),
        st.builds(lambda a, b: 1 + Fraction(a, b), st.integers(1, 30), st.integers(1, 60)),
    ),
    limit=st.integers(0, 500),
)
def test_bucket_values_upto_lists_every_rung(base, limit):
    rungs, power = set(), Fraction(1)
    while power <= limit:
        rungs.add(math.ceil(power))
        power *= base
    assert bucket_values_upto(limit, base) == sorted(rungs)


def test_bucket_values_upto_starts_the_walk_past_the_integer_run():
    # At base 1.0001 every integer up to 10 001 is a rung; the walk to 10 002
    # starts from the first power past 10 001, not from base^0 (about 92 000
    # exact steps).
    t0 = time.perf_counter()
    assert bucket_values_upto(10002, Fraction("1.0001")) == list(range(1, 10003))
    assert time.perf_counter() - t0 < 2


def test_bucket_rejects_bad_input():
    for base in (Fraction(1), Fraction(1, 2)):
        with pytest.raises(ValueError):
            bucket_values_upto(5, base)


def test_config_resolution_defaults():
    cfg = SolverConfig().resolved(3, 2)
    assert cfg.rho == Fraction(1, 16)
    assert cfg.top_t == 3 * 2 ** 10
    assert cfg.small_class_threshold == 3 * 2 ** 11
    assert cfg.bucket_base == Fraction(7, 6)
    assert cfg.resolved(3, 2) == cfg  # idempotent


BAD_CONFIG_FIELDS = [
    {"rho": Fraction(2)},
    {"rho": Fraction(0)},
    {"bucket_base": Fraction(1)},
    {"top_t": 0},
    {"small_class_threshold": -1},
    {"tuple_budget": -1},
    {"recursion_budget": -1},
    {"epsilon": Fraction(0)},
    {"epsilon": Fraction(-1, 2)},
    {"max_coloring_trials": 0},
]


def test_config_resolution_validation():
    # A config checks its fields when built, through replace() too, so every
    # config that exists is valid; resolved() checks only the size and d.
    for bad in BAD_CONFIG_FIELDS:
        with pytest.raises(ValueError):
            SolverConfig(**bad)
        with pytest.raises(ValueError):
            replace(SolverConfig(), **bad)
    with pytest.raises(ValueError, match="k must be at least 1"):
        SolverConfig().resolved(1, 0)
    with pytest.raises(ValueError, match="d must be at least 1"):
        SolverConfig().resolved(0, 1)


def test_annotated_tuple_validation():
    AnnotatedTuple(S=(3, 1), parts=((2,), (4,)), pi={(): 1}, gamma=((), ()))
    with pytest.raises(ValueError):
        AnnotatedTuple(S=(1,), parts=((1,),), pi={}, gamma=((),))
    with pytest.raises(ValueError):
        AnnotatedTuple(S=(1,), parts=((2,), (2,)), pi={}, gamma=((), ()))
    with pytest.raises(ValueError):
        AnnotatedTuple(S=(1,), parts=(), pi={(): 9}, gamma=())
    # One gamma row per part: zip would silently drop a part without one.
    with pytest.raises(ValueError):
        AnnotatedTuple(S=(1,), parts=((2,), (4,)), pi={(): 1}, gamma=((),))
    with pytest.raises(ValueError, match="each class once"):
        AnnotatedTuple(S=(1,), parts=((2,),), pi={(): 1}, gamma=((((), 1), ((), 2)),))
    with pytest.raises(ValueError, match="demand >= 0"):
        AnnotatedTuple(S=(1,), parts=((2,),), pi={(): 1}, gamma=((((1,), -1),),))
    # pi comes back in class order, each gamma row sorted without its zeros.
    t = AnnotatedTuple(
        S=(1,), parts=((2,), (4,)), pi={(1,): 1, (): 1},
        gamma=[[((1,), 2), ((), 0)], [((1,), 0), ((), 3)]],
    )
    assert list(t.pi) == [(), (1,)]
    assert t.gamma == ((((1,), 2),), (((), 3),))


def test_annotated_tuple_demand_accounting():
    t = AnnotatedTuple(
        S=(7,),
        parts=((1, 2), (3, 4)),
        pi={(7,): 7, (): 7},
        gamma=((((7,), 2), ((), 1)), (((7,), 3),)),
    )
    assert t.r == 2
    assert t.gamma == ((((), 1), ((7,), 2)), (((7,), 3),))


def test_config_is_resolved_once_per_resize_and_r_is_an_attribute(monkeypatch):
    # Four singleton sets need all four elements, which sizes 1 and 2
    # (ceil43 2 and 3) cannot close and size 3 (ceil43 4) can: the solve
    # resizes its Search to 1, 2 and 3, after building it for 3, and each
    # resize resolves the config once.
    resolved = Counter()
    real = SolverConfig.resolved

    def counting(cfg, d, k):
        resolved[k] += 1
        return real(cfg, d, k)

    monkeypatch.setattr(SolverConfig, "resolved", counting)
    inst = Instance(
        elements=tuple(Element(id=i, cap=1) for i in range(4)),
        family=((0,), (1,), (2,), (3,)),
        d=1,
    )
    res = solve_approx(inst, 3, mode=ENUMERATE)
    assert res is not None and res.solution.size() == 4
    assert resolved == {1: 1, 2: 1, 3: 2}
    ctx = Search(inst, 2)
    for k in (1, 2, 1, 3, 2):
        ctx.resize(k)
        assert ctx.k == k and ctx.cfg == real(SolverConfig(), 1, k)
    assert resolved == {1: 3, 2: 4, 3: 3}
    # r is a plain attribute, set by the checked and the trusted constructor.
    t = AnnotatedTuple(S=(1,), parts=((2,), (4,)), pi={(): 1}, gamma=((), ()))
    (leaf,) = enumerate_tuples((1, 3), (), Search(_hand_instance(), 2))
    child = next(iter(enumerate_tuples((3,), ((1, 4),), Search(_hand_instance(), 2))))
    assert [vars(x)["r"] for x in (t, leaf, child)] == [2, 0, 1]


def _hand_instance():
    # Four sets, all containing element 3; candidates 1 and 4 split them.
    return Instance(
        elements=(
            Element(id=1, cap=2),
            Element(id=3, cap=2),
            Element(id=4, cap=2),
            Element(id=5, cap=1),
        ),
        family=((1, 3), (1, 3), (3, 4), (3, 4)),
        d=2,
    )


def test_info_tuple_filters_and_scores():
    inst = Instance(
        elements=(
            Element(id=0, cap=1),
            Element(id=1, cap=2),
            Element(id=2, cap=3),
            Element(id=3, cap=5),
        ),
        family=((0, 3), (0, 3), (1, 3), (0, 1, 2), (1, 2), (2,)),
        d=3,
    )
    t = AnnotatedTuple(
        S=(3,),
        parts=((0, 1, 2),),
        pi={(3,): 3, (): 3},
        gamma=((((3,), 1), ((), 1)),),
    )
    ctx = Search(inst, 2)
    # cap filter drops 0 (cap 1 < demand 2); incidence drops 2 (no (3,) sets).
    assert info_tuple(t, ctx) == ((1,),)
    xprime, n_of, score = eager_info_tuple(t, ctx)
    assert xprime == ((1,),)
    assert n_of[(1, (3,))] == 1
    assert n_of[(1, ())] == 2
    assert score[(1, 3)] == 2
    # Class (0,) is not realized: it has no sets, so no element meets a demand on it.
    t_unrealized = replace(t, gamma=((((0,), 1),),))
    assert info_tuple(t_unrealized, ctx) == eager_info_tuple(t_unrealized, ctx)[0] == ((),)
    # Beside a demand element 1 meets, a demand on the unrealized class still drops it.
    t_mixed = replace(t, gamma=((((3,), 1), ((0,), 1)),))
    assert info_tuple(t_mixed, ctx) == eager_info_tuple(t_mixed, ctx)[0] == ((),)


def test_candidate_set_threshold_branches():
    inst = _hand_instance()
    t = AnnotatedTuple(
        S=(3,),
        parts=((1, 4),),
        pi={(3,): 3},
        gamma=((((3,), 1),),),
    )
    ctx = Search(inst, 2)
    xprime = info_tuple(t, ctx)
    whole = candidate_set(t, {3: 0}, xprime, ctx)
    assert whole == ((1, 4),)
    narrow = Search(inst, 2, SolverConfig(top_t=1, small_class_threshold=0))
    top1 = candidate_set(t, {3: 0}, xprime, narrow)
    assert len(top1[0]) == 1
    # A star pointed elsewhere contributes nothing when the part is large.
    none_taken = candidate_set(t, {3: 1}, xprime, narrow)
    assert none_taken == ((),)


@st.composite
def scored_tuples(draw):
    """(tuple, tau1, search) on a small random instance with hostile constants.

    Dense families, low capacities and unit demands make the capacity term of
    the score bind for some candidates and not for others.
    """
    n = draw(st.integers(5, 10))
    params = {
        "n": n,
        "m": draw(st.integers(8, 20)),
        "d": 3,
        "cap_range": (1, 3),
        "weight_range": (1, 1),
        "mult_range": (1, 1),
    }
    inst = generate_instance(params, seed=draw(st.integers(0, 10_000)))
    ids = draw(st.permutations(range(n)))
    S = tuple(sorted(ids[: draw(st.integers(1, 2))]))
    rest = ids[len(S) :]
    r = draw(st.integers(1, 2))
    cuts = []
    if r > 1:
        cuts = sorted(draw(st.sets(st.integers(1, len(rest) - 1), min_size=r - 1, max_size=r - 1)))
    parts = [rest[a:b] for a, b in zip([0] + cuts, cuts + [len(rest)])]
    realized = sorted(rescan_classes(inst, S))
    pi = {cls: min(S) if cls == () else draw(st.sampled_from(S)) for cls in realized}
    gamma = [[(cls, draw(st.integers(0, 1))) for cls in realized] for _ in range(r)]
    t = AnnotatedTuple(S=S, parts=tuple(parts), pi=pi, gamma=gamma)
    tau1 = {s: draw(st.integers(0, r - 1)) for s in S}
    cfg = SolverConfig(
        small_class_threshold=draw(st.integers(0, 2)),
        top_t=draw(st.integers(1, 3)),
    )
    return t, tau1, Search(inst, len(S) + r, cfg)


@given(scored_tuples())
def test_lazy_scores_match_eager_ranking(case):
    t, tau1, ctx = case
    xprime = info_tuple(t, ctx)
    assert xprime == eager_info_tuple(t, ctx)[0]
    assert candidate_set(t, tau1, xprime, ctx) == ranked_candidate_set(t, tau1, ctx)


def _close(t, tau1, tau2, inst, k):
    """solve_extended on (t, tau1, tau2) with the candidate set its callers hand it."""
    ctx = Search(inst, k)
    return solve_extended(t, tau1, tau2, candidate_set(t, tau1, info_tuple(t, ctx), ctx), ctx)


def test_solve_extended_success():
    inst = _hand_instance()
    t = AnnotatedTuple(
        S=(3,),
        parts=((1, 4),),
        pi={(3,): 3},
        gamma=((((3,), 1),),),
    )
    res = _close(t, {3: 0}, {3: 0}, inst, 2)
    assert res.solution is not None
    assert res.solution.copies == {1: 1, 3: 1, 4: 1}
    assert res.reason is None
    assert check_feasible(inst, res.solution) is not None


def test_solve_extended_failure_reasons():
    inst = _hand_instance()
    pi = {(3,): 3}
    # Quota two from a one-candidate part cannot be met.
    t_small = AnnotatedTuple(S=(3,), parts=((1,),), pi=pi, gamma=((((3,), 1),),))
    taus = ({3: 0}, {3: 0})
    assert _close(t_small, *taus, inst, 2).reason == INDEPENDENCE_FAIL
    # An empty candidate list fails before the dominator is built.
    ctx = Search(inst, 2)
    assert solve_extended(t_small, *taus, ((),), ctx).reason == INDEPENDENCE_FAIL
    # r >= 2 with tau1 = tau2 on some s is rejected outright.
    t_two = AnnotatedTuple(S=(3,), parts=((1,), (4,)), pi=pi, gamma=((((3,), 1),), ()))
    assert _close(t_two, {3: 1}, {3: 1}, inst, 3).reason == TAU_CLASH
    # Arity mismatch is a usage error, not a reason.
    with pytest.raises(ValueError):
        _close(t_small, *taus, inst, 5)


def _two_hub_instance(draw) -> Instance:
    """Hubs 0 and 1 of capacity 1, candidates 2 and 3 of capacity 2 and 3;
    each set holds one hub and one or both candidates."""
    family = []
    for hub in (0, 1):
        family += [(hub, 2)] * draw(st.integers(1, 3)) + [(hub, 3)] * draw(st.integers(1, 3))
        family += [(hub, 2, 3)] * draw(st.integers(0, 2))
    return Instance(
        elements=tuple(Element(id=i, cap=cap) for i, cap in enumerate((1, 1, 2, 3))),
        family=tuple(family),
        d=3,
    )


def _closing_cases(draw, bases, part_choices, count):
    """Cases (t, tau1, tau2), as many as count draws, each on one of bases
    (S, realized, pi) and the parts part_choices draws."""
    cases = []
    for _ in range(draw(count)):
        S, realized, pi = draw(st.sampled_from(bases))
        parts = draw(part_choices)
        r = len(parts)
        demand = draw(st.booleans())  # half the cases ask nothing, so X'' repeats
        gamma = [[(c, 1) for c in realized if demand and draw(st.integers(0, 3)) == 0] for _ in parts]
        t = AnnotatedTuple(S=S, parts=parts, pi=pi, gamma=gamma)
        tau1 = {s: draw(st.integers(0, r - 1)) for s in S} if r else {}
        # tau2 differs from tau1 unless r = 1; a tau clash returns before any memo.
        tau2 = {s: (a + draw(st.integers(min(1, r - 1), r - 1))) % r for s, a in tau1.items()}
        cases.append((t, tau1, tau2))
    return cases


@st.composite
def closing_runs(draw):
    """Two runs (instance, config, cases), each case (t, tau1, tau2).

    The first takes a random family and cases of mixed sizes and r = 0..3.
    Each case takes one of two (S, pi), often with one S, drawn on the ids
    0..2, which every set meets, and its parts from one split of the other
    ids.  So cases share S, pi and X'' while gamma and the taus vary, and many
    closings succeed.  The second takes the two-hub family with S = {0, 1},
    the one part (2, 3), unranked, rho 1/2 and both pi maps that matter:
    each hub's class in its own star, or both classes in hub 0's.  Under one
    map and not the other the candidates 2 and 3 can conflict, so the part,
    whose quota is 2, closes differently by pi alone.
    """
    n = draw(st.integers(8, 11))
    others = st.sets(st.integers(3, n - 1), max_size=2)
    family = tuple(
        tuple(sorted({draw(st.integers(0, 2))} | draw(others)))
        for _ in range(draw(st.integers(3, 14)))
    )
    inst = Instance(
        elements=tuple(Element(id=i, cap=draw(st.integers(1, 4))) for i in range(n)),
        family=family,
        d=3,
    )
    split = tuple(tuple(range(i, n, 3)) for i in (3, 4, 5))
    subsets = st.sets(st.integers(0, 2), min_size=1).map(lambda x: tuple(sorted(x)))
    first = draw(subsets)
    bases = []
    for S in (first, draw(st.just(first) | subsets)):
        realized = sorted(rescan_classes(inst, S))
        pi = {c: min(S) if c == () else draw(st.sampled_from(S)) for c in realized}
        bases.append((S, realized, pi))
    cases = _closing_cases(draw, bases, st.integers(0, 3).map(lambda r: split[:r]), st.integers(4, 12))
    cfg = SolverConfig(
        rho=draw(st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 2)])),
        small_class_threshold=draw(st.integers(0, 6)),
        top_t=draw(st.integers(1, 3)),
    )
    hubs = _two_hub_instance(draw)
    realized = [(0,), (1,)]
    bases = [((0, 1), realized, {(0,): 0, (1,): 1}), ((0, 1), realized, {(0,): 0, (1,): 0})]
    hub_cases = _closing_cases(draw, bases, st.just(((2, 3),)), st.integers(2, 8))
    hub_cfg = SolverConfig(rho=Fraction(1, 2), small_class_threshold=2, top_t=1)
    return [(inst, cfg, cases), (hubs, hub_cfg, hub_cases)]


@settings(max_examples=150, deadline=None)
@given(closing_runs())
def test_closing_on_shared_memos_matches_a_fresh_search(runs):
    # One Search closes every case, resized for each size as solve_approx
    # does, so its frames fill across cases and sizes and its quota and
    # independence memos across the cases of one size; each answer must
    # equal that of a Search that closed nothing else.
    for inst, cfg, cases in runs:
        shared = Search(inst, 1, cfg)
        for t, tau1, tau2 in cases * 2:
            k = len(t.S) + t.r
            shared.resize(k)
            got = []
            for ctx in (shared, Search(inst, k, cfg)):
                xpp = candidate_set(t, tau1, info_tuple(t, ctx), ctx) if t.r else ()
                got.append(solve_extended(t, tau1, tau2, xpp, ctx))
            assert got[0] == got[1]


def _search_outcome(parts, ctx):
    """What _search_below((), parts, ctx) answers, and the budgets it leaves."""
    try:
        got = approx._search_below((), parts, ctx)
        got = None if got is None else got.copies
    except BudgetExceeded as exc:
        got = str(exc)
    return got, (ctx.tuples, ctx.recursions)


def test_a_resized_search_matches_a_fresh_one():
    # Only the frames outlive a size.  At each size k, a Search that searched
    # the other sizes first, each from full budgets, must answer and charge
    # as a fresh Search.  Elements 1 and 2 share one of their 16 sets, so
    # they conflict at rho 1/81 (size 3) and not at 1/16 (size 2), and every
    # feasible pick holds 0, 1 and 2: a conflict relation kept from size 3
    # loses the size-2 answer.  The root class of 33 sets has other rungs at each
    # size, so gamma values kept from another size change what is charged.
    family = ((0,), (0, 3), (1, 2)) + ((1,),) * 15 + ((2,),) * 15
    caps = (2, 16, 16, 1)
    inst = Instance(elements=tuple(Element(id=i, cap=c) for i, c in enumerate(caps)), family=family, d=2)
    parts = {1: ((0, 1, 2, 3),), 2: ((0,), (1, 2)), 3: ((0,), (1,), (3,))}
    cfg = SolverConfig()
    answers = []
    for k in (1, 2, 3):
        shared = Search(inst, k, cfg)
        for ell in (*(e for e in (1, 2, 3) if e != k), k):
            shared.resize(ell)
            shared.tuples, shared.recursions = cfg.tuple_budget, cfg.recursion_budget
            got = _search_outcome(parts[ell], shared)
        assert got == _search_outcome(parts[k], Search(inst, k, cfg))
        answers.append(got[0])
    assert answers == [None, {0: 1, 1: 1, 2: 1}, "recursion budget exhausted"]


def test_quotas_follow_the_first_minimum_dominator():
    # Blue j is adjacent to the parts tau1 and tau2 name for the j-th s; a part
    # that tau1 names for at least two s is forced, the parts of the
    # lexicographically first minimum dominator that holds them get quota 2,
    # and every other part gets 1.  Every (tau1, tau2) up to r = 4 and |S| = 3
    # is asked twice, so the second answer comes from the memo.
    ctx = Search(_hand_instance(), 2)
    for r in range(1, 5):
        for size in range(4):
            for pairs in itertools.product(itertools.product(range(r), repeat=2), repeat=size):
                firsts = Counter(a for a, _ in pairs)
                forced = {i for i in range(r) if firsts[i] >= 2}
                dom = min_dominator_bruteforce(range(r), range(size), dict(enumerate(pairs)), forced)
                want = tuple(2 if i in dom else 1 for i in range(r))
                assert ctx.quotas(r, pairs) == want, (r, pairs)
                assert ctx.quotas(r, pairs) == want, (r, pairs)


@st.composite
def closing_picks(draw):
    """(instance, t, tau1, tau2, pick) for one closing, the pick of at most
    ceil43(k) + 1 ids being what the independent set is made to return.

    Element ids are sparse and may be negative; capacities may be 0.  At
    r = 0 the pick is S itself; at r = 1 the one part holds every id
    outside S, and the pick is drawn from all ids, S included.
    """
    ids = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
    d = draw(st.integers(1, 3))
    members = st.lists(st.sampled_from(ids), min_size=1, max_size=min(d, len(ids)), unique=True)
    inst = Instance(
        elements=tuple(Element(id=x, cap=draw(st.integers(0, 3))) for x in ids),
        family=tuple(tuple(s) for s in draw(st.lists(members, max_size=8))),
        d=d,
    )
    S = tuple(sorted(draw(st.sets(st.sampled_from(ids), max_size=len(ids) - 1))))
    rest = tuple(x for x in ids if x not in S)
    if S and draw(st.booleans()):
        return inst, AnnotatedTuple(S=S, parts=(), pi={}, gamma=()), {}, {}, S
    pi = {cls: min(S) for cls in rescan_classes(inst, S)} if S else {}
    t = AnnotatedTuple(S=S, parts=(rest,), pi=pi, gamma=((),))
    size = ceil43(len(S) + 1) + 1
    pick = draw(st.lists(st.sampled_from(ids), max_size=min(size, len(ids)), unique=True))
    taus = dict.fromkeys(S, 0)
    return inst, t, taus, dict(taus), tuple(sorted(pick))


@settings(max_examples=300, deadline=None)
@given(closing_picks())
def test_closing_precheck_matches_check_feasible_alone(case):
    # The set-mask and capacity precheck may only skip check_feasible calls
    # whose answer it already knows: the same solution or the same reason as
    # a closing that asks check_feasible about every pick.
    inst, t, tau1, tau2, pick = case
    k = len(t.S) + t.r
    sol = Solution({x: 1 for x in set(t.S) | set(pick)})
    if sol.size() <= ceil43(k) and check_feasible(inst, sol) is not None:
        want = approx.ExtendedResult(sol)
    else:
        want = approx.ExtendedResult(None, INFEASIBLE_OR_TOO_BIG)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "find_independent_set", lambda *args: pick)
        assert solve_extended(t, tau1, tau2, t.parts, Search(inst, k)) == want


def test_solve_extended_base_case():
    inst = _hand_instance()
    ok = AnnotatedTuple(S=(1, 3), parts=(), pi={}, gamma=())
    res = _close(ok, {}, {}, inst, 2)
    assert res.solution.copies == {1: 1, 3: 1}
    bad = AnnotatedTuple(S=(1, 5), parts=(), pi={}, gamma=())
    res2 = _close(bad, {}, {}, inst, 2)
    assert res2.solution is None
    assert res2.reason == INFEASIBLE_OR_TOO_BIG


def test_enumerate_tuples_counts_and_budget():
    inst = _hand_instance()
    cfg = SolverConfig()
    got = list(enumerate_tuples((3,), ((1, 4),), Search(inst, 2, cfg)))
    # One pi choice, gamma over {0} + rungs {1, 2, 3, 4} for the single class.
    assert len(got) == 5
    gammas = sorted(dict(t.gamma[0]).get((3,), 0) for t in got)
    assert gammas == [0, 1, 2, 3, 4]
    with pytest.raises(BudgetExceeded):
        list(enumerate_tuples((3,), ((1, 4),), Search(inst, 2, replace(cfg, tuple_budget=3))))


def test_enumerate_tuples_builds_no_row_before_its_charge():
    # S = {0, 1, 2} realizes eight classes of three sets, so each of the two
    # parts has 4^8 rows; a budget of 50 must stop before they are all built.
    subsets = [E for n in range(4) for E in itertools.combinations((0, 1, 2), n)]
    inst = Instance(
        elements=tuple(Element(id=i, cap=3) for i in range(5)),
        family=tuple(E + (3,) for E in subsets for _ in range(3)),
        d=4,
    )
    ctx = Search(inst, 5, SolverConfig(tuple_budget=50))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="annotated-tuple"):
            for _ in enumerate_tuples((0, 1, 2), ((3,), (4,)), ctx):
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.tuples == 0 and peak < 2**20


def test_enumerate_tuples_order_is_the_flat_product():
    # Rows per part come in the order of one product over (part, class) keys,
    # the last class of the last part fastest, so every charge stays in place.
    inst = _hand_instance()
    ctx = Search(inst, 3)
    got = [t.gamma for t in enumerate_tuples((1,), ((3,), (4,)), ctx)]
    classes = rescan_classes(inst, (1,))
    keys = [(i, cls) for i in range(2) for cls in sorted(classes)]
    assert len(classes) == 2
    values = [[0] + bucket_values_upto(len(classes[cls]), ctx.cfg.bucket_base) for _, cls in keys]
    want = [
        tuple(tuple((c, g) for (j, c), g in zip(keys, combo) if j == i and g) for i in range(2))
        for combo in itertools.product(*values)
    ]
    assert got == want and len(got) == 81


def test_enumerate_tuples_base_case_is_canonical():
    inst = _hand_instance()
    got = list(enumerate_tuples((1, 3), (), Search(inst, 2)))
    assert len(got) == 1
    t = got[0]
    assert t.S == (1, 3)
    assert all(s == 1 for s in t.pi.values())
    assert t.gamma == ()


def test_enumerate_tuples_leaf_builds_no_frame():
    # At |S| = k nothing reads pi or gamma, so the leaf needs no classes of S.
    ctx = Search(_hand_instance(), 2)
    (t,) = enumerate_tuples((3, 1), (), ctx)
    assert (t.S, t.pi, t.gamma) == ((1, 3), {}, ())
    assert ctx._frames == {}


def test_good_tuple_from_opt():
    inst = _hand_instance()
    opt = Solution({1: 1, 3: 1, 4: 1})
    asg = Assignment({0: 1, 1: 1, 2: 4, 3: 4})
    ctx = Search(inst, 3)
    t = good_tuple_from_opt((3,), ((1,), (4,)), opt, asg, ctx)
    assert t.pi == {(3,): 3}
    assert t.gamma == ((((3,), 2),), (((3,), 2),))
    with pytest.raises(PreconditionViolated):
        good_tuple_from_opt((5,), ((1,), (4,)), opt, asg, ctx)
    with pytest.raises(PreconditionViolated):
        good_tuple_from_opt((3,), ((1, 4), ()), opt, asg, ctx)


def test_expand_multiplicities():
    inst = generate_instance(GEN, seed=7)
    exp = expand_multiplicities(inst, 2)
    inst2 = exp.instance
    assert inst2.n == 10  # mults 2,2,1,2,1,2 clamped at k=2
    assert all(e.mult == 1 for e in inst2.elements)
    assert sorted(set(exp.back.values())) == [0, 1, 2, 3, 4, 5]
    assert inst2.d == 6
    unbounded = Instance(
        elements=(Element(id=0, cap=1, mult=None),), family=((0,),), d=1
    )
    assert expand_multiplicities(unbounded, 3).instance.n == 3


def test_guided_matches_exact_optimum():
    checked = 0
    for seed in range(40):
        inst = generate_instance(GEN_UNW, seed=seed)
        got = solve_exact(inst, 3)
        if got is None or got.solution.size() != 3:
            continue
        res = solve_approx(inst, 3, mode=GUIDED)
        assert res is not None
        assert res.solution.size() == 3
        assert assignment_ok(inst, res.solution, res.assignment)
        checked += 1
    assert checked >= 5


def test_guided_weighted_stays_within_bound():
    checked = 0
    for seed in range(60):
        inst = generate_instance(GEN, seed=seed)
        got = solve_exact_weighted(inst, 3)
        if got is None:
            continue
        cfg = SolverConfig(epsilon=Fraction(1, 2))
        res = solve_approx(inst, 3, cfg=cfg, mode=GUIDED)
        assert res is not None
        assert res.weight <= Fraction(5, 2) * got.weight
        assert assignment_ok(inst, res.solution, res.assignment)
        checked += 1
    assert checked >= 10


def test_guided_returns_its_oracle_at_default_constants(monkeypatch):
    # At the default constants no part is ranked, so every oracle element
    # stays in X'': the descent commits them all, closes once on the r = 0
    # leaf (the lifted optimum) and maps back to the oracle's own Result.
    closed = []
    real = approx.solve_extended

    def recording(t, *rest):
        closed.append(t.r)
        return real(t, *rest)

    monkeypatch.setattr(approx, "solve_extended", recording)
    answered = 0
    for n, extra, weights, seed, k in itertools.product(
        range(3, 9), (0, 2), ((1, 1), (1, 9)), range(20), range(1, 5)
    ):
        inst = generate_instance({**GEN, "n": n, "m": n + extra, "weight_range": weights}, seed)
        for cfg, exact in ((SolverConfig(), solve_exact),
                           (SolverConfig(epsilon=Fraction(1, 2)), solve_exact_weighted)):
            oracle = exact(inst, k)
            if oracle is None:
                continue
            closed.clear()
            # An equal Result: the same copies, assignment.target and weight.
            assert solve_approx(inst, k, cfg, mode=GUIDED) == oracle
            assert closed == [0]
            answered += 1
    # Pinned so that a change that makes guided answer less cannot pass vacuously.
    assert answered == 1560


def test_guided_none_when_infeasible():
    inst = generate_instance(GEN_UNW, seed=7)
    assert solve_exact(inst, 2) is None
    assert solve_approx(inst, 2, mode=GUIDED) is None


def test_guided_coloring_exhaustion_raises():
    inst = generate_instance(GEN, seed=7)
    cfg = SolverConfig(seed=0, max_coloring_trials=1)
    with pytest.raises(NoColoringSeparates) as got:
        solve_approx(inst, 4, cfg=cfg, mode=GUIDED)
    # The same text as the loop that builds every coloring's parts raises.
    oracle = solve_exact(inst, 4)
    exp = expand_multiplicities(inst, 4)
    opt2, _ = approx._lift_oracle(exp.instance, exp.copy_ids, oracle.solution, oracle.assignment)
    with pytest.raises(NoColoringSeparates) as want:
        separating_parts(exp.instance, cfg, oracle.solution.size(), opt2)
    assert str(got.value) == str(want.value) == "no coloring among 1 separated the oracle solution"
    good = SolverConfig(seed=4, max_coloring_trials=1)
    res = solve_approx(inst, 4, cfg=good, mode=GUIDED)
    assert res is not None and res.solution.size() == 4


def test_guided_rejects_an_oracle_that_overloads_an_element():
    # One copy of element 0 (capacity 1) cannot take both sets the oracle
    # charges to it, so spreading the optimum over the clones fails.
    inst = Instance(elements=(Element(id=0, cap=1), Element(id=1, cap=1)), family=((0, 1), (0, 1)), d=2)
    oracle = Result(solution=Solution({0: 1}), assignment=Assignment({0: 0, 1: 0}), weight=1)
    with pytest.raises(OracleInconsistent, match="oracle assignment overloads an element"):
        approx._guided(inst, 1, SolverConfig(), oracle)


@pytest.mark.parametrize("epsilon", [None, Fraction(1, 2)], ids=["size", "weighted"])
def test_guided_separates_on_the_first_coloring_the_whole_parts_loop_accepts(monkeypatch, epsilon):
    # Reading only the oracle clones' colors picks the same root parts, and
    # the same oracle element per part, as building every coloring's parts.
    roots = []
    real = approx._solve_guided

    def recording(S, parts, rep, *rest):
        roots.append((parts, rep))
        return real(S, parts, rep, *rest)

    monkeypatch.setattr(approx, "_solve_guided", recording)
    cfg = SolverConfig(epsilon=epsilon)
    exact = solve_exact if epsilon is None else solve_exact_weighted
    sizes = Counter()
    for (n, m), seed, k in itertools.product(((4, 2), (5, 4), (6, 8), (8, 8)), range(6), range(1, 5)):
        inst = generate_instance({**GEN, "n": n, "m": m}, seed)
        oracle = exact(inst, k)
        if oracle is None:
            continue
        roots.clear()
        approx._guided(inst, k, cfg, oracle)
        exp = expand_multiplicities(inst, k)
        opt2, _ = approx._lift_oracle(exp.instance, exp.copy_ids, oracle.solution, oracle.assignment)
        want = separating_parts(exp.instance, cfg, oracle.solution.size(), opt2)
        assert roots == [(want, approx._oracle_reps((), want, opt2))]
        sizes[oracle.solution.size()] += 1
    assert sorted(sizes) == [1, 2, 3, 4], sizes


def test_guided_finds_the_oracle_elements_once_per_tuple(monkeypatch):
    # The descent carries each part's oracle element down from the coloring,
    # so only good_tuple_from_opt's own precondition check looks them up.
    calls = Counter()

    def count(name):
        real = getattr(approx, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(approx, name, wrapped)

    count("_oracle_reps")
    count("good_tuple_from_opt")
    inst = generate_instance({**GEN, "n": 8, "m": 8}, seed=0)
    for cfg in (SolverConfig(), SolverConfig(epsilon=Fraction(1, 2))):
        assert solve_approx(inst, 4, cfg, mode=GUIDED).solution.size() == 4
    # Each size-4 descent builds five tuples: four commits and the r = 0 leaf.
    assert calls == {"_oracle_reps": 10, "good_tuple_from_opt": 10}


def _record_guided(monkeypatch, inst, k, cfg):
    """Guided mode's answer on (inst, k) and its descent: the tuples
    good_tuple_from_opt built, the (tau1, X'') of each candidate_set call and
    the (tuple, tau1, tau2, X'') of each closing attempt, in call order."""
    steps = {"tuples": [], "candidates": [], "closings": []}

    def recording(name, real, keep):
        def wrapped(*args):
            out = real(*args)
            steps[name].append(keep(args, out))
            return out

        monkeypatch.setattr(approx, real.__name__, wrapped)

    recording("tuples", approx.good_tuple_from_opt, lambda a, out: (out, a[-1]))
    recording("candidates", approx.candidate_set, lambda a, out: (a[1], out))
    recording("closings", approx.solve_extended, lambda a, out: a[:4])
    res = solve_approx(inst, k, cfg, mode=GUIDED)
    monkeypatch.undo()
    return res, steps


@pytest.mark.parametrize(
    "overrides, answered",
    [({}, 39), ({"small_class_threshold": 2, "top_t": 1}, 32)],
    ids=["defaults", "ranked"],
)
def test_every_guided_step_is_a_guess_enumerate_makes(monkeypatch, overrides, answered):
    # Guided mode reads each step off an exact optimum; every such step must be
    # one the enumeration also takes: its root and child tuples are yielded by
    # enumerate_tuples, tau1 and tau2 are total maps into the parts, and each
    # committed oracle element lies in its part of X''.  Under the override
    # some parts are ranked, so X'' is cut below X'.
    cfg = SolverConfig(tuple_budget=10**9, recursion_budget=10**9, **overrides)
    got = 0
    for n, seed, k in itertools.product((4, 5, 6), range(10), (1, 2, 3)):
        inst = generate_instance({**GEN_UNW, "n": n, "m": n}, seed=seed)
        res, steps = _record_guided(monkeypatch, inst, k, cfg)
        if res is None:
            continue
        got += 1
        tuples = [t for t, _ in steps["tuples"]]
        guided_ctx = steps["tuples"][0][1]
        ctx = Search(guided_ctx.inst, guided_ctx.k, cfg)  # the clone instance at guided's size
        root, leaf = tuples[0], tuples[-1]
        assert root.S == () and root in enumerate_tuples((), root.parts, ctx)
        for t, child, (tau1, xpp) in zip(tuples, tuples[1:], steps["candidates"]):
            assert tau1.keys() == set(t.S) and set(tau1.values()) <= set(range(t.r))
            (v,) = set(child.S) - set(t.S)
            (i,) = [i for i, part in enumerate(t.parts) if v in part]
            assert v in xpp[i]
            rest = t.parts[:i] + t.parts[i + 1 :]
            assert child.parts == rest
            if child.r:
                assert child in enumerate_tuples(t.S + (v,), rest, ctx)
            else:  # nothing reads pi or gamma at r = 0
                (only,) = enumerate_tuples(t.S + (v,), rest, ctx)
                assert (only.S, only.parts) == (child.S, child.parts)
        ((closed, tau1, tau2, xpp),) = steps["closings"]
        assert closed is leaf
        if leaf.r:
            assert (tau1, xpp) == steps["candidates"][-1]
            for tau in (tau1, tau2):
                assert tau.keys() == set(leaf.S) and set(tau.values()) <= set(range(leaf.r))
        assert solve_approx(inst, k, cfg, mode=ENUMERATE) is not None
    # Pinned so that a change that makes guided answer less cannot pass vacuously.
    assert got == answered


@pytest.mark.parametrize(
    "overrides, built",
    [({}, 128), ({"small_class_threshold": 2, "top_t": 1}, 119)],
    ids=["defaults", "ranked"],
)
def test_descent_builds_tuples_the_checked_constructor_would(monkeypatch, overrides, built):
    # good_tuple_from_opt builds its tuples trusted, like enumerate_tuples.  On
    # the guess-space property's instances each must equal the checked build
    # from the same fields, which sorts S, the parts and every gamma row, drops
    # zero demands and checks that pi maps into S.
    cfg = SolverConfig(tuple_budget=10**9, recursion_budget=10**9, **overrides)
    seen = 0
    for n, seed, k in itertools.product((4, 5, 6), range(10), (1, 2, 3)):
        inst = generate_instance({**GEN_UNW, "n": n, "m": n}, seed=seed)
        for t, _ in _record_guided(monkeypatch, inst, k, cfg)[1]["tuples"]:
            checked = AnnotatedTuple(S=t.S, parts=t.parts, pi=t.pi, gamma=t.gamma)
            assert vars(t) == vars(checked)
            seen += 1
    assert seen == built


def test_every_pi_a_solve_builds_is_in_class_order(monkeypatch):
    # Class order, the sorted order of the classes, is the one order of a
    # search state: the replay and conflict memos key on pi's items as they
    # stand.  Checked on the guess-space property's instances, for every tuple
    # the descent builds and every tuple enumerate_tuples yields; the empty
    # class comes first, so a pi with it and another class shows the order.
    cfg = SolverConfig(tuple_budget=10**9, recursion_budget=10**9)
    real = approx.enumerate_tuples
    mixed = {"descent": 0, "enumerate": 0}

    def check(t, source):
        assert list(t.pi) == sorted(t.pi)
        mixed[source] += () in t.pi and len(t.pi) > 1

    def recording(S, parts, ctx):
        for t in real(S, parts, ctx):
            check(t, "enumerate")
            yield t

    for n, seed, k in itertools.product((4, 5, 6), range(10), (1, 2, 3)):
        inst = generate_instance({**GEN_UNW, "n": n, "m": n}, seed=seed)
        res, steps = _record_guided(monkeypatch, inst, k, cfg)
        for t, _ in steps["tuples"]:
            check(t, "descent")
        if res is not None:
            monkeypatch.setattr(approx, "enumerate_tuples", recording)
            solve_approx(inst, k, cfg, mode=ENUMERATE)
            monkeypatch.undo()
    # Pinned so that the check cannot pass vacuously.
    assert mixed == {"descent": 47, "enumerate": 2598}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: expand_multiplicities(_hand_instance(), 0), "k must be at least 1"),
        (lambda: solve_extended(
            AnnotatedTuple(S=(3,), parts=((1,),), pi={(3,): 3}, gamma=((),)),
            {3: 0}, {}, ((1,),), Search(_hand_instance(), 2),
        ), "tau1/tau2 must be total on S"),
        (lambda: approx.solve_annotated(
            AnnotatedTuple(S=(3,), parts=((1,),), pi={(3,): 3}, gamma=((),)),
            Search(_hand_instance(), 3),
        ), "tuple arity does not match k"),
    ],
    ids=["expand-k-zero", "tau-not-total", "annotated-arity"],
)
def test_layers_reject_bad_arguments(call, message):
    with pytest.raises(ValueError) as got:
        call()
    assert got.value.args == (message,)


def test_enumerate_mode_small_instances():
    inst = Instance(
        elements=(Element(id=0, cap=2), Element(id=1, cap=1)),
        family=((0,), (0, 1)),
        d=2,
    )
    res = solve_approx(inst, 1, mode=ENUMERATE)
    assert res is not None
    assert res.solution.copies == {0: 1}
    assert assignment_ok(inst, res.solution, res.assignment)


def test_enumerate_mode_budget_dichotomy():
    # Default budgets cover seed 4 at k=2 but run out on denser seed 0.
    wins = generate_instance(GEN_UNW, seed=4)
    res = solve_approx(wins, 2, mode=ENUMERATE)
    assert res is not None
    assert res.solution.size() <= ceil43(2)
    assert assignment_ok(wins, res.solution, res.assignment)
    dense = generate_instance(GEN_UNW, seed=0)
    with pytest.raises(BudgetExceeded):
        solve_approx(dense, 2, mode=ENUMERATE)


def test_enumerate_budget_fires_at_pinned_charge_counts():
    # Seed 4 at k=2 spends exactly 586 tuple and 381 recursion charges, so one
    # fewer of either exhausts that budget.
    inst = generate_instance(GEN_UNW, seed=4)

    def run(tuples, recursions):
        cfg = SolverConfig(tuple_budget=tuples, recursion_budget=recursions)
        return solve_approx(inst, 2, cfg=cfg, mode=ENUMERATE)

    assert run(586, 381) is not None
    with pytest.raises(BudgetExceeded, match="annotated-tuple"):
        run(585, 381)
    with pytest.raises(BudgetExceeded, match="recursion"):
        run(586, 380)


def _enumerate_outcome(inst, k, cfg):
    """(solution copies, or the BudgetExceeded message; both budgets left) of
    an enumerate-mode solve_approx."""
    made = []

    class Recording(Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "Search", Recording)
        try:
            res = solve_approx(inst, k, cfg=cfg, mode=ENUMERATE)
            got = None if res is None else res.solution.copies
        except BudgetExceeded as exc:
            got = str(exc)
    (ctx,) = made
    return got, (ctx.tuples, ctx.recursions)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    epsilon=st.sampled_from([None, Fraction(1, 2)]),
    tuples=st.integers(0, 600),
    recursions=st.integers(0, 600),
)
def test_failed_subtree_memo_matches_plain_search(n, m, seed, k, epsilon, tuples, recursions):
    # The memo may only save work: the same answer or the same exhausted
    # budget, and the same charges left on both budgets.
    inst = generate_instance({**GEN, "n": n, "m": m}, seed)
    cfg = SolverConfig(tuple_budget=tuples, recursion_budget=recursions, epsilon=epsilon)
    got = _enumerate_outcome(inst, k, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "_search_below", plain_search_below)
        assert got == _enumerate_outcome(inst, k, cfg)


def _splits_the_hubs(seed: int) -> bool:
    """Whether the first size-3 coloring of ids 0..3 puts 0 and 1 in parts of their own."""
    parts = next(iter(random_colorings(range(4), 3, 1, seed)))
    return [0] in parts and [1] in parts


HUB_SEEDS = [seed for seed in range(300) if _splits_the_hubs(seed)]


@st.composite
def replay_runs(draw):
    """An enumerate-mode solve whose replay keys carry pi, X' and gamma.

    Half the runs take a generated instance and a config whose threshold of
    0 to 2 ranks small parts, where candidate_set reads gamma.  The other
    half take a two-hub family: hubs 0 and 1 of capacity 1, candidates 2 and
    3 of capacity 2 and 3, each set one hub and one or both candidates.  Once
    S = {0, 1}, pi decides which hub's star each class joins, so it moves the
    candidates' scores and can flip whether 2 and 3 conflict.  Those runs
    solve k = 3 from a seed that puts each hub in a part of its own, with
    bucket base 4, threshold 1 and top_t 1, so budgets of 0..600 reach
    S = {0, 1} with a ranked part whose X'' depends on pi.
    """
    budgets = {"tuple_budget": draw(st.integers(0, 600)), "recursion_budget": draw(st.integers(0, 600))}
    shared = {
        "rho": draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1)])),
        "max_coloring_trials": draw(st.integers(1, 3)),
    }
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        inst = generate_instance({**GEN, "n": n, "m": m}, draw(st.integers(0, 10_000)))
        k = draw(st.integers(1, 3))
        cfg = SolverConfig(
            small_class_threshold=draw(st.sampled_from([None, 0, 1, 2])),
            top_t=draw(st.integers(1, 2)),
            seed=draw(st.integers(0, 20)),
            **budgets,
            **shared,
        )
        return inst, k, cfg
    inst = _two_hub_instance(draw)
    cfg = SolverConfig(
        small_class_threshold=1,
        top_t=1,
        bucket_base=Fraction(4),
        seed=draw(st.sampled_from(HUB_SEEDS)),
        **budgets,
        **shared,
    )
    return inst, 3, cfg


@settings(max_examples=300, deadline=None)
@given(replay_runs())
def test_failed_tuple_replay_matches_a_search_without_memos(run):
    # Both failure memos may only save work: against a search that has
    # neither, the same answer or the same exhausted budget, and the same
    # charges left on both budgets.
    inst, k, cfg = run
    got = _enumerate_outcome(inst, k, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "_search_below", memoless_search_below)
        assert got == _enumerate_outcome(inst, k, cfg)


def _count_entries(monkeypatch) -> Counter:
    """Counts enumerate_tuples entries by (size, sorted S, parts) from now on."""
    entered = Counter()
    real = approx.enumerate_tuples

    def counting(S, parts, ctx):
        entered[(ctx.k, tuple(sorted(S)), parts)] += 1
        return real(S, parts, ctx)

    monkeypatch.setattr(approx, "enumerate_tuples", counting)
    return entered


def test_enumerate_enters_each_subtree_once(monkeypatch):
    # Every size-1 coloring is the same single part, so the plain recursion
    # searched the size-1 root once per coloring trial; with the memo every
    # (size, S, parts) is entered once.
    inst = generate_instance(GEN_UNW, seed=4)
    entered = _count_entries(monkeypatch)
    assert solve_approx(inst, 2, mode=ENUMERATE) is not None
    assert set(entered.values()) == {1}
    # Size 1 drew several colorings and failed on all of them, yet its one
    # root was entered once.
    n2 = expand_multiplicities(inst, 2).instance.n
    assert approx.default_trials(n2, 1) > 1 and any(key[0] == 2 for key in entered)
    assert [key for key in entered if key[0] == 1 and not key[1]] == [(1, (), (tuple(range(n2)),))]


def test_failed_subtree_is_replayed_for_its_part_order_only(monkeypatch):
    # gamma and tau index parts by position, so (A, B) and (B, A) are two
    # subtrees.  A repeat of a failed one is not entered again while both
    # budgets cover its charges, and is searched again when one does not.
    inst = generate_instance({**GEN_UNW, "n": 4, "m": 6}, seed=0)
    inst2 = expand_multiplicities(inst, 2).instance
    ids = [e.id for e in inst2.elements]
    A, B = tuple(ids[::2]), tuple(ids[1::2])
    entered = _count_entries(monkeypatch)
    ctx = Search(inst2, 2)

    def spend(parts):
        before = (ctx.tuples, ctx.recursions)
        assert approx._search_below((), parts, ctx) is None
        return before[0] - ctx.tuples, before[1] - ctx.recursions

    first = spend((A, B))
    assert entered[(2, (), (A, B))] == 1 and first[1] > 1
    assert spend((A, B)) == first
    assert entered[(2, (), (A, B))] == 1
    spend((B, A))
    assert entered[(2, (), (B, A))] == 1
    ctx.tuples = first[0] - 1
    with pytest.raises(BudgetExceeded, match="annotated-tuple"):
        approx._search_below((), (A, B), ctx)
    assert entered[(2, (), (A, B))] == 2


def test_weight_windows_are_built_only_where_every_part_has_elements(monkeypatch):
    # Weights 1..7 and 300 on four disjoint pairs: no solution of size 3, so
    # enumerate mode at k = 2 and epsilon 1/2 runs out of recursions.  A part
    # offers only the windows its elements lie in, so every window vector
    # built is searched; walking every window up to the heaviest weight built
    # 188 169 vectors for the same 369 searches.
    inst = Instance(
        elements=tuple(Element(id=i, cap=1, weight=w) for i, w in enumerate((1, 2, 3, 4, 5, 6, 7, 300))),
        family=((0, 1), (2, 3), (4, 5), (6, 7)),
        d=2,
    )
    built, searched = Counter(), Counter()
    real_windows, real_search = approx._weight_windows, approx._search_below

    def windows(*args):
        built["vectors"] += 1
        return real_windows(*args)

    def search(S, parts, ctx):
        if not S:
            searched["roots"] += 1
            assert all(parts)
        return real_search(S, parts, ctx)

    monkeypatch.setattr(approx, "_weight_windows", windows)
    monkeypatch.setattr(approx, "_search_below", search)
    with pytest.raises(BudgetExceeded, match="recursion"):
        solve_approx(inst, 2, SolverConfig(epsilon=Fraction(1, 2)), mode=ENUMERATE)
    assert built["vectors"] == searched["roots"] == 369


def test_solve_approx_raises_when_postcondition_fails(monkeypatch):
    # The closing checks run on the clone instance; only the mapped-back
    # answer is checked on the original, and that check refuses it here.
    inst = _hand_instance()
    real = approx.check_feasible
    monkeypatch.setattr(
        approx, "check_feasible", lambda on, sol: None if on is inst else real(on, sol)
    )
    with pytest.raises(InvariantViolated, match="mapped-back"):
        solve_approx(inst, 2, mode=GUIDED)


def test_solve_approx_validates_arguments():
    inst = _hand_instance()
    with pytest.raises(ValueError):
        solve_approx(inst, -1)
    # k = 0 searches nothing: the hand instance has sets, so nothing is found.
    assert solve_approx(inst, 0) is None
    with pytest.raises(ValueError):
        solve_approx(inst, 0, SolverConfig(tuple_budget=-1))
    with pytest.raises(ValueError):
        solve_approx(inst, 2, mode="fancy")


def test_multiplicity_bound_respected_after_mapping_back():
    # Two unbounded copies of one element is the optimum; the mapped-back
    # solution must carry copies, not clones.
    inst = Instance(
        elements=(Element(id=0, cap=1, mult=None),),
        family=((0,), (0,)),
        d=1,
    )
    res = solve_approx(inst, 2, mode=GUIDED)
    assert res is not None
    assert res.solution.copies == {0: 2}
    res2 = solve_approx(inst, 2, mode=ENUMERATE)
    assert res2 is not None
    assert res2.solution.copies == {0: 2}
