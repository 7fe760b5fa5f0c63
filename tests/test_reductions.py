import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caphs.core import Solution
from caphs.errors import (
    BudgetExceeded,
    EnumerationBudgetExceeded,
    MalformedInput,
    NotThreeRegular,
    ParameterViolation,
    TargetExceedsColumnSum,
    ValidationError,
)
from caphs.exact import solve_exact_weighted
from caphs.feasibility import check_feasible
from caphs.reductions import (
    Constraint,
    CspInstance,
    MdkInstance,
    _covering_threshold,
    build_covering_family,
    csp_to_mdk,
    csp_to_mdk_covering,
    is_three_regular,
    mdk_to_cvc,
    mdk_to_wcvc,
    parse_csp,
    parse_mdk,
    serialize_csp,
    serialize_mdk,
    solve_mdk_exact,
    verify_covering_family,
)

from _oracles import csp_value, mdk_min_bruteforce, random_three_regular_csp, verify_mdk


def all_pairs(n):
    return tuple((a, b) for a in range(1, n + 1) for b in range(1, n + 1))


def triple_edge_csp(n=2, allowed=None):
    """k=2 with three parallel constraints; 3-regular by construction."""
    allowed = all_pairs(n) if allowed is None else allowed
    cons = tuple(Constraint(0, 1, allowed) for _ in range(3))
    return CspInstance(k=2, n=n, constraints=cons)


def test_csp_validation():
    with pytest.raises(ValidationError):
        CspInstance(k=1, n=2, constraints=(Constraint(0, 0, ((1, 1),)),))
    with pytest.raises(ValidationError):
        CspInstance(k=2, n=2, constraints=(Constraint(0, 5, ((1, 1),)),))
    with pytest.raises(ValidationError):
        CspInstance(k=2, n=2, constraints=(Constraint(0, 1, ((0, 1),)),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CspInstance(k=0, n=2, constraints=()), "csp needs k >= 1 and n >= 1"),
        (lambda: MdkInstance(d=0, k=1, target=(), vectors=()), "mdk needs d >= 1"),
        (lambda: MdkInstance(d=1, k=-1, target=(1,), vectors=()), "mdk needs k >= 0"),
        (lambda: MdkInstance(d=1, k=1, target=(-1,), vectors=()),
         "target entries must be nonnegative ints"),
        # bool subclasses int, but serialize_mdk would write true, which
        # parse_mdk refuses.
        (lambda: MdkInstance(d=1, k=True, target=(True,), vectors=((True,),)),
         "mdk d and k must be integers"),
        (lambda: MdkInstance(d=True, k=1, target=(1,), vectors=()), "mdk d and k must be integers"),
        (lambda: MdkInstance(d=1, k=1, target=(True,), vectors=()),
         "target entries must be nonnegative ints"),
        (lambda: MdkInstance(d=1, k=1, target=(1,), vectors=((True,),)),
         "vector entries must be nonnegative ints"),
        (lambda: csp_to_mdk(triple_edge_csp(n=2), Q=2), "Q must exceed the domain size"),
        (lambda: csp_to_mdk_covering(covered_csp(), ((0, 1),), Q=2),
         "Q must exceed the domain size"),
        (lambda: csp_to_mdk_covering(covered_csp(), ()), "covering family must be nonempty"),
        (lambda: csp_to_mdk_covering(covered_csp(), ((0, 9),)),
         "family member names unknown variable"),
        (lambda: verify_covering_family((), 6, Fraction(1, 2), Fraction(1, 2)),
         "covering family must be nonempty"),
        # serialize_csp would write true, which parse_csp refuses.
        (lambda: CspInstance(k=2, n=True, constraints=()), "csp k and n must be integers"),
        (lambda: CspInstance(k=True, n=2, constraints=()), "csp k and n must be integers"),
        (lambda: CspInstance(k=2, n=2, constraints=(Constraint(0, True, ((1, 1),)),)),
         "constraint names unknown variable: Constraint(u=0, v=True, allowed=((1, 1),))"),
        (lambda: CspInstance(k=2, n=2, constraints=(Constraint(0, 1, ((True, 1),)),)),
         "allowed pair (True, 1) out of range"),
        # The knapsack builds skip the MdkInstance checks, so Q is checked up front.
        (lambda: csp_to_mdk(triple_edge_csp(n=2), Q=2.5), "Q must be an integer"),
        (lambda: csp_to_mdk_covering(covered_csp(), ((0, 1),), Q=30.0), "Q must be an integer"),
    ],
    ids=[
        "csp-k-zero", "mdk-d-zero", "mdk-k-negative", "mdk-target-negative", "mdk-bools",
        "mdk-bool-d", "mdk-bool-target", "mdk-bool-vector", "mdk-q-small", "covering-q-small",
        "covering-empty-family", "covering-unknown-variable", "verify-empty-family",
        "csp-bool-n", "csp-bool-k", "csp-bool-endpoint", "csp-bool-value", "mdk-q-float",
        "covering-q-float",
    ],
)
def test_models_and_reductions_reject_bad_input(build, message):
    with pytest.raises(ValidationError) as got:
        build()
    assert got.value.args == (message,)


def test_constraint_deduplicates_allowed():
    c = Constraint(0, 1, ((2, 1), (1, 1), (2, 1)))
    assert c.allowed == ((1, 1), (2, 1))


def test_csp_value():
    csp = CspInstance(
        k=2,
        n=2,
        constraints=(
            Constraint(0, 1, ((1, 1),)),
            Constraint(0, 1, ((2, 2),)),
        ),
    )
    assert csp_value(csp, {0: 1, 1: 1}) == Fraction(1, 2)
    assert csp_value(csp, [1, 1]) == Fraction(1, 2)
    empty = CspInstance(k=1, n=1, constraints=())
    assert csp_value(empty, {0: 1}) == 1


def test_is_three_regular():
    assert is_three_regular(triple_edge_csp())
    path = CspInstance(k=2, n=2, constraints=(Constraint(0, 1, ((1, 1),)),))
    assert not is_three_regular(path)


def test_csp_round_trip():
    csp = random_three_regular_csp(4, 3, seed=5, satisfiable=True)
    assert parse_csp(serialize_csp(csp)) == csp
    with pytest.raises(MalformedInput):
        parse_csp("[]")
    with pytest.raises(MalformedInput):
        parse_csp("[" * 100_000)
    doc = json.loads(serialize_csp(csp))
    for bad in (
        {**doc, "k": True},
        {**doc, "constraints": [{**doc["constraints"][0], "u": False}]},
        {**doc, "constraints": [{**doc["constraints"][0], "allowed": [[True, 1]]}]},
    ):
        with pytest.raises(MalformedInput):
            parse_csp(json.dumps(bad))
    for fmt in ('"format": 3', '"format": true'):
        with pytest.raises(ValidationError):
            parse_csp(serialize_csp(csp).replace('"format": 1', fmt))


def test_mdk_validation_and_round_trip():
    mdk = MdkInstance(d=2, k=2, target=(1, 2), vectors=((1, 0), (1, 1), (0, 2)))
    assert parse_mdk(serialize_mdk(mdk)) == mdk
    with pytest.raises(ValidationError):
        MdkInstance(d=2, k=1, target=(1,), vectors=())
    with pytest.raises(ValidationError):
        MdkInstance(d=2, k=1, target=(1, 1), vectors=((1,),))
    with pytest.raises(ValidationError):
        MdkInstance(d=1, k=1, target=(1,), vectors=((-1,),))
    with pytest.raises(MalformedInput):
        parse_mdk('{"format": 1, "d": 1, "k": 1, "target": [1]}')
    with pytest.raises(MalformedInput):
        parse_mdk("{" * 100_000)
    doc = json.loads(serialize_mdk(mdk))
    for bad in (
        {**doc, "d": True},
        {**doc, "k": False},
        {**doc, "target": [True, 2]},
        {**doc, "vectors": [1, 2]},
    ):
        with pytest.raises(MalformedInput):
            parse_mdk(json.dumps(bad))
    with pytest.raises(ValidationError):
        parse_mdk(json.dumps({**doc, "format": True}))


def test_verify_mdk():
    mdk = MdkInstance(d=2, k=2, target=(1, 2), vectors=((1, 0), (1, 1), (0, 2)))
    assert verify_mdk(mdk, (1, 2))
    assert verify_mdk(mdk, (2, 1, 1))  # duplicates collapse
    assert not verify_mdk(mdk, (0,))
    assert not verify_mdk(mdk, (0, 1, 2))  # over budget after dedup
    with pytest.raises(ValidationError):
        verify_mdk(mdk, (9,))


def test_csp_to_mdk_structure():
    csp = triple_edge_csp(n=2)
    mdk = csp_to_mdk(csp)
    # 2 guard dims for variables, 3 for constraints, 4 matching dims each.
    assert mdk.d == 2 + 3 + 12
    assert mdk.k == 5
    assert len(mdk.vectors) == 2 * 2 + 3 * 4
    Q = 10 * csp.n
    assert mdk.target == (1,) * 5 + (2 * Q,) * 12
    # Vector 0 (variable 0 = 1) occupies guard 0 and writes Q+1 / Q-1 at offset 0 of each block.
    v = mdk.vectors[0]
    assert v[0] == 1 and v[1] == 0
    for e in range(3):
        blk = 5 + 4 * e
        assert v[blk] == Q + 1 and v[blk + 1] == Q - 1
        assert v[blk + 2] == 0 and v[blk + 3] == 0


def test_csp_to_mdk_rejects_irregular():
    path = CspInstance(k=2, n=2, constraints=(Constraint(0, 1, ((1, 1),)),))
    with pytest.raises(NotThreeRegular):
        csp_to_mdk(path)


def test_csp_to_mdk_equivalence_small():
    sat = random_three_regular_csp(2, 2, seed=1, satisfiable=True)
    picks = solve_mdk_exact(csp_to_mdk(sat))
    assert picks is not None
    assert len(picks) == 5
    assert verify_mdk(csp_to_mdk(sat), picks)
    unsat = random_three_regular_csp(2, 2, seed=1, satisfiable=False)
    assert solve_mdk_exact(csp_to_mdk(unsat)) is None


def test_mdk_solution_decodes_to_satisfying_assignment():
    csp = random_three_regular_csp(4, 3, seed=3, satisfiable=True)
    mdk = csp_to_mdk(csp)
    picks = solve_mdk_exact(mdk)
    assert picks is not None
    # The first k * n vectors are the variables', n per variable: vector j
    # sets variable j // n to value j % n + 1.
    values = {j // csp.n: j % csp.n + 1 for j in picks if j < csp.k * csp.n}
    assert len(values) == csp.k
    assert csp_value(csp, values) == 1


def test_solve_mdk_exact_basics():
    trivial = MdkInstance(d=1, k=0, target=(0,), vectors=())
    assert solve_mdk_exact(trivial) == ()
    mdk = MdkInstance(d=2, k=3, target=(1, 2), vectors=((1, 0), (1, 1), (0, 2)))
    assert solve_mdk_exact(mdk) in ((0, 2), (1, 2))
    short = MdkInstance(d=1, k=1, target=(5,), vectors=((1,), (2,)))
    assert solve_mdk_exact(short) is None
    with pytest.raises(BudgetExceeded):
        solve_mdk_exact(mdk, node_budget=0)


def test_solve_mdk_exact_matches_bruteforce():
    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        nvec = int(rng.integers(2, 7))
        vectors = tuple(
            tuple(int(x) for x in rng.integers(0, 3, size=d)) for _ in range(nvec)
        )
        target = tuple(int(x) for x in rng.integers(0, 4, size=d))
        mdk = MdkInstance(d=d, k=nvec, target=target, vectors=vectors)
        got = solve_mdk_exact(mdk)
        want = mdk_min_bruteforce(vectors, target)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
            assert verify_mdk(mdk, got)


def hand_mdk():
    return MdkInstance(d=2, k=2, target=(1, 2), vectors=((1, 0), (1, 1), (0, 2)))


def test_mdk_to_cvc_structure():
    inst = mdk_to_cvc(hand_mdk())
    # 3 vector vertices, 2 forced dimension vertices, 2 zero-capacity twins.
    assert inst.n == 7
    assert inst.d == 2
    m_cvc = 2 + (2 + 3)
    assert inst.m == m_cvc
    assert inst.element(0).cap == m_cvc
    assert inst.element(3).cap == 2 - 1 + 1  # cols0 - t0 + 1
    assert inst.element(4).cap == 3 - 2 + 1
    assert inst.element(5).cap == 0 and inst.element(6).cap == 0
    assert all(len(fs) == 2 for fs in inst.family)


def test_mdk_to_cvc_rejects_unreachable_target():
    bad = MdkInstance(d=2, k=2, target=(5, 2), vectors=((1, 0), (1, 1), (0, 2)))
    with pytest.raises(TargetExceedsColumnSum):
        mdk_to_cvc(bad)


def test_mdk_to_cvc_equivalence_both_ways():
    mdk = hand_mdk()
    inst = mdk_to_cvc(mdk)
    k_cvc = mdk.k + mdk.d
    # Forward: a known MDK solution plus all forced vertices is feasible.
    for picks in ((0, 2), (1, 2)):
        assert verify_mdk(mdk, picks)
        sol = Solution({v: 1 for v in picks} | {3: 1, 4: 1})
        assert sol.size() == k_cvc
        assert check_feasible(inst, sol) is not None
    # Backward: every feasible set of size <= k_cvc restricts to an MDK solution.
    ids = [e.id for e in inst.elements]
    found = 0
    for size in range(0, k_cvc + 1):
        for combo in itertools.combinations(ids, size):
            sol = Solution({v: 1 for v in combo})
            if check_feasible(inst, sol) is None:
                continue
            found += 1
            picks = [v for v in combo if v < 3]
            assert verify_mdk(mdk, picks)
    assert found > 0


def test_mdk_to_wcvc_weights_and_budget():
    mdk = hand_mdk()
    inst = mdk_to_wcvc(mdk)
    m_cvc = inst.m
    heavy = inst.n * m_cvc + 1
    assert [inst.element(v).weight for v in range(3)] == [1, 1, 1]
    assert inst.element(3).weight == 0 and inst.element(4).weight == 0
    assert inst.element(5).weight == heavy
    got = solve_exact_weighted(inst, mdk.k + mdk.d)
    assert got is not None
    assert got.weight == 2  # exactly the MDK optimum size


def test_wcvc_infeasible_when_mdk_needs_more_vectors():
    # Target needs all three vectors; budget k = 2 makes the MDK a no.
    mdk = MdkInstance(d=2, k=2, target=(2, 3), vectors=((1, 0), (1, 1), (0, 2)))
    inst = mdk_to_wcvc(mdk)
    got = solve_exact_weighted(inst, mdk.k + mdk.d)
    assert got is None or got.weight > mdk.k


def test_covering_family_gate_and_build():
    with pytest.raises(ParameterViolation):
        build_covering_family(6, Fraction(1, 2), Fraction(1, 2), r=3)
    with pytest.raises(ParameterViolation):
        build_covering_family(3, Fraction(1, 2), Fraction(1, 2), r=4)
    with pytest.raises(ParameterViolation):
        build_covering_family(6, Fraction(3, 2), Fraction(1, 2), r=4)
    fam = build_covering_family(6, Fraction(1, 2), Fraction(1, 2), r=4, seed=0)
    assert fam is not None
    assert len(fam) == 12
    assert all(len(s) == 4 for s in fam)
    assert verify_covering_family(fam, 6, Fraction(1, 2), Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.tuples(st.integers(1, 1000), st.integers(1, 1000)).map(lambda t: Fraction(min(t), max(t))),
    beta=st.tuples(st.integers(1, 999), st.integers(1, 999)).map(lambda t: Fraction(min(t), max(t) + 1)),
    r=st.integers(1, 60),
)
def test_covering_gate_matches_the_float_formula(alpha, beta, r):
    # On alpha and beta a float holds, the log-space gate decides as
    # ln(e^2 / alpha) / ln(1 / (1 - beta)) in floats did.
    thr = math.log(math.e ** 2 / float(alpha)) / math.log(1.0 / (1.0 - float(beta)))
    assert math.isclose(_covering_threshold(alpha, beta), thr, rel_tol=1e-12)
    try:
        build_covering_family(r, alpha, beta, r, trials=0)
        passed = True
    except ParameterViolation as exc:
        assert str(exc).startswith(f"r={r} must exceed ")
        passed = False
    assert passed == (r > thr)


def test_covering_gate_takes_fractions_a_float_cannot_hold():
    tiny = Fraction(1, 10**400)
    assert _covering_threshold(tiny, Fraction(1, 2)) == pytest.approx((2 + 400 * math.log(10)) / math.log(2))
    assert _covering_threshold(Fraction(1, 2), tiny) == math.inf
    near_one = 1 - Fraction(1, 10**20)
    assert _covering_threshold(Fraction(1, 2), near_one) == pytest.approx((2 + math.log(2)) / (20 * math.log(10)))
    with pytest.raises(ParameterViolation, match="must exceed inf"):
        build_covering_family(6, Fraction(1, 2), tiny, r=4)


def test_verify_covering_family_modes():
    bad = tuple((0,) for _ in range(12))
    assert not verify_covering_family(bad, 6, Fraction(1, 2), Fraction(1, 2))
    singles = tuple((i % 6,) for i in range(30))
    with pytest.raises(BudgetExceeded):
        verify_covering_family(singles, 6, Fraction(1, 2), Fraction(1, 2), budget=100)
    with pytest.raises(ValidationError):
        verify_covering_family(((9,),), 6, Fraction(1, 2), Fraction(1, 2))


def covered_csp():
    """Five binary variables, a satisfiable cycle plus chord."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    cons = tuple(Constraint(u, v, ((1, 1), (2, 2))) for u, v in edges)
    return CspInstance(k=5, n=2, constraints=cons)


def test_csp_to_mdk_covering_structure_and_solution():
    csp = covered_csp()
    fam = build_covering_family(5, Fraction(1, 2), Fraction(1, 2), r=4, seed=1)
    assert fam is not None
    mdk = csp_to_mdk_covering(csp, fam)
    kstar = len(fam)
    assert mdk.k == kstar
    assert mdk.d >= kstar
    assert (mdk.d - kstar) % 2 == 0
    picks = solve_mdk_exact(mdk)
    assert picks is not None
    assert len(picks) == kstar
    assert verify_mdk(mdk, picks)


def test_csp_to_mdk_covering_budget():
    csp = covered_csp()
    with pytest.raises(EnumerationBudgetExceeded):
        csp_to_mdk_covering(csp, ((0, 1, 2, 3),), budget=4)


# The four CSPs of perfbench/corpus.reduce_pairs(11): (satisfiable, unsatisfiable) twice.
REDUCE_PAIRS_SEED11 = (
    ((1, 1), (2, 2)), ((1, 2), (2, 2)), ((2, 1), (2, 2)),
    ((1, 2), (2, 2)), ((1, 1), (2, 1)), ((2, 1), (2, 2)),
    ((1, 1), (1, 2)), ((1, 1), (1, 2)), ((1, 2), (2, 2)),
    ((1, 2), (2, 2)), ((1, 2), (2, 1)), ((2, 1), (2, 2)),
)
# (picks, node count) of solve_mdk_exact on each, mapped with Q = n + 1.
REDUCE_PAIRS_SEED11_SOLVED = (
    ((1, 3, 5, 7, 9), 26),
    (None, 24),
    ((0, 3, 5, 7, 8), 20),
    (None, 26),
)
SMALL_MDK_DIGEST = "a2bea8dff8cb773082d659473dd846be53b2777e8f1a8e5e39907eca00bc0cfd"


def smallest_budget(mdk):
    """(picks, N): the answer and the fewest nodes that reach it."""
    budget = 0
    while True:
        try:
            return solve_mdk_exact(mdk, node_budget=budget), budget
        except BudgetExceeded:
            budget += 1


def test_solve_mdk_exact_pins_picks_and_node_counts():
    # The search order is part of the contract: the same picks on ties and
    # BudgetExceeded at the same node, not only an optimum of the same size.
    for i, (picks, nodes) in enumerate(REDUCE_PAIRS_SEED11_SOLVED):
        allowed = REDUCE_PAIRS_SEED11[3 * i : 3 * i + 3]
        csp = CspInstance(k=2, n=2, constraints=tuple(Constraint(0, 1, a) for a in allowed))
        mdk = csp_to_mdk(csp, Q=csp.n + 1)
        assert solve_mdk_exact(mdk, node_budget=nodes) == picks
        with pytest.raises(BudgetExceeded):
            solve_mdk_exact(mdk, node_budget=nodes - 1)
    rng = random.Random(21)
    rows = []
    for _ in range(200):
        d = rng.randint(1, 4)
        nvec = rng.randint(1, 6)
        vectors = tuple(tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(nvec))
        target = tuple(rng.randint(0, 3) for _ in range(d))
        mdk = MdkInstance(d=d, k=rng.randint(0, nvec), target=target, vectors=vectors)
        rows.append(smallest_budget(mdk))
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SMALL_MDK_DIGEST
