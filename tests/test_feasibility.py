import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import caphs.feasibility as feasibility
from caphs.core import Assignment, Element, Instance, Solution, ValidationError, generate_instance
from caphs.errors import CaphsError
from caphs.feasibility import _augment, assignment_ok, build_network, check_feasible
from caphs.reductions import Constraint, CspInstance, csp_to_mdk, mdk_to_cvc, solve_mdk_exact

from _oracles import (
    OracleTooLarge,
    assign_backtracking,
    augment_by_rounds,
    brute_force_assignment,
    dense_network,
    edmonds_karp_assignment,
    filtered_network,
    ford_fulkerson_value,
)
from test_reductions import REDUCE_PAIRS_SEED11

GEN = {
    "n": 5,
    "m": 6,
    "d": 3,
    "cap_range": (1, 2),
    "weight_range": (1, 1),
    "mult_range": (1, 2),
}


def random_cases(seed, count, n_range=(2, 7), m_range=(1, 10)):
    """(inst, sol) pairs with caps 0..4, mults 1..3 and random copy counts."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        params = {
            "n": int(rng.integers(*n_range)),
            "m": int(rng.integers(*m_range)),
            "d": int(rng.integers(1, 4)),
            "cap_range": (0, 4),
            "weight_range": (1, 1),
            "mult_range": (1, 3),
        }
        inst = generate_instance(params, seed=seed * 1000 + i)
        copies = {}
        for e in inst.elements:
            if rng.random() < 0.7:
                copies[e.id] = int(rng.integers(1, e.mult + 1))
        yield inst, Solution(copies=copies)


def test_flow_kernel_matches_reference_search():
    feasible = 0
    for inst, sol in random_cases(42, 200):
        cap, _ = dense_network(inst, sol)
        sink = cap.shape[0] - 1
        got = check_feasible(inst, sol)
        assert (got is not None) == (ford_fulkerson_value(cap, 0, sink) == inst.m)
        feasible += got is not None
    assert 40 < feasible < 160  # sanity: both verdicts are exercised


@st.composite
def instances_with_solutions(draw, max_cap=4):
    """(inst, sol) with n <= 7, m <= 10, caps 0..max_cap, mults None/1..3."""
    n = draw(st.integers(min_value=1, max_value=7))
    d = draw(st.integers(min_value=1, max_value=3))
    elements = tuple(
        Element(id=x, cap=draw(st.integers(min_value=0, max_value=max_cap)),
                mult=draw(st.none() | st.integers(min_value=1, max_value=3)))
        for x in range(n)
    )
    member_sets = st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=1, max_size=min(d, n), unique=True)
    family = tuple(tuple(s) for s in draw(st.lists(member_sets, max_size=10)))
    copies = {}
    for e in elements:
        c = draw(st.integers(min_value=0, max_value=3 if e.mult is None else e.mult))
        if c:
            copies[e.id] = c
    return Instance(elements=elements, family=family, d=d), Solution(copies=copies)


@given(instances_with_solutions())
def test_verdict_matches_max_flow_references(case):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    inst, sol = case
    cap, _ = dense_network(inst, sol)
    sink = cap.shape[0] - 1
    feasible = check_feasible(inst, sol) is not None
    assert feasible == (ford_fulkerson_value(cap, 0, sink) == inst.m)
    flow = csgraph.maximum_flow(sparse.csr_matrix(cap.astype(np.int32)), 0, sink)
    assert feasible == (flow.flow_value == inst.m)


@given(instances_with_solutions(max_cap=1))
def test_failed_search_reports_a_hall_violator(case):
    inst, sol = case
    members, room = build_network(inst, sol)
    assume(all(members) and check_feasible(inst, sol) is None)
    target, scanned = _augment(members, room)
    assert target is None
    assert len(set(scanned)) == len(scanned)
    reached = {x for j in scanned for x in members[j]}
    assert len(scanned) > sum(room[x] for x in reached)


def _matching(result):
    """(target items in insertion order, scanned) of an _augment result."""
    target, scanned = result
    return None if target is None else list(target.items()), scanned


# Feasible with copies above 1 and a cap-0 member; infeasible with an
# unbought member and a Hall violator the sweep alone cannot see.
SHARED = (Element(id=0, cap=0), Element(id=1, cap=1, mult=3), Element(id=2, cap=2))


@settings(max_examples=400)
@example((Instance(elements=SHARED, family=((0, 1), (1, 2), (1,), (2,)), d=2),
          Solution(copies={0: 1, 1: 2, 2: 1})))
@example((Instance(elements=SHARED, family=((1, 2), (1,), (1, 2), (0, 1)), d=2),
          Solution(copies={1: 1, 2: 1})))
@given(instances_with_solutions())
def test_sweep_then_rounds_matches_rounds_alone(case):
    # The sweep makes the rounds' first assignments, and members without room
    # change nothing: the same target in the same order, or the same scanned
    # sets in the same order.
    inst, sol = case
    want = _matching(augment_by_rounds(*filtered_network(inst, sol)))
    assert _matching(_augment(*build_network(inst, sol))) == want


def _seed11_covers():
    """The two satisfiable reduction-chain covers of the seed-11 corpus, each
    with the solution its MDK picks buy."""
    for first in (0, 6):
        allowed = REDUCE_PAIRS_SEED11[first : first + 3]
        csp = CspInstance(k=2, n=2, constraints=tuple(Constraint(0, 1, a) for a in allowed))
        mdk = csp_to_mdk(csp, Q=csp.n + 1)
        picks = solve_mdk_exact(mdk)
        nvec = len(mdk.vectors)
        yield mdk_to_cvc(mdk), Solution({**{j: 1 for j in picks}, **{nvec + i: 1 for i in range(mdk.d)}})


def test_the_sweep_alone_assigns_a_set_with_room_everywhere(monkeypatch):
    # Only the augmenting rounds insort; a network the sweep completes must
    # never reach them.
    def no_rounds(*args):
        raise AssertionError("an augmenting round ran")

    monkeypatch.setattr(feasibility, "insort", no_rounds)
    for cover, sol in _seed11_covers():
        assert cover.m == 171
        assert assignment_ok(cover, sol, check_feasible(cover, sol))
    # Element 0 is bought with cap 0 and element 2 is not bought: both are
    # passed over, and every set takes element 1.
    inst = Instance(elements=(Element(id=0, cap=0), Element(id=1, cap=1, mult=3), Element(id=2, cap=1)),
                    family=((0, 1), (1, 2), (0, 1)), d=2)
    asg = check_feasible(inst, Solution(copies={0: 1, 1: 3}))
    assert asg.target == {0: 1, 1: 1, 2: 1}
    # The control: a set that must displace another needs a round.
    shift = Instance(elements=(Element(id=0, cap=1), Element(id=1, cap=1)), family=((0, 1), (0,)), d=2)
    with pytest.raises(AssertionError, match="round"):
        check_feasible(shift, Solution(copies={0: 1, 1: 1}))


def test_matcher_keeps_dense_bfs_tie_breaks():
    feasible = 0
    for inst, sol in random_cases(5, 400):
        got = check_feasible(inst, sol)
        want = edmonds_karp_assignment(inst, sol)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.target == want
            assert list(got.target) == sorted(got.target)
            feasible += 1
    assert feasible >= 100


def test_build_network_shape():
    # Members are the family itself; room has every element id, 0 unless bought.
    inst = generate_instance(GEN, seed=3)
    sol = Solution(copies={0: 1, 2: 2})
    members, room = build_network(inst, sol)
    assert room == {**dict.fromkeys(range(inst.n), 0),
                    0: inst.element(0).cap, 2: 2 * inst.element(2).cap}
    assert members is inst.family
    for row in members:
        assert list(row) == sorted(row)


def test_check_feasible_raises_when_postcondition_fails(monkeypatch):
    inst = Instance(elements=(Element(id=0, cap=1),), family=((0,),), d=1)
    monkeypatch.setattr(feasibility, "assignment_ok", lambda *args: False)
    with pytest.raises(CaphsError):
        check_feasible(inst, Solution(copies={0: 1}))


def test_check_feasible_agrees_with_backtracking():
    rng = np.random.default_rng(11)
    agree = 0
    for seed in range(40):
        inst = generate_instance(GEN, seed=seed)
        for _ in range(10):
            copies = {}
            for e in inst.elements:
                if rng.random() < 0.5:
                    hi = e.mult if e.mult is not None else 2
                    copies[e.id] = int(rng.integers(1, hi + 1))
            sol = Solution(copies=copies)
            got = check_feasible(inst, sol)
            want = assign_backtracking(inst, copies)
            assert (got is None) == (want is None)
            if got is not None:
                assert assignment_ok(inst, sol, got)
                agree += 1
    assert agree > 40  # sanity: a decent share must be feasible


def test_check_feasible_rejects_mult_violation():
    inst = Instance(elements=(Element(id=0, cap=3, mult=1),), family=((0,),), d=1)
    with pytest.raises(ValidationError):
        check_feasible(inst, Solution(copies={0: 2}))


def test_brute_force_assignment_matches_flow():
    for seed in range(30):
        inst = generate_instance(GEN, seed=100 + seed)
        sol = Solution(copies={e.id: 1 for e in inst.elements[:3]})
        flow_asg = check_feasible(inst, sol)
        brute_asg = brute_force_assignment(inst, sol)
        assert (flow_asg is None) == (brute_asg is None)
        if brute_asg is not None:
            assert assignment_ok(inst, sol, brute_asg)


def test_brute_force_assignment_guards_size():
    inst = generate_instance({**GEN, "m": 13}, seed=0)
    sol = Solution(copies={e.id: 1 for e in inst.elements})
    with pytest.raises(OracleTooLarge):
        brute_force_assignment(inst, sol)


def test_assignment_ok_rejects_bad_maps():
    inst = Instance(
        elements=(Element(id=0, cap=1), Element(id=1, cap=1)),
        family=((0, 1), (0, 1)),
        d=2,
    )
    sol = Solution(copies={0: 1})
    ok = Assignment(target={0: 0, 1: 0})
    assert not assignment_ok(inst, sol, ok)  # cap 1, load 2
    assert assignment_ok(inst, Solution(copies={0: 1, 1: 1}), Assignment(target={0: 0, 1: 1}))
    assert not assignment_ok(inst, sol, Assignment(target={0: 0}))  # partial
    assert not assignment_ok(inst, sol, Assignment(target={0: 1, 1: 0}))  # 1 unbought


def test_unbought_member_is_never_assigned():
    inst = Instance(
        elements=(Element(id=0, cap=5), Element(id=1, cap=5)),
        family=((0, 1),),
        d=2,
    )
    asg = check_feasible(inst, Solution(copies={1: 1}))
    assert asg is not None
    assert asg.target == {0: 1}
    # enough capacity in total, but the second set has no bought member
    two = Instance(elements=inst.elements, family=((0,), (1,)), d=1)
    assert check_feasible(two, Solution(copies={0: 1})) is None
    assert check_feasible(two, Solution(copies={0: 1, 1: 1})) is not None


def test_zero_capacity_element_counts_for_nothing():
    inst = Instance(
        elements=(Element(id=0, cap=0), Element(id=1, cap=1)),
        family=((0, 1),),
        d=2,
    )
    assert check_feasible(inst, Solution(copies={0: 1})) is None
    assert check_feasible(inst, Solution(copies={0: 1, 1: 1})) is not None
