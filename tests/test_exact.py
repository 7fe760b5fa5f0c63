import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from caphs.core import Element, Instance, generate_instance
from caphs.errors import BudgetExceeded, InvariantViolated
from caphs.exact import _count_vectors, solve_exact, solve_exact_weighted
from caphs.feasibility import assignment_ok, check_feasible

from _oracles import count_vectors_bruteforce, min_hitting_bruteforce, min_weight_bruteforce

GEN = {
    "n": 6,
    "m": 8,
    "d": 3,
    "cap_range": (1, 3),
    "weight_range": (1, 9),
    "mult_range": (1, 2),
}


def test_pinned_seed7_optimum():
    inst = generate_instance(GEN, seed=7)
    assert solve_exact(inst, 3) is None
    got = solve_exact(inst, 4)
    assert got is not None
    assert got.solution.copies == {1: 1, 4: 1, 5: 2}
    assert assignment_ok(inst, got.solution, got.assignment)
    weighted = solve_exact_weighted(inst, 4)
    assert weighted.weight == 11
    assert weighted.solution.weight(inst) == 11


def test_matches_bruteforce_minimum_size():
    for seed in range(25):
        inst = generate_instance(GEN, seed=seed)
        for k in (2, 4):
            got = solve_exact(inst, k)
            want = min_hitting_bruteforce(inst, k)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.solution.size() == sum(want.values())
                assert assignment_ok(inst, got.solution, got.assignment)


def test_matches_bruteforce_minimum_weight():
    for seed in range(25):
        inst = generate_instance(GEN, seed=50 + seed)
        got = solve_exact_weighted(inst, 4)
        want = min_weight_bruteforce(inst, 4)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.weight == want[1]
            assert assignment_ok(inst, got.solution, got.assignment)


def test_weighted_prefers_weight_over_size():
    # One heavy element covers everything; two light ones also do.
    inst = Instance(
        elements=(
            Element(id=0, cap=2, weight=10),
            Element(id=1, cap=1, weight=2),
            Element(id=2, cap=1, weight=3),
        ),
        family=((0, 1), (0, 2)),
        d=2,
    )
    assert solve_exact(inst, 2).solution.copies == {0: 1}
    weighted = solve_exact_weighted(inst, 2)
    assert weighted.solution.copies == {1: 1, 2: 1}
    assert weighted.weight == 5


def test_ties_break_toward_lexicographic_vector():
    # Copies vectors in id order: (0, 1) precedes (1, 0), so element 1 wins.
    inst = Instance(
        elements=(Element(id=0, cap=1), Element(id=1, cap=1)),
        family=((0, 1),),
        d=2,
    )
    got = solve_exact(inst, 1)
    assert got.solution.copies == {1: 1}


def test_unbounded_multiplicity_can_repeat():
    inst = Instance(
        elements=(Element(id=0, cap=1, mult=None),),
        family=((0,), (0,), (0,)),
        d=1,
    )
    assert solve_exact(inst, 2) is None
    got = solve_exact(inst, 3)
    assert got.solution.copies == {0: 3}


def test_budget_is_enforced():
    inst = generate_instance(GEN, seed=1)
    with pytest.raises(BudgetExceeded):
        solve_exact(inst, 4, budget=10)


def test_infeasible_returns_none():
    inst = Instance(
        elements=(Element(id=0, cap=0),),
        family=((0,),),
        d=1,
    )
    assert solve_exact(inst, 3) is None
    assert solve_exact_weighted(inst, 3) is None


def test_answer_carries_the_searchs_matching_which_is_check_feasibles():
    # The search answers with the matching that found its vector feasible;
    # members without capacity (caps from 0) take no set in either matcher.
    found = 0
    for seed in range(20):
        inst = generate_instance({**GEN, "m": 5, "cap_range": (0, 2)}, seed=seed)
        for solve in (solve_exact, solve_exact_weighted):
            got = solve(inst, 6)
            if got is not None:
                found += 1
                assert got.assignment == check_feasible(inst, got.solution)
    assert found >= 20


def test_invalid_matching_raises(monkeypatch):
    # The search's matching is checked by the one rule check_feasible uses too.
    monkeypatch.setattr("caphs.feasibility.assignment_ok", lambda inst, sol, asg: False)
    with pytest.raises(InvariantViolated, match="matching produced an invalid assignment"):
        solve_exact(generate_instance(GEN, seed=7), 4)


def test_set_free_instance_needs_no_search():
    # 200 elements of multiplicity 3 give far more than a million candidate
    # vectors at k = 3, but with no sets the empty solution is optimal.
    elements = tuple(Element(id=i, cap=1, mult=3, weight=2) for i in range(200))
    inst = Instance(elements=elements, family=(), d=1)
    got = solve_exact(inst, 3)
    assert (got.solution.copies, got.assignment.target) == ({}, {})
    weighted = solve_exact_weighted(inst, 3)
    assert (weighted.solution.copies, weighted.weight) == ({}, 0)
    with pytest.raises(ValueError):
        solve_exact(inst, -1)
    # One set brings the search, and so the candidate budget, back.
    with pytest.raises(BudgetExceeded):
        solve_exact(Instance(elements=elements, family=((0,),), d=1), 3)


def test_candidate_count_of_unbounded_elements_is_one_binomial():
    # Three unbounded elements at k = 10 000 have comb(10 003, 3) copy vectors
    # of total at most k.  The precheck counts them in closed form and refuses at once.
    inst = Instance(
        elements=tuple(Element(id=i, cap=1, mult=None) for i in range(3)),
        family=((0, 1, 2),),
        d=3,
    )
    count = math.comb(10_003, 3)
    with pytest.raises(BudgetExceeded, match=f"^{count} candidate multisets exceed the budget of 1000000$"):
        solve_exact(inst, 10_000)


def test_candidate_count_is_flat_in_k_for_unbounded_elements():
    # One cap-0 element of unbounded multiplicity has k + 1 copy vectors.  Its
    # limit reaches k, so it bounds nothing and the count needs no table of
    # length k: at k = 10**6 the refusal allocates well under a megabyte.
    inst = Instance(elements=(Element(id=0, cap=0, mult=None),), family=((0,),), d=1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded,
                           match="^1000001 candidate multisets exceed the budget of 1000000$"):
            solve_exact(inst, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_candidate_count_is_flat_in_k_for_bounded_elements():
    # Two cap-0 elements of multiplicity 999 999: both limits are below k, so
    # each bounds the count, which inclusion-exclusion gets from one
    # correction term per subset of them, C(k + 2, 2) - 2 * C(2, 2), with no
    # table of length k.
    inst = Instance(elements=tuple(Element(id=i, cap=0, mult=999_999) for i in range(2)),
                    family=((0, 1),), d=2)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded,
                           match="^500001499999 candidate multisets exceed the budget of 1000000$"):
            solve_exact(inst, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def count_cases(draw):
    """(limits, k) with limits below, at and above k, zero included."""
    k = draw(st.integers(0, 8))
    lims = draw(st.lists(st.one_of(st.just(k), st.integers(0, 10)), max_size=5))
    return [(x, lim) for x, lim in enumerate(lims)], k


@given(count_cases())
def test_candidate_count_matches_brute_force(case):
    limits, k = case
    assert _count_vectors(limits, k) == count_vectors_bruteforce(limits, k)
