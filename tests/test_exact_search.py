"""Differential properties: the best-first deficit-branching search returns
exactly what checking every copy vector in (size, lexicographic) order
returns, exactly what the level-by-level search it replaced returns, and
exactly what it returns on the round-by-round matcher without its sweep."""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from caphs import exact
from caphs.core import Element, Instance
from caphs.errors import BudgetExceeded
from caphs.exact import solve_exact, solve_exact_weighted
from caphs.feasibility import _augment

from _oracles import augment_by_rounds, enumerate_exact, enumerate_exact_weighted, level_search_exact


@st.composite
def instances(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=3))
    elements = tuple(
        Element(
            id=x,
            cap=draw(st.integers(min_value=0, max_value=4)),
            mult=draw(st.none() | st.integers(min_value=1, max_value=3)),
            weight=draw(st.integers(min_value=0, max_value=9)),
        )
        for x in range(n)
    )
    member_sets = st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=1, max_size=min(d, n), unique=True)
    family = tuple(tuple(s) for s in draw(st.lists(member_sets, max_size=10)))
    return Instance(elements=elements, family=family, d=d)


def _outcome(solver, inst, k, budget):
    try:
        return solver(inst, k, budget)
    except BudgetExceeded:
        return BudgetExceeded


# Level by level, the heavy element 2 alone is the first feasible vector
# reached; the lighter {0, 1} is found only by extending vectors visited
# after it.
LIGHTER_PAIR = Instance(
    elements=(Element(id=0, cap=1, weight=2), Element(id=1, cap=1, weight=3),
              Element(id=2, cap=2, weight=10)),
    family=((0, 2), (1, 2)),
    d=2,
)


@settings(max_examples=150)
@example(LIGHTER_PAIR, 2, None)
@given(
    instances(),
    st.integers(min_value=0, max_value=4),
    st.none() | st.integers(min_value=1, max_value=1100),
)
def test_search_matches_enumeration(inst, k, budget):
    budget = 10**6 if budget is None else budget
    for solver, reference in ((solve_exact, enumerate_exact),
                              (solve_exact_weighted, enumerate_exact_weighted)):
        # Results are frozen dataclasses: solution, assignment and weight
        # must all be equal, or both calls must exceed the budget.
        assert _outcome(solver, inst, k, budget) == _outcome(reference, inst, k, budget)


@settings(max_examples=200, deadline=None)
@example(LIGHTER_PAIR, 2)
@given(instances(max_n=14), st.integers(min_value=0, max_value=6))
def test_search_matches_the_level_by_level_search(inst, k):
    # A budget no instance here reaches, so only the search orders differ.
    budget = 10**9
    for solver, weighted in ((solve_exact, False), (solve_exact_weighted, True)):
        reference = functools.partial(level_search_exact, weighted=weighted)
        assert _outcome(solver, inst, k, budget) == _outcome(reference, inst, k, budget)


def _rounds_on_bought_members(rows, room):
    """augment_by_rounds on the network the search passed before the sweep:
    each row cut to its members with room, and room to those members."""
    return augment_by_rounds([[p for p in row if room[p]] for row in rows],
                             {p: r for p, r in room.items() if r})


@settings(max_examples=150, deadline=None)
@example(LIGHTER_PAIR, 2)
@given(instances(), st.integers(min_value=0, max_value=4))
def test_search_is_unchanged_on_the_round_by_round_matcher(inst, k):
    budget = 10**6
    for solver in (solve_exact, solve_exact_weighted):
        got = _outcome(solver, inst, k, budget)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(exact, "_augment", _rounds_on_bought_members)
            assert _outcome(solver, inst, k, budget) == got


def test_weight_mode_stops_at_its_first_feasible_vector(monkeypatch):
    # The level-by-level search also checked the heavy element 2 alone.  Best
    # first pops the empty vector, {0}, then {0, 1}; only the last serves
    # every set, so only it needs a matching round.
    calls = []
    monkeypatch.setattr(exact, "_augment", lambda *args: calls.append(args) or _augment(*args))
    got = solve_exact_weighted(LIGHTER_PAIR, 2)
    assert (got.solution.copies, got.weight) == ({0: 1, 1: 1}, 5)
    assert len(calls) == 1
