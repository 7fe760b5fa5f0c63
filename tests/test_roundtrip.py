"""Property tests: every JSON document format reads back what it wrote."""

from hypothesis import example, given
from hypothesis import strategies as st

from caphs.core import (
    Assignment,
    Element,
    Instance,
    Solution,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from caphs.reductions import (
    Constraint,
    CspInstance,
    MdkInstance,
    csp_to_mdk,
    parse_csp,
    parse_mdk,
    serialize_csp,
    serialize_mdk,
)

from _oracles import random_three_regular_csp

ids = st.integers(min_value=-50, max_value=50)
counts = st.integers(min_value=0, max_value=20)


@st.composite
def instances(draw):
    elem_ids = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    d = draw(st.integers(min_value=1, max_value=4))
    elements = tuple(
        Element(
            id=x,
            cap=draw(counts),
            mult=draw(st.none() | st.integers(min_value=1, max_value=5)),
            weight=draw(counts),
        )
        for x in elem_ids
    )
    members = st.lists(
        st.sampled_from(elem_ids), min_size=1, max_size=min(d, len(elem_ids)), unique=True
    )
    family = tuple(tuple(s) for s in draw(st.lists(members, max_size=10)))
    return Instance(elements=elements, family=family, d=d)


@st.composite
def csps(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    values = st.integers(min_value=1, max_value=n)
    constraints = []
    if k >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            u, v = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            allowed = draw(st.lists(st.tuples(values, values), max_size=5))
            constraints.append(Constraint(u=u, v=v, allowed=tuple(allowed)))
    return CspInstance(k=k, n=n, constraints=tuple(constraints))


@st.composite
def mdks(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(counts, min_size=d, max_size=d).map(tuple)
    return MdkInstance(
        d=d,
        k=draw(st.integers(min_value=0, max_value=5)),
        target=draw(row),
        vectors=tuple(draw(st.lists(row, max_size=8))),
    )


@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(serialize_instance(inst)) == inst


@given(
    st.dictionaries(ids, st.integers(min_value=1, max_value=9), max_size=8),
    st.none() | st.dictionaries(st.integers(min_value=0, max_value=30), ids, max_size=8),
)
def test_solution_round_trip(copies, target):
    sol = Solution(copies)
    asg = None if target is None else Assignment(target)
    assert parse_solution(serialize_solution(sol, asg)) == (sol, asg)


@given(csps())
def test_csp_document_round_trip(csp):
    assert parse_csp(serialize_csp(csp)) == csp


@given(mdks())
@example(csp_to_mdk(random_three_regular_csp(4, 3, seed=3, satisfiable=True)))
def test_mdk_document_round_trip(mdk):
    assert parse_mdk(serialize_mdk(mdk)) == mdk
