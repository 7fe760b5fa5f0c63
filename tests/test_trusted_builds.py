"""The builders that skip the model checks build what the checks would accept.

mdk_to_cvc, mdk_to_wcvc, csp_to_mdk, csp_to_mdk_covering,
expand_multiplicities, enumerate_tuples and good_tuple_from_opt build their
output through core._trusted, without __post_init__.  Rebuilding that output
with the checking constructors must give an equal object: the same field
types, every set already sorted, and no field the checks would refuse.
"""

import hashlib
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from caphs.approx import (
    AnnotatedTuple,
    Search,
    SolverConfig,
    enumerate_tuples,
    expand_multiplicities,
)
from caphs.core import Element, Instance, generate_instance, serialize_instance
from caphs.reductions import (
    Constraint,
    CspInstance,
    MdkInstance,
    csp_to_mdk,
    csp_to_mdk_covering,
    mdk_to_cvc,
    mdk_to_wcvc,
)

from _oracles import THREE_REGULAR_EDGES

# SHA-256 of serialize_instance of mdk_to_cvc, then mdk_to_wcvc, of each
# seeded_mdk(0..299), as the checked Instance constructor built them.
COVER_CORPUS_DIGEST = "149b199008f083185a7739ccdc8fc9fbf19acbf3563caa0a868a5c4bf38b0903"


def checked_instance(inst: Instance) -> Instance:
    elements = tuple(Element(id=e.id, cap=e.cap, mult=e.mult, weight=e.weight)
                     for e in inst.elements)
    return Instance(elements=elements, family=inst.family, d=inst.d)


def checked_mdk(mdk: MdkInstance) -> MdkInstance:
    return MdkInstance(d=mdk.d, k=mdk.k, target=mdk.target, vectors=mdk.vectors)


def seeded_mdk(seed: int) -> MdkInstance:
    """A small MDK whose target every column sum reaches."""
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    vectors = tuple(tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 6)))
    cols = [sum(col) for col in zip(*vectors)]
    return MdkInstance(d=d, k=rng.randint(0, len(vectors)),
                       target=tuple(rng.randint(0, c) for c in cols), vectors=vectors)


@st.composite
def mdks(draw):
    d = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=6))
    cols = [sum(col) for col in zip(*vectors)]
    target = tuple(draw(st.integers(0, c)) for c in cols)
    return MdkInstance(d=d, k=draw(st.integers(0, len(vectors))), target=target,
                       vectors=tuple(vectors))


@st.composite
def csps(draw):
    k = draw(st.sampled_from(sorted(THREE_REGULAR_EDGES)))
    n = draw(st.integers(1, 3))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    allowed = st.lists(st.sampled_from(pairs), min_size=1, max_size=4).map(tuple)
    cons = tuple(Constraint(u, v, draw(allowed)) for u, v in THREE_REGULAR_EDGES[k])
    return CspInstance(k=k, n=n, constraints=cons)


@given(mdks())
def test_cover_builds_equal_the_checked_builds(mdk):
    for build in (mdk_to_cvc, mdk_to_wcvc):
        inst = build(mdk)
        assert checked_instance(inst) == inst


@given(csps(), st.data())
def test_knapsack_builds_equal_the_checked_builds(csp, data):
    Q = data.draw(st.none() | st.integers(csp.n + 1, csp.n + 5))
    mdk = csp_to_mdk(csp, Q=Q)
    assert checked_mdk(mdk) == mdk
    members = st.lists(st.integers(0, csp.k - 1), min_size=1, max_size=csp.k).map(tuple)
    family = data.draw(st.lists(members, min_size=1, max_size=3))
    mdk = csp_to_mdk_covering(csp, family, Q=Q)
    assert checked_mdk(mdk) == mdk


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(0, 10 ** 6),
       st.booleans(), st.integers(1, 4))
def test_clone_builds_equal_the_checked_builds(n, m, d, seed, unbounded, k):
    params = {"n": n, "m": m, "d": d, "cap_range": (0, 3), "weight_range": (0, 9),
              "mult_range": (1, 3)}
    inst = generate_instance(params, seed)
    if unbounded:
        inst = replace(inst, elements=(replace(inst.elements[0], mult=None),) + inst.elements[1:])
    clones = expand_multiplicities(inst, k).instance
    assert checked_instance(clones) == clones


@settings(deadline=None)  # two parts on four classes of two sets yield 52 488 tuples
@given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3), st.integers(0, 10 ** 6),
       st.data())
def test_trusted_tuples_equal_the_checked_builds(n, m, d, seed, data):
    # S of up to two ids and up to two singleton parts, so the S = () root
    # and the r = 0 leaf are both drawn.  The checked build puts pi in class
    # order; dict equality ignores order, but the replay keys read pi's items
    # as they stand, so the items are compared as a list too.
    params = {"n": n, "m": m, "d": d, "cap_range": (0, 3), "weight_range": (1, 1),
              "mult_range": (1, 1)}
    inst = generate_instance(params, seed)
    ids = data.draw(st.permutations(range(n)))
    s = data.draw(st.integers(0, min(2, n)))
    r = data.draw(st.integers(0 if s else 1, min(2, n - s)))
    S, parts = tuple(ids[:s]), tuple((v,) for v in ids[s : s + r])
    cfg = SolverConfig(tuple_budget=10 ** 9)
    for t in enumerate_tuples(S, parts, Search(inst, s + r, cfg)):
        checked = AnnotatedTuple(S=t.S, parts=t.parts, pi=t.pi, gamma=t.gamma)
        assert vars(t) == vars(checked)
        assert list(t.pi.items()) == list(checked.pi.items())


def test_cover_builds_serialize_as_the_checked_builds_did():
    digest = hashlib.sha256()
    for seed in range(300):
        mdk = seeded_mdk(seed)
        digest.update(serialize_instance(mdk_to_cvc(mdk)).encode())
        digest.update(serialize_instance(mdk_to_wcvc(mdk)).encode())
    assert digest.hexdigest() == COVER_CORPUS_DIGEST
