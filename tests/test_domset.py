import pytest

from caphs.domset import BipartiteGraph, min_dominator_forced
from caphs.errors import PreconditionViolated

from _oracles import (
    construct_small_dominator,
    min_dominator_bruteforce,
    random_bipartite_mindeg2,
)


def test_graph_normalizes_adjacency():
    g = BipartiteGraph(reds=(0, 1, 2), blues=("a",), adj={"a": (2, 0, 2)})
    assert g.adj["a"] == (0, 2)
    with pytest.raises(ValueError):
        BipartiteGraph(reds=(0,), blues=("a",), adj={"a": (5,)})


def test_small_dominator_on_random_graphs():
    for seed in range(60):
        b = 2 + seed % 9
        r = 2 + seed % (2 * b - 3) if 2 * b - 3 > 0 else 2
        blues, reds, adj = random_bipartite_mindeg2(b, min(r, 2 * b - 1), seed)
        g = BipartiteGraph(reds=tuple(reds), blues=tuple(blues), adj=adj)
        D = construct_small_dominator(g)
        assert len(D) <= (len(blues) + len(reds)) // 3
        chosen = set(D)
        for v in blues:
            assert any(x in chosen for x in adj[v])


def test_small_dominator_preconditions():
    g = BipartiteGraph(reds=(0, 1), blues=("a",), adj={"a": (0,)})
    with pytest.raises(PreconditionViolated):
        construct_small_dominator(g)
    # r >= 2b fails the precondition even with degrees in order.
    g2 = BipartiteGraph(reds=(0, 1, 2, 3), blues=("a", "b"), adj={"a": (0, 1), "b": (2, 3)})
    with pytest.raises(PreconditionViolated):
        construct_small_dominator(g2)


def test_small_dominator_is_deterministic():
    blues, reds, adj = random_bipartite_mindeg2(6, 7, 3)
    g = BipartiteGraph(reds=tuple(reds), blues=tuple(blues), adj=adj)
    assert construct_small_dominator(g) == construct_small_dominator(g)


def test_min_dominator_matches_bruteforce():
    for seed in range(40):
        b = 2 + seed % 5
        r = 2 + seed % 5
        blues, reds, adj = random_bipartite_mindeg2(b, r, 1000 + seed)
        g = BipartiteGraph(reds=tuple(reds), blues=tuple(blues), adj=adj)
        got = min_dominator_forced(g, forced=())
        want = min_dominator_bruteforce(reds, blues, adj)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
            chosen = set(got)
            for v in blues:
                assert any(x in chosen for x in adj[v])


def test_min_dominator_respects_forced():
    blues, reds, adj = random_bipartite_mindeg2(4, 5, 9)
    g = BipartiteGraph(reds=tuple(reds), blues=tuple(blues), adj=adj)
    free = min_dominator_forced(g, forced=())
    pick = [x for x in reds if x not in free][:1]
    forced = tuple(pick)
    got = min_dominator_forced(g, forced=forced)
    assert got is not None
    assert set(forced) <= set(got)
    want = min_dominator_bruteforce(reds, blues, adj, forced=set(forced))
    assert len(got) == len(want)


def test_min_dominator_isolated_blue_is_impossible():
    g = BipartiteGraph(reds=(0,), blues=("a", "b"), adj={"a": (0,)})
    assert min_dominator_forced(g, forced=()) is None


def test_min_dominator_rejects_non_red_forced():
    g = BipartiteGraph(reds=(0,), blues=("a",), adj={"a": (0,)})
    with pytest.raises(ValueError):
        min_dominator_forced(g, forced=(7,))
