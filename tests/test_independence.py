from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from caphs.core import Element, Instance, generate_instance
from caphs.errors import QuotaInvalid
from caphs.independence import IndependenceContext, find_independent_set, is_conflicting

from _oracles import conflicting_by_rescan, count_conflicting_pairs

GEN = {
    "n": 10,
    "m": 12,
    "d": 3,
    "cap_range": (1, 3),
    "weight_range": (1, 1),
    "mult_range": (1, 1),
}


def _context(inst, rng, rho, max_s=3):
    ids = [e.id for e in inst.elements]
    s_count = int(rng.integers(1, max_s + 1))
    S = frozenset(int(x) for x in rng.choice(ids, size=s_count, replace=False))
    all_idx = list(range(inst.m))
    rng.shuffle(all_idx)
    stars = {}
    cut = 0
    for s in sorted(S):
        take = int(rng.integers(0, max(1, len(all_idx) // max(1, len(S)))) + 1)
        stars[s] = sum(1 << j for j in all_idx[cut:cut + take])
        cut += take
    return IndependenceContext(stars=stars, rho=rho)  # one star per s, so its keys are S


def test_stars_must_be_disjoint():
    with pytest.raises(ValueError):
        IndependenceContext(stars={1: 0b11, 2: 0b10}, rho=Fraction(1, 4))


def test_is_conflicting_threshold_is_strict():
    # Two elements sharing their single star set: overlap 1, min incidence 1.
    inst = Instance(
        elements=(Element(id=0, cap=1), Element(id=1, cap=1), Element(id=2, cap=1)),
        family=((0, 1), (0, 2)),
        d=2,
    )
    ctx_loose = IndependenceContext(stars={2: 0b11}, rho=Fraction(1, 1))
    # A_2(0) = {0, 1}, A_2(1) = {0}; overlap 1 = 1 * min(2, 1): not strict.
    assert not is_conflicting(ctx_loose, 0, 1, inst)
    ctx_tight = IndependenceContext(stars={2: 0b11}, rho=Fraction(1, 2))
    assert is_conflicting(ctx_tight, 0, 1, inst)


def test_disjoint_incidence_never_conflicts():
    inst = Instance(
        elements=(Element(id=0, cap=1), Element(id=1, cap=1)),
        family=((0,), (1,)),
        d=1,
    )
    ctx = IndependenceContext(stars={0: 0b11}, rho=Fraction(1, 100))
    assert not is_conflicting(ctx, 0, 1, inst)


def test_conflict_count_respects_bound():
    rng = np.random.default_rng(5)
    for trial in range(40):
        inst = generate_instance(GEN, seed=trial)
        rho = Fraction(1, 4) if trial % 2 else Fraction(1, 16)
        ctx = _context(inst, rng, rho)
        X = [e.id for e in inst.elements if e.id not in ctx.stars]
        k = len(ctx.stars)
        count = count_conflicting_pairs(ctx, X, inst, k=k)
        assert Fraction(count) <= Fraction(len(X) * inst.d * k) / rho


def test_find_independent_set_quotas():
    inst = Instance(
        elements=tuple(Element(id=i, cap=1) for i in range(6)),
        family=((0, 1), (2, 3), (4, 5)),
        d=2,
    )
    ctx = IndependenceContext(stars={5: 0b111}, rho=Fraction(1, 4))
    got = find_independent_set(ctx, [(0, 2), (1, 3)], [1, 1], inst)
    assert got is not None
    assert len(got) == 2
    with pytest.raises(QuotaInvalid):
        find_independent_set(ctx, [(0, 2)], [3], inst)
    with pytest.raises(QuotaInvalid):
        find_independent_set(ctx, [(0, 2)], [1, 1], inst)


def test_find_independent_set_exhaustion_returns_none():
    # Both candidates in the part conflict with each other under rho = 1/4,
    # so a quota of 2 cannot be met.
    inst = Instance(
        elements=(Element(id=0, cap=1), Element(id=1, cap=1), Element(id=2, cap=1)),
        family=((0, 1), (0, 1)),
        d=2,
    )
    ctx = IndependenceContext(stars={2: 0b11}, rho=Fraction(1, 4))
    assert is_conflicting(ctx, 0, 1, inst)
    assert find_independent_set(ctx, [(0, 1)], [2], inst) is None
    assert find_independent_set(ctx, [(0, 1)], [1], inst) is not None


def test_chosen_sets_are_pairwise_independent():
    rng = np.random.default_rng(17)
    hits = 0
    for trial in range(40):
        inst = generate_instance(GEN, seed=100 + trial)
        ctx = _context(inst, rng, Fraction(1, 4))
        pool = [e.id for e in inst.elements if e.id not in ctx.stars]
        rng.shuffle(pool)
        parts = [tuple(sorted(pool[:4])), tuple(sorted(pool[4:8]))]
        got = find_independent_set(ctx, parts, [2, 1], inst)
        if got is None:
            continue
        hits += 1
        assert len(set(got) & set(parts[0])) == 2
        assert len(set(got) & set(parts[1])) == 1
        chosen = sorted(got)
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                assert not is_conflicting(ctx, chosen[i], chosen[j], inst)
    assert hits >= 10


@st.composite
def star_cases(draw):
    """(instance, stars, rho): sparse ids, repeated sets, some sets in no star."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=6, unique=True))
    member_lists = st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True)
    family = tuple(draw(st.lists(member_lists, max_size=10)))
    inst = Instance(elements=tuple(Element(id=x, cap=1) for x in ids), family=family, d=3)
    keys = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
    owner = draw(st.lists(st.integers(-1, len(keys) - 1), min_size=inst.m, max_size=inst.m))
    stars = {s: sum(1 << j for j in range(inst.m) if owner[j] == i) for i, s in enumerate(keys)}
    rho = Fraction(draw(st.integers(1, 6)), draw(st.integers(6, 12)))
    return inst, stars, rho


@given(star_cases())
def test_conflicts_match_a_family_rescan(case):
    # Every drawn relation is checked at its rho and at rho = 1, and again with
    # one more star that holds no set.
    inst, stars, rho = case
    spare = max(e.id for e in inst.elements) + 1
    for st_map in (stars, {**stars, spare: 0}):
        for r in (rho, Fraction(1)):
            ctx = IndependenceContext(stars=st_map, rho=r)
            for x in inst.by_id:
                for y in inst.by_id:
                    want = conflicting_by_rescan(ctx, x, y, inst)
                    assert is_conflicting(ctx, x, y, inst) == want
