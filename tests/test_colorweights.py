import math
import sys

import numpy as np
import pytest

from caphs.colorweights import default_trials, random_colorings, weight_estimates
from caphs.core import Element, Instance, generate_instance


def test_colorings_shape_and_determinism():
    ids = list(range(10))
    runs = list(random_colorings(ids, k=3, trials=20, seed=4))
    assert len(runs) == 20
    for parts in runs:
        assert len(parts) == 3
        flat = sorted(x for part in parts for x in part)
        assert flat == ids
    assert list(random_colorings(ids, 3, 20, seed=4)) == runs
    assert list(random_colorings(ids, 3, 20, seed=5)) != runs


def test_colorings_reject_bad_args():
    with pytest.raises(ValueError):
        random_colorings([1], k=0, trials=1, seed=0)
    with pytest.raises(ValueError):
        random_colorings([1], k=1, trials=0, seed=0)


def test_single_class_coloring_is_trivial():
    runs = list(random_colorings([3, 1, 2], k=1, trials=2, seed=0))
    assert runs == [[[3, 1, 2]], [[3, 1, 2]]]


@pytest.mark.parametrize("n,k,trials,seed", [(1, 1, 3, 0), (7, 3, 5, 2), (12, 4, 13, 9), (29, 7, 100, 5)])
def test_lazy_colorings_equal_one_table(n, k, trials, seed):
    # Drawn row by row from caphs.pcg, the rows still equal one numpy (trials, n) draw.
    ids = [10 * i + 3 for i in range(n)]
    table = np.random.default_rng(seed).integers(0, k, (trials, n)).tolist()
    expected = [[[x for x, c in zip(ids, row) if c == part] for part in range(k)] for row in table]
    colorings = random_colorings(ids, k, trials, seed)
    assert len(colorings) == trials
    assert list(colorings) == expected
    assert list(colorings) == expected  # every iteration starts from the seed


def test_one_part_colorings_build_no_stream(monkeypatch):
    # The colorings draw from caphs.pcg, not numpy: with one part they build
    # no stream at all.
    monkeypatch.setattr("caphs.colorweights.Stream", lambda seed: pytest.fail("built a stream"))
    ids = [5, 2, 9]
    assert list(random_colorings(ids, 1, 4, seed=3)) == [[ids]] * 4


def test_lazy_colorings_draw_only_what_is_used():
    # A one-shot (10**12, 50) table could not be allocated.
    first = next(iter(random_colorings(range(50), 3, 10**12, 0)))
    assert sorted(x for part in first for x in part) == list(range(50))


def test_default_trials_formula():
    assert default_trials(30, 3) == math.ceil(math.e ** 3 * 3 * math.log(31))
    assert default_trials(0, 1) >= 1
    assert default_trials(10, 1) == math.ceil(math.e * math.log(11))


def test_default_trials_saturates():
    # The count passes sys.maxsize at k = 40 (n = 12), and the float product
    # overflows from k = 703 (n = 12) or k = 704 (n = 1).
    for n, k in ((12, 40), (12, 702), (12, 703), (1, 704), (5, 10**6)):
        assert default_trials(n, k) == sys.maxsize
    # With n = 0 the product is 0, also where e^k * k alone is inf (k = 709).
    assert default_trials(0, 709) == default_trials(0, 720) == 1


def test_planted_subset_is_separated():
    # With the default trial count a fixed 3-subset of 30 ids lands in three
    # distinct classes in at least one trial, for practically every seed.
    ids = list(range(30))
    target = {4, 11, 27}
    ok = 0
    trials = default_trials(30, 3)
    for seed in range(25):
        runs = random_colorings(ids, 3, trials, seed=seed)
        if any(all(len(set(part) & target) == 1 for part in parts) for parts in runs):
            ok += 1
    assert ok == 25


def test_weight_estimates_doubling():
    def inst_with_weights(ws):
        els = tuple(Element(id=i, cap=1, weight=w) for i, w in enumerate(ws))
        fam = tuple((i,) for i in range(len(ws)))
        return Instance(elements=els, family=fam, d=1)

    assert weight_estimates(inst_with_weights([1, 1, 1, 1, 1])) == [1, 2, 4, 5]
    assert weight_estimates(inst_with_weights([7])) == [7]
    assert weight_estimates(inst_with_weights([1, 8])) == [1, 2, 4, 8, 9]


def test_weight_estimates_reject_an_instance_without_elements():
    with pytest.raises(ValueError, match="^instance has no elements$"):
        weight_estimates(Instance(elements=(), family=(), d=1))


def test_weight_estimates_cover_every_optimum():
    # Some estimate is within a factor two above any conceivable total.
    inst = generate_instance(
        {"n": 6, "m": 6, "d": 2, "cap_range": (1, 2), "weight_range": (1, 9),
         "mult_range": (1, 2)},
        seed=12,
    )
    k = 3
    ests = weight_estimates(inst)
    w_min = min(e.weight for e in inst.elements)
    top = sorted((e.weight for e in inst.elements), reverse=True)
    w_max = sum(top[:k]) if len(top) >= k else sum(top)
    assert ests[0] == w_min
    assert ests[-1] >= w_max
    for w in range(w_min, w_max + 1):
        assert any(w <= est <= 2 * w for est in ests)
