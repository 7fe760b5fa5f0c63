"""(S, pi, rho)-independence: the conflict predicate and greedy selection.

Two elements conflict when, in some star A_s, the sets containing both make up
more than a rho fraction of the smaller of their incidence counts.  Each count
is a popcount: an element's Instance.hits mask cut by the star's set mask.
rho is a Fraction and every comparison is done by cross-multiplication, so
there are no floating-point tolerances anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Instance
from .errors import QuotaInvalid


@dataclass(frozen=True)
class IndependenceContext:
    """The (S, pi, rho) conflict relation on one instance: stars maps each s to
    the bitmask of its set indices; conflicts caches the relation per pair."""

    stars: dict[int, int]
    rho: Fraction
    conflicts: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        seen = 0
        for mask in self.stars.values():
            if seen & mask:
                raise ValueError("two stars share a set index")
            seen |= mask


def is_conflicting(ctx: IndependenceContext, x: int, y: int, inst: Instance) -> bool:
    """True iff some star witnesses |A_s(x) ∩ A_s(y)| > rho * min(|A_s(x)|, |A_s(y)|)."""
    hx, hy = inst.hits[x], inst.hits[y]
    num, den = ctx.rho.numerator, ctx.rho.denominator
    for star in ctx.stars.values():
        both = (hx & hy & star).bit_count()
        if both and both * den > num * min((hx & star).bit_count(), (hy & star).bit_count()):
            return True
    return False


def find_independent_set(ctx: IndependenceContext, parts, quotas, inst: Instance):
    """Greedy pairwise-independent pick meeting per-part quotas.

    Parts are processed by ascending index; within a part, candidates by
    ascending conflict degree (over the union of all parts), ties by id.
    Returns the chosen ids as a sorted tuple, or None when some part runs out
    before its quota is met.

    Raises:
        QuotaInvalid: a quota is outside {1, 2} or the lists have different
            lengths.
    """
    if len(quotas) != len(parts):
        raise QuotaInvalid("one quota per part is required")
    for q in quotas:
        if q not in (1, 2):
            raise QuotaInvalid(f"quota {q} not in {{1, 2}}")
    pool = sorted({v for part in parts for v in part})
    cache = ctx.conflicts

    def conflicting(a: int, b: int) -> bool:
        key = (a, b) if a < b else (b, a)
        got = cache.get(key)
        if got is None:
            got = cache[key] = is_conflicting(ctx, key[0], key[1], inst)
        return got

    degree = dict.fromkeys(pool, 0)
    for a, b in itertools.combinations(pool, 2):  # each unordered pair once, a < b
        if conflicting(a, b):
            degree[a] += 1
            degree[b] += 1
    chosen: list[int] = []
    for part, quota in zip(parts, quotas):
        need = quota
        for v in sorted(part, key=lambda v: (degree[v], v)):
            if need == 0:
                break
            if all(not conflicting(v, u) for u in chosen):
                chosen.append(v)
                need -= 1
        if need > 0:
            return None
    return tuple(sorted(chosen))
