"""Seeded inputs for the benchmark workloads, built without importing caphs.

Every document here is plain JSON data in the formats caphs reads (instance
and CSP documents).  The same seed always gives the same documents.
"""

from __future__ import annotations

import itertools
import random

# (n = m, k, instances per pass) for the certify workload: the baseline rows.
CERTIFY_ROWS = ((8, 3, 12), (10, 4, 8), (12, 5, 1))
ENUMERATE_N = 6
ENUMERATE_K = 2
ENUMERATE_COUNT = 48
# Seed of the instance structure streams.  The benchmark's --seed redraws
# weights and operation order only (see fixed_structure_docs).
STRUCTURE_STREAM = 0
REDUCE_PAIRS = 2
D = 3


def _subsets(n: int, d: int) -> list[tuple[int, ...]]:
    return [s for r in range(1, d + 1) for s in itertools.combinations(range(n), r)]


def instance_doc(rng: random.Random, n: int, caps: tuple[int, int]) -> dict:
    """n elements with caps in the given range, mult 1..2 and weights 1..9,
    and n sets drawn uniformly from the nonempty subsets of size at most D."""
    subsets = _subsets(n, D)
    elements = [
        {"id": i, "cap": rng.randint(*caps), "mult": rng.randint(1, 2), "weight": rng.randint(1, 9)}
        for i in range(n)
    ]
    family = [list(rng.choice(subsets)) for _ in range(n)]
    return {"format": 1, "d": D, "elements": elements, "family": family}


def fixed_structure_docs(seed: int, n: int, caps, count: int, keep) -> list[dict]:
    """The first count instances of a fixed stream that keep() accepts, with
    every weight redrawn from seed.

    The family, caps and multiplicities do not depend on seed.  The cost of
    one solve swings with them by orders of magnitude (an n=12 size-exact
    solve takes 40 ms to 1.8 s, an enumerate solve 20 ms or 2 s), so a
    seeded draw of a few dozen instances would make the pass cost follow the
    draw rather than the program.  keep() must not depend on weights.
    """
    structure = random.Random(STRUCTURE_STREAM * 1_000_003 + n)
    weights = random.Random(seed * 1_000_003 + n)
    docs = []
    while len(docs) < count:
        doc = instance_doc(structure, n, caps)
        if keep(doc):
            for e in doc["elements"]:
                e["weight"] = weights.randint(1, 9)
            docs.append(doc)
    return docs


# The only 3-regular constraint multigraph on two variables: three parallel
# constraints between variables 0 and 1.
_EDGES = ((0, 1), (0, 1), (0, 1))
_PAIRS = [(a, b) for a in (1, 2) for b in (1, 2)]


def csp_doc(rng: random.Random, satisfiable: bool) -> dict:
    """Random 3-regular binary CSP with k=2 variables over values 1..2.

    Every constraint allows exactly two of the four value pairs, so every CSP
    maps to an MDK (and a CVC instance) of the same size.  A satisfiable CSP
    plants one pair in every constraint; an unsatisfiable one is redrawn until
    no pair is allowed by all three constraints.
    """
    while True:
        planted = rng.choice(_PAIRS)
        constraints = []
        for u, v in _EDGES:
            if satisfiable:
                other = rng.choice([p for p in _PAIRS if p != planted])
                allowed = sorted({planted, other})
            else:
                allowed = sorted(rng.sample(_PAIRS, 2))
            constraints.append({"u": u, "v": v, "allowed": [list(p) for p in allowed]})
        common = set.intersection(*(set(map(tuple, c["allowed"])) for c in constraints))
        if satisfiable or not common:
            return {"format": 1, "k": 2, "n": 2, "constraints": constraints}


def reduce_pairs(seed: int) -> list[tuple[dict, dict]]:
    rng = random.Random(seed * 1_000_003 + 2_000)
    return [(csp_doc(rng, True), csp_doc(rng, False)) for _ in range(REDUCE_PAIRS)]
