"""Self-test of the reference checkers: correct outputs pass, corrupted ones fail.

run.py calls run() before every measurement; `python3 perfbench/selftest.py`
runs it alone.  Nothing here needs caphs.
"""

from __future__ import annotations

import copy
import sys

import reference

# Five sets over three elements.  Size optimum 3 ({0: 2, 2: 1}, weight 11);
# weight optimum 9 ({0: 1, 1: 1, 2: 1}), both within k = 3.
INSTANCE = {
    "format": 1,
    "d": 2,
    "elements": [
        {"id": 0, "cap": 2, "mult": 2, "weight": 3},
        {"id": 1, "cap": 1, "mult": 1, "weight": 1},
        {"id": 2, "cap": 2, "mult": 1, "weight": 5},
    ],
    "family": [[0, 1], [0], [1, 2], [2], [0, 2]],
}
BY_SIZE = {"copies": {"0": 2, "2": 1}, "assignment": {"0": 0, "1": 0, "2": 2, "3": 2, "4": 0}}
BY_WEIGHT = {"copies": {"0": 1, "1": 1, "2": 1}, "assignment": {"0": 1, "1": 0, "2": 2, "3": 2, "4": 0}}

SAT = {"format": 1, "k": 2, "n": 2, "constraints": [
    {"u": 0, "v": 1, "allowed": [[1, 2], [2, 2]]},
    {"u": 0, "v": 1, "allowed": [[1, 1], [1, 2]]},
    {"u": 0, "v": 1, "allowed": [[1, 2], [2, 1]]},
]}
UNSAT = {"format": 1, "k": 2, "n": 2, "constraints": [
    {"u": 0, "v": 1, "allowed": [[1, 1], [2, 2]]},
    {"u": 0, "v": 1, "allowed": [[1, 2], [2, 1]]},
    {"u": 0, "v": 1, "allowed": [[1, 1], [1, 2]]},
]}


def _cli_output(sol: dict) -> tuple[int, dict]:
    weights = {e["id"]: e["weight"] for e in INSTANCE["elements"]}
    copies = {int(x): c for x, c in sol["copies"].items()}
    return 0, {
        "found": True,
        "size": sum(copies.values()),
        "weight": sum(weights[x] * c for x, c in copies.items()),
        **sol,
    }


def _mdk_vectors(csp: dict, Q: int) -> list[list[int]]:
    """The csp_to_mdk vector layout, written out for this self-test only."""
    k, cons = csp["k"], csp["constraints"]
    m = len(cons)
    d = k + 5 * m
    vectors = []
    for u in range(k):
        for a in range(1, csp["n"] + 1):
            vec = [0] * d
            vec[u] = 1
            for e, c in enumerate(cons):
                if u in (c["u"], c["v"]):
                    off = k + m + 4 * e + (0 if c["u"] == u else 2)
                    vec[off], vec[off + 1] = Q + a, Q - a
            vectors.append(vec)
    for e, c in enumerate(cons):
        for a, b in c["allowed"]:
            vec = [0] * d
            vec[k + e] = 1
            base = k + m + 4 * e
            vec[base : base + 4] = [Q - a, Q + a, Q - b, Q + b]
            vectors.append(vec)
    return vectors


def _reduce_output() -> dict:
    """A correct chain output for SAT: picks for x0=1, x1=2 and pair (1, 2)."""
    Q = 3
    vectors = _mdk_vectors(SAT, Q)
    # vectors: var0=1, var0=2, var1=1, var1=2, then two pairs per constraint;
    # (1, 2) is pair 0 of constraint 0, pair 1 of constraint 1 and 0 of 2.
    picks = [0, 3, 4, 7, 8]
    return {
        "vectors": vectors,
        "target": [1] * 5 + [2 * Q] * 12,
        "picks": picks,
        "cvc": {"elements": [{"id": 0, "cap": 2, "mult": 1, "weight": 1}], "family": [[0], [0]]},
        "cvc_copies": {"0": 1},
        "cvc_assignment": {"0": 0, "1": 0},
        "wcvc_weights": [len(picks)],
        "unsat_picks": None,
    }


def run() -> list[str]:
    """Failure messages; empty when every checker behaves."""
    fails = []

    def expect(ok: bool, what: str):
        if not ok:
            fails.append(what)

    ref = reference.optima(INSTANCE, 3)
    expect(ref == (3, 9), f"brute-force optima {ref} != (3, 9)")
    outs = [_cli_output(BY_SIZE), _cli_output(BY_SIZE), _cli_output(BY_WEIGHT), _cli_output(BY_WEIGHT)]
    expect(not reference.check_certify(INSTANCE, 3, ref, outs), "correct certify output rejected")

    moved = copy.deepcopy(BY_SIZE)
    moved["assignment"]["1"] = 2  # set 1 is [0]; element 2 is not a member
    expect(not reference.verify_assignment(INSTANCE, moved["copies"], moved["assignment"]),
           "verifier accepts a set moved to a non-member")
    expect(bool(reference.check_certify(INSTANCE, 3, ref, [_cli_output(moved)] + outs[1:])),
           "certify check accepts a set moved to a non-member")

    short = copy.deepcopy(BY_SIZE)
    short["copies"]["0"] = 1  # element 0 then carries 3 sets on capacity 2
    expect(not reference.verify_assignment(INSTANCE, short["copies"], short["assignment"]),
           "verifier accepts a removed copy")
    expect(bool(reference.check_enumerate(INSTANCE, _cli_output(short))),
           "enumerate check accepts a removed copy")

    bigger = {"copies": {"0": 2, "1": 1, "2": 1}, "assignment": BY_SIZE["assignment"]}
    expect(bool(reference.check_certify(INSTANCE, 3, ref, [_cli_output(bigger)] + outs[1:])),
           "certify check accepts an exact size one above the optimum")
    expect(bool(reference.check_certify(INSTANCE, 3, (3, 8), outs)),
           "certify check accepts an exact weight one off the reference")

    expect(reference.csp_satisfiable(SAT) and not reference.csp_satisfiable(UNSAT),
           "brute-force CSP verdicts are wrong")
    good = _reduce_output()
    expect(not reference.check_reduce(SAT, UNSAT, good), "correct reduce_chain output rejected")
    expect(bool(reference.check_reduce(SAT, UNSAT, {**good, "unsat_picks": good["picks"]})),
           "reduce check accepts a solution for the unsatisfiable CSP")
    expect(bool(reference.check_reduce(SAT, UNSAT, {**good, "picks": None})),
           "reduce check accepts no solution for the satisfiable CSP")
    expect(bool(reference.check_reduce(UNSAT, SAT, good)),
           "reduce check accepts swapped sat verdicts")
    expect(bool(reference.check_reduce(SAT, UNSAT, {**good, "picks": [0, 3, 4, 7, 9]})),
           "reduce check accepts picks that miss the target")
    return fails


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print("FAIL:", p)
    print("checker self-test:", "failed" if problems else "ok")
    sys.exit(1 if problems else 0)
