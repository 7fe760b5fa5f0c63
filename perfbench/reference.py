"""Reference computations and output checks, written apart from caphs.

Nothing here imports caphs: optima come from plain enumeration with a
backtracking assignment, CSP satisfiability from trying every assignment, and
MDK picks are decoded from the documented vector layout.  Each check_* function
returns a list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools


def _elements(doc: dict) -> dict:
    return {e["id"]: e for e in doc["elements"]}


def verify_assignment(doc: dict, copies: dict, assignment: dict) -> bool:
    """Every set goes to a bought member and each load is at most cap * copies.

    copies maps element id -> copy count and assignment maps set index ->
    element id (JSON string keys are accepted for both).
    """
    els = _elements(doc)
    copies = {int(x): c for x, c in copies.items()}
    assignment = {int(j): x for j, x in assignment.items()}
    for x, c in copies.items():
        if x not in els or not isinstance(c, int) or c < 1:
            return False
        mult = els[x]["mult"]
        if mult is not None and c > mult:
            return False
    if set(assignment) != set(range(len(doc["family"]))):
        return False
    loads: dict = {}
    for j, x in assignment.items():
        if x not in doc["family"][j] or copies.get(x, 0) < 1:
            return False
        loads[x] = loads.get(x, 0) + 1
    return all(load <= els[x]["cap"] * copies[x] for x, load in loads.items())


def _assignable(family, budget: list[int]) -> bool:
    """Backtracking: can every set take one unit from a member's budget?

    family holds each set as a tuple of element positions; budget[i] is
    cap * copies of the element at position i.
    """
    order = sorted(range(len(family)), key=lambda j: sum(1 for i in family[j] if budget[i] > 0))

    def go(pos: int) -> bool:
        if pos == len(order):
            return True
        for i in family[order[pos]]:
            if budget[i] > 0:
                budget[i] -= 1
                if go(pos + 1):
                    return True
                budget[i] += 1
        return False

    return go(0)


def _vectors(limits, total: int, prefix=()):
    if len(prefix) == len(limits):
        if total == 0:
            yield prefix
        return
    for c in range(min(limits[len(prefix)], total) + 1):
        yield from _vectors(limits, total - c, prefix + (c,))


def optima(doc: dict, k: int) -> tuple[int | None, int | None]:
    """(minimum size, minimum weight) over feasible solutions of size <= k.

    Both are None when no solution of size at most k exists.
    """
    els = sorted(doc["elements"], key=lambda e: e["id"])
    pos = {e["id"]: i for i, e in enumerate(els)}
    limits = [k if e["mult"] is None else min(k, e["mult"]) for e in els]
    caps = [e["cap"] for e in els]
    weights = [e["weight"] for e in els]
    family = [tuple(pos[x] for x in s) for s in doc["family"]]
    m = len(family)
    best_size = best_weight = None
    for total in range(k + 1):
        for vec in _vectors(limits, total):
            if sum(c * v for c, v in zip(caps, vec)) < m:
                continue
            if any(all(vec[i] == 0 for i in s) for s in family):
                continue
            w = sum(wt * v for wt, v in zip(weights, vec))
            if best_weight is not None and w >= best_weight:
                continue
            if _assignable(family, [c * v for c, v in zip(caps, vec)]):
                if best_size is None:
                    best_size = total
                best_weight = w
    return best_size, best_weight


def csp_satisfiable(csp: dict) -> bool:
    """Try every assignment of values 1..n to the k variables."""
    allowed = [(c["u"], c["v"], {tuple(p) for p in c["allowed"]}) for c in csp["constraints"]]
    return any(
        all((vals[u], vals[v]) in ok for u, v, ok in allowed)
        for vals in itertools.product(range(1, csp["n"] + 1), repeat=csp["k"])
    )


def decode_picks(csp: dict, vectors, picks) -> dict | None:
    """Variable assignment named by the picked variable vectors, or None.

    In the csp_to_mdk layout, dimension u < k marks the vector of variable u,
    and each incident constraint block holds the pair (Q + a, Q - a), so the
    value is half the difference of the first nonzero pair past the guards.
    """
    k, m = csp["k"], len(csp["constraints"])
    values: dict = {}
    for j in picks:
        vec = vectors[j]
        guards = [u for u in range(k) if vec[u] == 1]
        if not guards:
            continue
        if len(guards) != 1 or guards[0] in values:
            return None
        x = next(i for i in range(k + m, len(vec)) if vec[i])
        values[guards[0]] = (vec[x] - vec[x + 1]) // 2
    return values if len(values) == k else None


def check_certify(doc: dict, k: int, ref: tuple, outputs: list) -> list[str]:
    """outputs: (exit code, stdout JSON) for solve-exact, solve-approx,
    solve-exact --weighted and solve-approx --epsilon 1/2, in that order."""
    size_opt, weight_opt = ref
    found = size_opt is not None
    errs = []
    names = ("exact", "guided", "exact-weighted", "epsilon")
    for name, (rc, out) in zip(names, outputs):
        if out.get("found") != found or rc != (0 if found else 1):
            errs.append(f"{name}: found={out.get('found')} rc={rc}, reference found={found}")
            continue
        if not found:
            continue
        copies = {int(x): c for x, c in out["copies"].items()}
        if not verify_assignment(doc, copies, out["assignment"]):
            errs.append(f"{name}: assignment fails the verifier")
        weight = sum(_elements(doc)[x]["weight"] * c for x, c in copies.items())
        if out["size"] != sum(copies.values()) or out["weight"] != weight:
            errs.append(f"{name}: reported size/weight disagree with its copies")
    if found and not errs:
        if outputs[0][1]["size"] != size_opt:
            errs.append(f"exact size {outputs[0][1]['size']} != reference {size_opt}")
        if outputs[1][1]["size"] > (4 * k + 2) // 3:
            errs.append(f"guided size {outputs[1][1]['size']} > ceil(4k/3)")
        if outputs[2][1]["weight"] != weight_opt:
            errs.append(f"exact weight {outputs[2][1]['weight']} != reference {weight_opt}")
        if 2 * outputs[3][1]["weight"] > 5 * weight_opt:
            errs.append(f"epsilon weight {outputs[3][1]['weight']} > 5/2 x {weight_opt}")
    return errs


def check_enumerate(doc: dict, output: tuple) -> list[str]:
    rc, out = output
    if rc != 0 or not out.get("found"):
        return [f"no solution (rc={rc}) where the reference has one of size <= 2"]
    copies = {int(x): c for x, c in out["copies"].items()}
    errs = []
    if not verify_assignment(doc, copies, out["assignment"]):
        errs.append("assignment fails the verifier")
    if sum(copies.values()) > 3:
        errs.append(f"size {sum(copies.values())} > 3")
    return errs


def check_reduce(sat: dict, unsat: dict, out: dict) -> list[str]:
    """out: the satisfiable CSP's MDK (vectors, target), its picks, the CVC
    instance, the CVC solution with its assignment and the WCVC weights, plus
    the unsatisfiable CSP's picks."""
    errs = []
    picks = out["picks"]
    if picks is None:
        return ["no MDK solution for the satisfiable CSP"]
    if len(picks) * 2 != 5 * sat["k"]:
        errs.append(f"{len(picks)} MDK picks, expected 2.5k = {5 * sat['k'] / 2}")
    vectors, target = out["vectors"], out["target"]
    sums = [sum(vectors[j][i] for j in picks) for i in range(len(target))]
    if any(s < t for s, t in zip(sums, target)):
        errs.append("MDK picks do not cover the target")
    values = decode_picks(sat, vectors, picks)
    if values is None or not all(
        (values[c["u"]], values[c["v"]]) in {tuple(p) for p in c["allowed"]}
        for c in sat["constraints"]
    ):
        errs.append(f"MDK picks decode to {values}, which does not satisfy the CSP")
    if out["cvc_assignment"] is None or not verify_assignment(
        out["cvc"], out["cvc_copies"], out["cvc_assignment"]
    ):
        errs.append("CVC solution from the MDK picks is not feasible")
    weights = out["wcvc_weights"]
    wcvc_weight = sum(weights[int(x)] * c for x, c in out["cvc_copies"].items())
    if wcvc_weight != len(picks):
        errs.append(f"WCVC weight {wcvc_weight} != {len(picks)} picks")
    if out["unsat_picks"] is not None:
        errs.append("solve_mdk_exact found a solution for the unsatisfiable CSP")
    if csp_satisfiable(unsat):
        errs.append("brute force finds the 'unsatisfiable' CSP satisfiable")
    if not csp_satisfiable(sat):
        errs.append("brute force finds the 'satisfiable' CSP unsatisfiable")
    return errs
