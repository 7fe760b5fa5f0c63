"""Acceptance gate: one test per criterion, one PASS line each (pytest -s).

Every test is deterministic; random draws all come from seeded generators.
Timed criteria measure wall-clock and assert the stated limit.
"""

import itertools
import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from caphs.approx import (
    ENUMERATE,
    GUIDED,
    AnnotatedTuple,
    Search,
    SolverConfig,
    bucket_values_upto,
    candidate_set,
    ceil43,
    good_tuple_from_opt,
    info_tuple,
    solve_annotated,
    solve_approx,
    solve_extended,
)
from caphs.core import Solution, equivalence_classes, generate_instance, stars
from caphs.domset import BipartiteGraph, min_dominator_forced
from caphs.errors import BudgetExceeded
from caphs.exact import solve_exact, solve_exact_weighted
from caphs.feasibility import assignment_ok, check_feasible
from caphs.independence import IndependenceContext
from caphs.reductions import (
    MdkInstance,
    build_covering_family,
    csp_to_mdk,
    mdk_to_cvc,
    solve_mdk_exact,
    verify_covering_family,
)

from _oracles import (
    brute_force_assignment,
    construct_small_dominator,
    count_conflicting_pairs,
    min_dominator_bruteforce,
    mdk_min_bruteforce,
    random_bipartite_mindeg2,
    random_three_regular_csp,
    verify_mdk,
)


def test_criterion_01_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checks = 0
    for seed in range(200):
        params = {
            "n": 3 + seed % 4,
            "m": 2 + seed % 7,
            "d": 1 + seed % 3,
            "cap_range": (1, 3),
            "weight_range": (1, 1),
            "mult_range": (1, 2),
        }
        inst = generate_instance(params, seed=seed)
        for _ in range(20):
            copies = {}
            for e in inst.elements:
                if rng.random() < 0.5:
                    copies[e.id] = int(rng.integers(1, e.mult + 1))
            sol = Solution(copies=copies)
            flow = check_feasible(inst, sol)
            brute = brute_force_assignment(inst, sol)
            assert (flow is None) == (brute is None)
            if flow is not None:
                assert assignment_ok(inst, sol, flow)
                assert assignment_ok(inst, sol, brute)
            checks += 1
    elapsed = time.perf_counter() - t0
    assert checks == 4000
    assert elapsed < 60
    print(f"criterion 01 oracle agreement: PASS ({checks} checks, {elapsed:.1f}s)")


def _exact_size_corpus(k: int, m: int, count: int):
    out = []
    seed = 0
    while len(out) < count and seed < 2000:
        params = {
            "n": 6,
            "m": m,
            "d": 3,
            "cap_range": (1, 3),
            "weight_range": (1, 1),
            "mult_range": (1, 2),
        }
        inst = generate_instance(params, seed=seed)
        got = solve_exact(inst, k)
        if got is not None and got.solution.size() == k:
            out.append(inst)
        seed += 1
    assert len(out) == count
    return out


def test_criterion_02_guided_four_thirds():
    t0 = time.perf_counter()
    corpus = _exact_size_corpus(2, 5, 50) + _exact_size_corpus(3, 8, 50)
    ks = [2] * 50 + [3] * 50
    for inst, k in zip(corpus, ks):
        res = solve_approx(inst, k, mode=GUIDED)
        assert res is not None
        assert assignment_ok(inst, res.solution, res.assignment)
        assert res.solution.size() <= ceil43(k)
        assert res.solution.size() <= k  # branch path at default constants
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(f"criterion 02 guided 4/3 guarantee: PASS (100 instances, {elapsed:.1f}s)")


def test_criterion_03_weighted_guarantee():
    collected = 0
    seed = 0
    while collected < 50 and seed < 2000:
        params = {
            "n": 6,
            "m": 7,
            "d": 3,
            "cap_range": (1, 3),
            "weight_range": (1, 9),
            "mult_range": (1, 2),
        }
        inst = generate_instance(params, seed=seed)
        seed += 1
        exact = solve_exact_weighted(inst, 3)
        if exact is None:
            continue
        cfg = SolverConfig(epsilon=Fraction(1, 2))
        res = solve_approx(inst, 3, cfg=cfg, mode=GUIDED)
        assert res is not None
        assert assignment_ok(inst, res.solution, res.assignment)
        assert Fraction(res.weight) <= Fraction(5, 2) * exact.weight
        collected += 1
    assert collected == 50
    print(f"criterion 03 weighted 2.5x guarantee: PASS (50 instances)")


def _random_annotated_tuple(inst, k, rng):
    ids = [int(x) for x in rng.permutation([e.id for e in inst.elements])]
    scount = int(rng.integers(0, k))
    S = tuple(sorted(ids[:scount]))
    pool = ids[scount:]
    parts = []
    at = 0
    for _ in range(k - scount):
        take = int(rng.integers(1, 4))
        parts.append(tuple(sorted(pool[at : at + take])))
        at += take
    classes = equivalence_classes(inst, S)
    pi = {}
    if S:
        for cls in classes:
            pi[cls] = min(S) if cls == () else int(rng.choice(sorted(S)))
    gamma = []
    for _ in parts:
        row = []
        if rng.random() < 0.6:
            cls = list(classes)[int(rng.integers(0, len(classes)))]
            row.append((cls, int(rng.integers(1, 3))))
        gamma.append(row)
    return AnnotatedTuple(S=S, parts=tuple(parts), pi=pi, gamma=gamma)


def _optimum_seeded_tuple(inst, k, cfg, rng):
    opt = solve_exact(inst, k)
    if opt is None or opt.solution.size() != k:
        return None
    asg = check_feasible(inst, opt.solution)
    ids = sorted(opt.solution.copies)
    order = [ids[int(i)] for i in rng.permutation(len(ids))]
    scount = int(rng.integers(0, k + 1))
    S = tuple(sorted(order[:scount]))
    others = [e.id for e in inst.elements if e.id not in set(ids)]
    rng.shuffle(others)
    parts = []
    at = 0
    for rep in order[scount:]:
        extra = int(rng.integers(0, 3))
        parts.append(tuple(sorted([rep] + others[at : at + extra])))
        at += extra
    t = good_tuple_from_opt(S, tuple(parts), opt.solution, asg, Search(inst, k, cfg))
    # Delete a demand picked by part, then by the class's first occurrence in the family.
    classes = equivalence_classes(inst, t.S)
    keys = [(i, cls) for i, row in enumerate(t.gamma) for cls in classes if cls in dict(row)]
    if keys and rng.random() < 0.5:
        i, cls = keys[int(rng.integers(0, len(keys)))]
        gamma = [[(c, g) for c, g in row if (j, c) != (i, cls)] for j, row in enumerate(t.gamma)]
        t = AnnotatedTuple(S=t.S, parts=t.parts, pi=t.pi, gamma=gamma)
    return t


def test_criterion_04_stress_soundness():
    rng = np.random.default_rng(4)
    returns = 0
    for trial in range(100):
        params = {
            "n": 9,
            "m": 4 + trial % 3,
            "d": 3,
            "cap_range": (1, 3),
            "weight_range": (1, 1),
            "mult_range": (1, 1),
        }
        inst = generate_instance(params, seed=trial)
        k = 2 + trial % 2
        cfg = SolverConfig(
            rho=Fraction(1, 4),
            top_t=2,
            small_class_threshold=4,
            tuple_budget=2000,
            recursion_budget=400,
        )
        t = None
        if trial % 2 == 1:
            t = _optimum_seeded_tuple(inst, k, cfg, rng)
        if t is None:
            t = _random_annotated_tuple(inst, k, rng)
        r = t.r
        tau1 = {s: int(rng.integers(0, r)) for s in t.S} if r else {}
        tau2 = {}
        for s in t.S:
            if r >= 2:
                v = int(rng.integers(0, r - 1))
                if v >= tau1[s]:
                    v += 1
                tau2[s] = v
            elif r == 1:
                tau2[s] = 0
        sols = []
        ctx = Search(inst, k, cfg)
        res = solve_extended(t, tau1, tau2, candidate_set(t, tau1, info_tuple(t, ctx), ctx), ctx)
        if res.solution is not None:
            sols.append(res.solution)
        try:
            got = solve_annotated(t, ctx)
            if got is not None:
                sols.append(got)
        except BudgetExceeded:
            pass
        for sol in sols:
            returns += 1
            assert check_feasible(inst, sol) is not None
            assert sol.size() <= ceil43(k)
            for part in t.parts:
                assert len(set(sol.copies) & set(part)) <= 2
    assert returns >= 10  # the soundness check must not be vacuous
    print(f"criterion 04 stress soundness: PASS ({returns} returned solutions checked)")


def test_criterion_05_dominator_bound():
    exact_checked = 0
    for trial in range(200):
        b = 2 + trial % 11
        rmax = min(12, 2 * b - 1)
        r = 2 + trial % (rmax - 1) if rmax > 2 else 2
        blues, reds, adj = random_bipartite_mindeg2(b, r, seed=trial)
        g = BipartiteGraph(reds=tuple(reds), blues=tuple(blues), adj=adj)
        D = construct_small_dominator(g)
        chosen = set(D)
        for v in blues:
            assert any(x in chosen for x in adj[v])
        assert len(D) <= (b + r) // 3
        if r <= 8:
            best = min_dominator_bruteforce(reds, blues, adj)
            assert best is not None
            assert len(best) <= len(D)
            exact_checked += 1
    print(
        "criterion 05 dominator bound: PASS "
        f"(200 graphs, {exact_checked} exact cross-checks)"
    )


def test_criterion_06_conflict_count_bound():
    rng = np.random.default_rng(6)
    for trial in range(200):
        params = {
            "n": 44,
            "m": 16,
            "d": 3,
            "cap_range": (1, 3),
            "weight_range": (1, 1),
            "mult_range": (1, 1),
        }
        inst = generate_instance(params, seed=trial)
        k = 1 + trial % 4
        rho = Fraction(1, 4) if trial % 2 else Fraction(1, 16)
        ids = [int(x) for x in rng.permutation([e.id for e in inst.elements])]
        S = sorted(ids[:k])
        xsize = 10 + trial % 31
        X = ids[k : k + xsize]
        classes = equivalence_classes(inst, S)
        pi = {cls: int(rng.choice(S)) for cls in classes if cls}
        star_map = stars(classes, pi)
        ctx = IndependenceContext(stars=star_map, rho=rho)
        count = count_conflicting_pairs(ctx, X, inst, k=k)
        assert Fraction(count) <= Fraction(len(X) * inst.d * k) / rho
    print("criterion 06 conflict-pair bound: PASS (200 contexts)")


def test_criterion_07_tau_distinct_dominator():
    rng = np.random.default_rng(7)
    for trial in range(500):
        k = int(rng.integers(3, 10))
        b = int(rng.integers(1, min(6, k - 2) + 1))
        r = k - b
        blues = tuple(f"s{i}" for i in range(b))
        tau1 = {}
        tau2 = {}
        for s in blues:
            first = int(rng.integers(0, r))
            second = int(rng.integers(0, r - 1))
            if second >= first:
                second += 1
            tau1[s], tau2[s] = first, second
        g = BipartiteGraph(
            reds=tuple(range(r)),
            blues=blues,
            adj={s: (tau1[s], tau2[s]) for s in blues},
        )
        forced = frozenset(
            i for i in range(r) if sum(1 for s in blues if tau1[s] == i) >= 2
        )
        D = min_dominator_forced(g, forced)
        assert D is not None
        assert len(D) <= k // 3
    print("criterion 07 tau-distinct dominator: PASS (500 pairs)")


def test_criterion_08_csp_mdk_gap():
    t0 = time.perf_counter()
    for idx in range(20):
        k = 2 if idx % 2 == 0 else 4
        n = 2 + idx % 2
        csp = random_three_regular_csp(k, n, seed=idx, satisfiable=True)
        mdk = csp_to_mdk(csp)
        picks = solve_mdk_exact(mdk)
        assert picks is not None
        assert len(picks) == mdk.k  # 2.5k vectors
        assert verify_mdk(mdk, picks)
    for idx in range(20):
        k = 2 if idx % 2 == 0 else 4
        n = 2 + idx % 2
        csp = random_three_regular_csp(k, n, seed=100 + idx, satisfiable=False)
        assert solve_mdk_exact(csp_to_mdk(csp)) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"criterion 08 csp-mdk gap: PASS (20 sat + 20 unsat, {elapsed:.1f}s)")


def test_criterion_09_mdk_cvc_equivalence():
    rng = np.random.default_rng(9)
    done = 0
    while done < 20:
        d = int(rng.integers(2, 5))
        nvec = int(rng.integers(4, 7))
        vectors = tuple(
            tuple(int(x) for x in rng.integers(0, 3, size=d)) for _ in range(nvec)
        )
        plant = rng.choice(nvec, size=int(rng.integers(1, 4)), replace=False)
        target = tuple(
            max(0, sum(vectors[j][i] for j in plant) - int(rng.integers(0, 2)))
            for i in range(d)
        )
        opt = mdk_min_bruteforce(vectors, target)
        if opt is None or not 1 <= len(opt) <= 3:
            continue
        s_star = len(opt)
        mdk = MdkInstance(d=d, k=s_star, target=target, vectors=vectors)
        inst = mdk_to_cvc(mdk)
        D = list(range(nvec, nvec + d))
        done += 1

        # Forward: every minimum MDK solution + forced vertices is feasible.
        forward = 0
        for combo in itertools.combinations(range(nvec), s_star):
            if not verify_mdk(mdk, combo):
                continue
            sol = Solution({v: 1 for v in combo} | {i: 1 for i in D})
            assert sol.size() == mdk.k + mdk.d
            assert check_feasible(inst, sol) is not None
            forward += 1
        assert forward >= 1

        # Backward: any feasible set of size <= k+d contains every forced
        # vertex (the (d_i, d'_i) pair sets leave no alternative), and its
        # U-restriction must verify in the MDK.
        pool = [e.id for e in inst.elements if e.id not in D]
        feasible_seen = 0
        for extra in range(0, s_star + 1):
            for combo in itertools.combinations(pool, extra):
                sol = Solution({v: 1 for v in combo} | {i: 1 for i in D})
                if check_feasible(inst, sol) is None:
                    continue
                feasible_seen += 1
                assert verify_mdk(mdk, [v for v in combo if v < nvec])
        assert feasible_seen >= 1

        # Spot-check the forcing argument: dropping a forced vertex is fatal.
        for _ in range(10):
            size = int(rng.integers(1, mdk.k + mdk.d + 1))
            combo = [int(x) for x in rng.choice(inst.n, size=size, replace=False)]
            if set(D) <= set(combo):
                continue
            assert check_feasible(inst, Solution({v: 1 for v in combo})) is None
    print("criterion 09 mdk-cvc equivalence: PASS (20 instances, both directions)")


def test_criterion_10_bucket_sandwich():
    t0 = time.perf_counter()
    for k in range(1, 7):
        base = 1 + Fraction(1, 3 * k)
        # The rungs up to c are a prefix of the rungs up to 10^4, so the top
        # rung g up to c (the demand a coverage of c buckets to) is read here.
        ladder = bucket_values_upto(10 ** 4, base)
        for c in range(1, 10 ** 4 + 1):
            g = ladder[bisect_right(ladder, c) - 1]
            assert g <= c < base * g
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    print(f"criterion 10 bucket sandwich: PASS (60000 checks, {elapsed:.1f}s)")


def test_criterion_11_covering_family():
    for n in (5, 6):
        successes = 0
        for seed in range(20):
            fam = build_covering_family(
                n, Fraction(1, 2), Fraction(1, 2), r=4, seed=seed, trials=50
            )
            if fam is None:
                continue
            if verify_covering_family(fam, n, Fraction(1, 2), Fraction(1, 2)):
                successes += 1
        assert successes >= 19, f"n={n}: {successes}/20"
        print(f"criterion 11 covering family: PASS (n={n}, {successes}/20 seeds)")


def test_criterion_12_enumerate_four_thirds_at_k3():
    """Enumerate mode, with budgets that never fire, finds a feasible
    solution of size at most ceil(4 * 3 / 3) = 4 wherever one of size at
    most 3 exists.  k = 1 is the open exception, the ROADMAP's defect "guided
    mode loses an existing optimum at ranked roots": on an instance whose only
    small optimum needs a ranked root part, enumerate finds nothing at k = 1."""
    t0 = time.perf_counter()
    cfg = SolverConfig(tuple_budget=10**15, recursion_budget=10**15)
    checked = 0
    for n in (5, 6, 7):
        for weights in ((1, 1), (1, 9)):
            for seed in range(25):
                params = {"n": n, "m": n, "d": 3, "cap_range": (1, 3),
                          "weight_range": weights, "mult_range": (1, 2)}
                inst = generate_instance(params, seed=seed)
                if solve_exact(inst, 3) is None:
                    continue
                res = solve_approx(inst, 3, cfg, mode=ENUMERATE)
                assert res is not None, (params, seed)
                assert check_feasible(inst, res.solution) is not None, (params, seed)
                assert res.solution.size() <= 4, (params, seed)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 97
    assert elapsed < 60
    print(f"criterion 12 enumerate 4/3 at k = 3: PASS ({checked} instances, {elapsed:.1f}s)")
