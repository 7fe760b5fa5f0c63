"""caphs command line: check, solve, certify, generate, reduce, bench.

Results go to stdout as JSON (or a CSV row for certify/bench), diagnostics
to stderr.  Exit codes: 0 when something was found or the input is feasible,
1 when nothing was found or the input is infeasible, 2 on any error; errors
are reported as an {"error": {...}} object on stdout, and a solve, certify or
covering reduction that finds nothing prints {"found": false}.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .approx import ENUMERATE, GUIDED, SolverConfig, _guided, ceil43, solve_approx
from .core import (
    generate_instance,
    json_text,
    parse_instance,
    parse_solution,
    serialize_instance,
    solution_document,
)
from .errors import CaphsError, InvariantViolated, UsageError, ValidationError
from .exact import solve_exact, solve_exact_weighted
from .feasibility import assignment_ok, check_feasible
from .reductions import (
    build_covering_family,
    csp_to_mdk,
    csp_to_mdk_covering,
    mdk_to_cvc,
    mdk_to_wcvc,
    parse_csp,
    parse_mdk,
    serialize_mdk,
)

CSV_COLUMNS = (
    "path,k,seed,exact_size,exact_weight,approx_size,approx_weight,"
    "size_ratio,weight_ratio,size_bound"
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(obj) -> None:
    sys.stdout.write(json_text(obj))


def _ratio(a: int, b: int) -> float:
    if b == 0:
        return 1.0 if a == 0 else float("inf")
    return a / b


def cmd_check(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol, stored = parse_solution(_read(args.solution))
    try:
        asg = check_feasible(inst, sol)
    except ValidationError as exc:
        _emit({"feasible": False, "size": sol.size(), "reason": str(exc)})
        return 1
    out = {
        "feasible": asg is not None,
        "size": sol.size(),
        "weight": sol.weight(inst),
    }
    if asg is not None:
        out["assignment"] = solution_document(sol, asg)["assignment"]
    if stored is not None:
        out["stored_assignment_valid"] = assignment_ok(inst, sol, stored)
    _emit(out)
    return 0 if asg is not None else 1


def cmd_solve_exact(args) -> int:
    inst = parse_instance(_read(args.instance))
    res = (solve_exact_weighted if args.weighted else solve_exact)(inst, args.k)
    return _emit_result(res)


def _emit_result(res, **bounds) -> int:
    """Print a solve result and return its exit code: {"found": false} and 1
    for None, else found, size, weight, the bounds, copies and assignment, 0."""
    if res is None:
        _emit({"found": False})
        return 1
    sol = res.solution
    head = {"found": True, "size": sol.size(), "weight": res.weight, **bounds}
    _emit({**head, **solution_document(sol, res.assignment)})
    return 0


def fraction(text: str) -> Fraction:
    """Parse a fraction-valued option such as 1/2 or 0.25.

    Raises ValueError for text that is not a fraction, 1/0 included, so a bad
    value is reported like any other bad option value.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


# What --override-const may set, in help order, each with the parser of its value.
_OVERRIDES = dict(rho=fraction, top_t=int, small_class_threshold=int,
                  bucket_base=fraction, max_coloring_trials=int)


def _config_from(args) -> SolverConfig:
    """One SolverConfig from the options; of repeated overrides the last wins."""
    fields = {"seed": args.seed, "epsilon": args.epsilon}
    if args.budget is not None:
        fields.update(tuple_budget=args.budget, recursion_budget=args.budget)
    for kv in args.override_const or []:
        key, _, val = kv.partition("=")
        if key not in _OVERRIDES:
            raise ValueError(f"unknown override {key!r}")
        fields[key] = _OVERRIDES[key](val)
    return SolverConfig(**fields)


def cmd_solve_approx(args) -> int:
    inst = parse_instance(_read(args.instance))
    cfg = _config_from(args)
    try:  # checked before solving; the config has rejected an epsilon <= 0
        bound = 4 / 3 if cfg.epsilon is None else float(2 + cfg.epsilon)
    except OverflowError:
        raise ValueError("epsilon is too large: 2 + epsilon must fit in a float") from None
    res = solve_approx(inst, args.k, cfg, mode=args.mode)
    return _emit_result(res, ratio_bound=bound, size_bound=ceil43(args.k))


def _certify_row(path: str, inst, k: int, seed: int) -> str | None:
    """The CSV row of guided mode against its own oracle, the exact optimum;
    None when no solution of size at most k exists."""
    exact = solve_exact(inst, k)
    if exact is None:
        return None
    approx = _guided(inst, k, SolverConfig(seed=seed), exact)
    if approx is None:
        raise InvariantViolated("guided search lost the exact optimum")
    es, ew = exact.solution.size(), exact.weight
    as_, aw = approx.solution.size(), approx.weight
    return "%s,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%d" % (
        path,
        k,
        seed,
        es,
        ew,
        as_,
        aw,
        _ratio(as_, es),
        _ratio(aw, ew),
        ceil43(k),
    )


def cmd_certify(args) -> int:
    inst = parse_instance(_read(args.instance))
    row = _certify_row(args.instance, inst, args.k, args.seed)
    if row is None:
        print(f"no solution of size at most {args.k} exists", file=sys.stderr)
        return _emit_result(None)
    print(row)
    return 0


GEN_DEFAULTS = {
    "cap_range": (1, 3),
    "mult_range": (1, 2),
}


def cmd_gen(args) -> int:
    params = {
        "n": args.n,
        "m": args.m,
        "d": args.d,
        "weight_range": (1, 9) if args.weighted else (1, 1),
        **GEN_DEFAULTS,
    }
    inst = generate_instance(params, args.seed)
    sys.stdout.write(serialize_instance(inst))
    return 0


def cmd_reduce(args) -> int:
    if args.what == "csp-mdk":
        csp = parse_csp(_read(args.input))
        mdk = csp_to_mdk(csp, Q=args.Q)
        sys.stdout.write(serialize_mdk(mdk))
        print(
            f"k={mdk.k} d={mdk.d} vectors={len(mdk.vectors)}",
            file=sys.stderr,
        )
        return 0
    if args.what in ("mdk-cvc", "mdk-wcvc"):
        mdk = parse_mdk(_read(args.input))
        if args.what == "mdk-cvc":
            inst = mdk_to_cvc(mdk)
            print(f"k_cvc={mdk.k + mdk.d}", file=sys.stderr)
        else:
            inst = mdk_to_wcvc(mdk)
            print(f"k_cvc={mdk.k + mdk.d} W={mdk.k}", file=sys.stderr)
        sys.stdout.write(serialize_instance(inst))
        return 0
    if args.what == "csp-mdk-cov":
        csp = parse_csp(_read(args.input))
        family = build_covering_family(
            csp.k,
            args.alpha,
            args.beta,
            args.r,
            seed=args.seed,
            trials=args.trials,
        )
        if family is None:
            print("no covering family found within the trial budget", file=sys.stderr)
            return _emit_result(None)
        mdk = csp_to_mdk_covering(csp, family, Q=args.Q)
        sys.stdout.write(serialize_mdk(mdk))
        print(
            f"k_star={len(family)} family_sets={[list(s) for s in family]}",
            file=sys.stderr,
        )
        return 0
    raise ValueError(f"unknown reduction {args.what!r}")


def cmd_bench(args) -> int:
    print(CSV_COLUMNS)
    emitted = 0
    attempts = 0
    max_attempts = max(50, 50 * args.count)
    while emitted < args.count and attempts < max_attempts:
        seed = args.corpus_seed + attempts
        attempts += 1
        k = 2 if args.kmax <= 2 else 2 + (attempts - 1) % (args.kmax - 1)
        params = {
            "n": 6,
            "m": 7,
            "d": 3,
            "weight_range": (1, 9),
            **GEN_DEFAULTS,
        }
        inst = generate_instance(params, seed)
        row = _certify_row(f"corpus:{seed}", inst, k, seed)
        if row is None:
            continue
        print(row)
        emitted += 1
    if emitted < args.count:
        print(f"only {emitted} of {args.count} rows produced", file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError instead of exiting.

    Subparsers inherit the class, so main reports every usage error as JSON.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args keeps no state)."""
    p = _Parser(
        prog="caphs",
        description="capacitated d-hitting set: solvers, certification, reductions",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="verify a solution file against an instance")
    c.add_argument("instance")
    c.add_argument("solution")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("solve-exact", help="optimal solution within budget k")
    c.add_argument("instance")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--weighted", action="store_true", help="minimize weight instead of size")
    c.set_defaults(func=cmd_solve_exact)

    c = sub.add_parser("solve-approx", help="size ceil(4k/3) approximation")
    c.add_argument("instance")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--mode", choices=[GUIDED, ENUMERATE], default=GUIDED)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--epsilon", type=fraction, default=None, help="weighted variant, e.g. 1/2")
    c.add_argument("--budget", type=int, default=None, help="tuple and recursion budgets")
    c.add_argument(
        "--override-const",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help=f"search constant override ({', '.join(_OVERRIDES)})",
    )
    c.set_defaults(func=cmd_solve_approx)

    c = sub.add_parser("certify", help="exact vs approx on one instance, CSV line")
    c.add_argument("instance")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_certify)

    c = sub.add_parser("gen", help="random instance to stdout")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--weighted", action="store_true", help="weights in 1..9 instead of all 1")
    c.set_defaults(func=cmd_gen)

    c = sub.add_parser("reduce", help="hardness reductions between formats")
    c.add_argument(
        "what", choices=["csp-mdk", "mdk-cvc", "mdk-wcvc", "csp-mdk-cov"]
    )
    c.add_argument("input")
    c.add_argument("--Q", type=int, default=None, help="separation constant")
    c.add_argument("--alpha", type=fraction, default="1/2")
    c.add_argument("--beta", type=fraction, default="1/2")
    c.add_argument("--r", type=int, default=4)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--trials", type=int, default=200)
    c.set_defaults(func=cmd_reduce)

    c = sub.add_parser("bench", help="certify a generated corpus, CSV to stdout")
    c.add_argument("--corpus-seed", type=int, default=0)
    c.add_argument("--count", type=int, default=20)
    c.add_argument("--kmax", type=int, default=3)
    c.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (CaphsError, ValueError, OSError) as exc:
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
            code = 2
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone: write no more, and let the exit-time flush go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
