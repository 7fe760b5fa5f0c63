"""caphs benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

The inputs are generated from --seed, reference answers are computed here (in
this process, apart from caphs), and the timed work runs in a separate
measuring process (measure.py) as a closed loop with one caller.  The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md for the method.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

import corpus
import reference
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Median seconds of one measure.calibrate() loop on the reference machine.
# Every time is reported as t_raw * (C_REF / c_run) ** EXPONENT[workload].
# The loop's speed swings more than caphs' own: enumerate's pure-Python
# search follows it by about three quarters, certify and reduce_chain, which
# spend most of their time indexing numpy arrays in the flow kernel, by about
# half.  The exponents were fitted over sets of ten runs (see README.md).
C_REF = 0.0045
EXPONENT = {"certify": 0.5, "enumerate": 0.75, "reduce_chain": 0.5}
SETUP_RUNS = 3
MIN_PASSES = 3
# Traced runs alternate untraced and traced passes: at least two of each.
TRACE_MIN_PASSES = 4
CHILD_TIMEOUT_S = 170
WORKLOADS = ("certify", "enumerate", "reduce_chain")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("copies_bought", "copies"),
)

# Per-layer metrics: name -> (unit, source).  The source is "self_s" or
# "calls" of the traced function the name starts with, "count" for the tracer
# counter of the same name, the counter of useful outcomes for a ratio over
# calls, or None for the tracing overhead.  Counts and self_ms are per traced
# pass.
_SELF = ("ms", "self_s")
_CALLS = ("count", "calls")
PER_LAYER = {
    "feasibility.check_feasible.calls": _CALLS,
    "feasibility.check_feasible.self_ms": _SELF,
    "feasibility.check_feasible.feasible_ratio": ("ratio", "feasibility.check_feasible.feasible"),
    "feasibility.build_network.self_ms": _SELF,
    "exact.solve_exact.calls": _CALLS,
    "exact.solve_exact.self_ms": _SELF,
    "exact.solve_exact_weighted.calls": _CALLS,
    "exact.solve_exact_weighted.self_ms": _SELF,
    "exact.candidates_checked": ("count", "count"),
    "approx.solve_approx.self_ms": _SELF,
    "approx.SolverConfig.resolved.calls": _CALLS,
    "approx.SolverConfig.resolved.self_ms": _SELF,
    "approx.expand_multiplicities.self_ms": _SELF,
    "approx.enumerate_tuples.tuples": ("count", "count"),
    "approx.enumerate_tuples.self_ms": _SELF,
    "approx.solve_annotated.calls": _CALLS,
    "approx.info_tuple.calls": _CALLS,
    "approx.info_tuple.self_ms": _SELF,
    "approx.candidate_set.calls": _CALLS,
    "approx.candidate_set.self_ms": _SELF,
    "approx.solve_extended.calls": _CALLS,
    "approx.solve_extended.self_ms": _SELF,
    "approx.solve_extended.solved": ("count", "count"),
    "approx.solve_extended.reason.tau-clash": ("count", "count"),
    "approx.solve_extended.reason.no-dominator": ("count", "count"),
    "approx.solve_extended.reason.independence-fail": ("count", "count"),
    "approx.solve_extended.reason.infeasible-or-too-big": ("count", "count"),
    "approx.good_tuple_from_opt.calls": _CALLS,
    "core.equivalence_classes.calls": _CALLS,
    "core.equivalence_classes.self_ms": _SELF,
    "core.stars.calls": _CALLS,
    "core.parse_instance.self_ms": _SELF,
    "colorweights.random_colorings.calls": _CALLS,
    "colorweights.random_colorings.self_ms": _SELF,
    "colorweights.random_colorings.colorings_built": ("count", "count"),
    "colorweights.weight_estimates.calls": _CALLS,
    "independence.find_independent_set.calls": _CALLS,
    "independence.find_independent_set.self_ms": _SELF,
    "independence.find_independent_set.found_ratio": ("ratio", "independence.find_independent_set.found"),
    "independence.is_conflicting.calls": _CALLS,
    "independence.is_conflicting.self_ms": _SELF,
    "domset.min_dominator_forced.calls": _CALLS,
    "domset.min_dominator_forced.self_ms": _SELF,
    "domset.min_dominator_forced.found_ratio": ("ratio", "domset.min_dominator_forced.found"),
    "reductions.csp_to_mdk.self_ms": _SELF,
    "reductions.solve_mdk_exact.calls": _CALLS,
    "reductions.solve_mdk_exact.self_ms": _SELF,
    "reductions.mdk_to_cvc.self_ms": _SELF,
    "reductions.mdk_to_wcvc.self_ms": _SELF,
    "cli.main.calls": _CALLS,
    "cli.main.self_ms": _SELF,
    "trace.overhead_pct": ("%", None),
}


def build_inputs(workload: str, seed: int):
    """(inputs for the measuring process, reference answers), both from seed,
    in corpus order."""
    if workload == "certify":
        inputs = [
            {"doc": doc, "k": k}
            for n, k, count in corpus.CERTIFY_ROWS
            for doc in corpus.fixed_structure_docs(
                seed, n, (2, 4), count, lambda doc, k=k: reference.optima(doc, k)[0] is not None
            )
        ]
        return inputs, [reference.optima(item["doc"], item["k"]) for item in inputs]
    if workload == "enumerate":
        docs = corpus.fixed_structure_docs(
            seed,
            corpus.ENUMERATE_N,
            (1, 4),
            corpus.ENUMERATE_COUNT,
            lambda doc: reference.optima(doc, corpus.ENUMERATE_K)[0] is not None,
        )
        return docs, [None] * len(docs)
    pairs = corpus.reduce_pairs(seed)
    return pairs, [None] * len(pairs)


def check_outputs(workload: str, inputs, refs, outputs) -> list[str]:
    """Failure messages for the first pass's outputs; operations that raised
    are counted as failed by the measuring process and skipped here."""
    errs = []
    if workload == "certify":
        for i, (item, ref) in enumerate(zip(inputs, refs)):
            outs = outputs[4 * i : 4 * i + 4]
            if any("exception" in o for o in outs if isinstance(o, dict)):
                continue
            errs += [f"certify #{i}: {e}" for e in reference.check_certify(item["doc"], item["k"], ref, outs)]
    elif workload == "enumerate":
        for i, (doc, out) in enumerate(zip(inputs, outputs)):
            if isinstance(out, list):
                errs += [f"enumerate #{i}: {e}" for e in reference.check_enumerate(doc, out)]
    else:
        for i, ((sat, unsat), out) in enumerate(zip(inputs, outputs)):
            if "exception" not in out:
                errs += [f"reduce_chain #{i}: {e}" for e in reference.check_reduce(sat, unsat, out)]
    return errs


def spawn(request: dict) -> dict:
    """Run measure.py with request on stdin; its stdout is one JSON document."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout)


def op_medians(samples) -> list[float]:
    """Each operation's median over the passes where it did not fail."""
    kept = ([t for t in ops if t is not None] for ops in samples)
    return [statistics.median(ts) for ts in kept if ts]


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "src_lines": src_lines,
    }


def layer_metrics(res: dict, scale: float) -> dict:
    passes = res["traced_passes"]
    counts = res["counts"]
    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        layer = name.rsplit(".", 1)[0]
        if key == "self_s":
            value = res["self_s"].get(layer, 0.0) * scale * 1000 / passes
        elif key == "calls":
            value = res["calls"].get(layer, 0) / passes
        elif key == "count":
            value = counts.get(name, 0) / passes
        elif unit == "ratio":
            calls = res["calls"].get(layer, 0)
            value = counts.get(key, 0) / calls if calls else 0.0
        else:
            untraced = sum(op_medians(res["samples"]))
            traced = sum(op_medians(res["traced_samples"]))
            value = (traced / untraced - 1) * 100
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "caphs" / "__init__.py").is_file():
        print(f"caphs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    broken = selftest.run()
    if broken:
        print("checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 3

    inputs, refs = build_inputs(args.workload, args.seed)
    warm_up = inputs[0]
    # The seed also shuffles the order of the operations in a pass.
    order = list(range(len(inputs)))
    random.Random(args.seed).shuffle(order)
    inputs = [inputs[i] for i in order]
    refs = [refs[i] for i in order]
    request = {
        "workload": args.workload,
        "inputs": inputs,
        "warm_up": warm_up,
        "seconds": args.seconds,
        "min_passes": TRACE_MIN_PASSES if args.trace else MIN_PASSES,
        "trace": args.trace,
        "setup_only": True,
        "span_file": None,
    }
    setups = [spawn(request) for _ in range(SETUP_RUNS - 1)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        request["span_file"] = str(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    res = spawn({**request, "setup_only": False})
    setups.append(res)

    c_run = statistics.median(res["calibration"])
    exponent = EXPONENT[args.workload]
    scale = (C_REF / c_run) ** exponent
    setup_s = statistics.median(
        s["setup_raw"] * (C_REF / statistics.median(s["calibration"][:5])) ** exponent
        for s in setups
    )
    errors = check_outputs(args.workload, inputs, refs, res["outputs"])
    if len(set(res["digests"])) != 1:
        errors.append("outputs differ between passes")
    medians = op_medians(res["samples"])
    all_samples = [t for ops in res["samples"] for t in ops if t is not None]
    raw = {
        "ops_per_s": len(medians) / sum(medians),
        "op_p50_ms": statistics.median(all_samples) * 1000,
        "setup_s": statistics.median(s["setup_raw"] for s in setups),
    }
    info = {
        **environment(),
        "workload": args.workload,
        "seed": args.seed,
        "passes": res["passes"],
        "ops_per_pass": len(res["samples"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "c_ref": C_REF,
        "exponent": exponent,
        "c_run": c_run,
        "raw": raw,
        "checksum": res["digests"][0],
        "errors": errors[:20],
    }
    print(json.dumps({"info": info}))
    for e in errors:
        print(e, file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(res, scale)
    else:
        values = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_ms": raw["op_p50_ms"] * scale,
            "setup_s": setup_s,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "copies_bought": res["copies"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
