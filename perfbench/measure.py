"""The measuring process: set up one workload on caphs and time whole passes.

run.py starts this script, writes a JSON request to its stdin and reads one
JSON document from its stdout.  No reference computation runs here, so the
process's peak RSS is that of caphs and the inputs alone.

Request keys: workload, inputs (documents from corpus.py, in pass order),
warm_up (one input), seconds, min_passes, trace (0 or 1), setup_only
(bool) and span_file (path or null).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CALIBRATION_SHARE = 0.05

def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict, int and list work."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    items = []
    for i in range(10_000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += (i * 2654435761) % 1000003
        if i & 7 == 0:
            items.append(acc & 1023)
    items.sort()
    return time.perf_counter() - start


def import_caphs():
    sys.path.insert(0, str(SRC))
    import caphs.cli
    import caphs.reductions

    if not Path(caphs.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"caphs was imported from {caphs.__file__}, not from {SRC}")
    return caphs


class CliOp:
    """One caphs command run in-process through caphs.cli.main on stdin text."""

    def __init__(self, caphs, argv: list[str], text: str):
        self.cli = caphs.cli
        self.argv = argv + ["-"]
        self.text = text

    def run(self):
        sys.stdin = io.StringIO(self.text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(self.argv)
        return rc, out.getvalue()

    @staticmethod
    def summarize(raw):
        rc, text = raw
        doc = json.loads(text)
        return [rc, doc], text, doc.get("size", 0)


class ChainOp:
    """One satisfiable and one unsatisfiable CSP through csp->mdk->cvc."""

    def __init__(self, caphs, sat_text: str, unsat_text: str):
        self.core = caphs.core
        self.red = caphs.reductions
        self.feas = caphs.feasibility
        self.sat = self.red.parse_csp(sat_text)
        self.unsat = self.red.parse_csp(unsat_text)

    def run(self):
        red = self.red
        mdk = red.csp_to_mdk(self.sat, Q=self.sat.n + 1)
        picks = red.solve_mdk_exact(mdk)
        cvc = red.mdk_to_cvc(mdk)
        wcvc = red.mdk_to_wcvc(mdk)
        asg = None
        sol = None
        if picks is not None:
            nvec = len(mdk.vectors)
            sol = self.core.Solution(
                {**{j: 1 for j in picks}, **{nvec + i: 1 for i in range(mdk.d)}}
            )
            asg = self.feas.check_feasible(cvc, sol)
        mdk_u = red.csp_to_mdk(self.unsat, Q=self.unsat.n + 1)
        picks_u = red.solve_mdk_exact(mdk_u)
        red.mdk_to_cvc(mdk_u)
        red.mdk_to_wcvc(mdk_u)
        return mdk, picks, cvc, wcvc, sol, asg, picks_u

    def summarize(self, raw):
        mdk, picks, cvc, wcvc, sol, asg, picks_u = raw
        doc = {
            "vectors": [list(v) for v in mdk.vectors],
            "target": list(mdk.target),
            "picks": None if picks is None else list(picks),
            "cvc": json.loads(self.core.serialize_instance(cvc)),
            "wcvc_weights": [e.weight for e in sorted(wcvc.elements, key=lambda e: e.id)],
            "cvc_copies": {} if sol is None else {str(x): c for x, c in sol.copies.items()},
            "cvc_assignment": None if asg is None else {str(j): x for j, x in asg.target.items()},
            "unsat_picks": None if picks_u is None else list(picks_u),
        }
        digest = json.dumps([doc["picks"], doc["cvc_assignment"], doc["unsat_picks"]])
        return doc, digest, 0 if picks is None else len(picks)


def build_ops(caphs, workload: str, inputs) -> list:
    if workload == "certify":
        ops = []
        for item in inputs:
            text, k = json.dumps(item["doc"]), str(item["k"])
            ops += [
                CliOp(caphs, ["solve-exact", "--k", k], text),
                CliOp(caphs, ["solve-approx", "--k", k], text),
                CliOp(caphs, ["solve-exact", "--weighted", "--k", k], text),
                CliOp(caphs, ["solve-approx", "--epsilon", "1/2", "--k", k], text),
            ]
        return ops
    if workload == "enumerate":
        argv = ["solve-approx", "--mode", "enumerate", "--k", "2"]
        return [CliOp(caphs, argv, json.dumps(doc)) for doc in inputs]
    if workload == "reduce_chain":
        return [ChainOp(caphs, json.dumps(s), json.dumps(u)) for s, u in inputs]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(caphs, workload: str, first_input) -> None:
    """Run every kind of operation of the workload once, on its first input
    in corpus order (the same input whatever the seed)."""
    for op in build_ops(caphs, workload, [first_input]):
        op.summarize(op.run())


def run_pass(ops, samples, outputs, digest) -> tuple[int, int, list[float]]:
    """Time every operation once; returns (failed, copies, calibration samples)."""
    failed = copies = 0
    calib = []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            samples[i].append(None)
            outputs.append({"exception": f"{type(exc).__name__}: {exc}"})
            digest.update(b"exception")
            failed += 1
        else:
            samples[i].append(time.perf_counter() - start)
            doc, text, size = op.summarize(raw)
            outputs.append(doc)
            digest.update(text.encode())
            copies += size
        # Calibrate for about 5% of the operation's time (at least once), so
        # the samples cover the run's timeline evenly.
        budget = CALIBRATION_SHARE * (time.perf_counter() - start)
        spent = 0.0
        while not spent or spent < budget:
            calib.append(calibrate())
            spent += calib[-1]
    return failed, copies, calib


def main() -> int:
    req = json.load(sys.stdin)
    real_stdout, real_stdin = sys.stdout, sys.stdin
    start = time.perf_counter()
    caphs = import_caphs()
    ops = build_ops(caphs, req["workload"], req["inputs"])
    warm_up(caphs, req["workload"], req["warm_up"])
    setup_raw = time.perf_counter() - start
    calib = [calibrate() for _ in range(5)]
    result = {"setup_raw": setup_raw}
    if not req["setup_only"]:
        result.update(measure(ops, req, calib))
    result["calibration"] = calib
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout, sys.stdin = real_stdout, real_stdin
    json.dump(result, sys.stdout)
    return 0


def measure(ops, req, calib) -> dict:
    """Whole passes until req['seconds'] have gone by and at least min_passes
    are done.  With trace=1 the passes alternate untraced and traced."""
    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    digests, first_outputs = [], None
    failed = attempted = copies = passes = traced_passes = 0
    begin = time.perf_counter()
    while passes < req["min_passes"] or time.perf_counter() - begin < req["seconds"]:
        tracing = tracer is not None and passes % 2 == 1
        if tracing:
            tracer.install()
        outputs = []
        digest = hashlib.sha256()
        try:
            f, c, cal = run_pass(ops, traced if tracing else untraced, outputs, digest)
        finally:
            if tracing:
                tracer.uninstall()
        passes += 1
        traced_passes += tracing
        failed += f
        attempted += len(ops)
        calib += cal
        digests.append(digest.hexdigest())
        if first_outputs is None:
            first_outputs, copies = outputs, c
    out = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "copies": copies,
        "outputs": first_outputs,
        "digests": digests,
        "samples": untraced,
    }
    if tracer is not None:
        out.update(
            traced_samples=traced,
            traced_passes=traced_passes,
            calls=tracer.calls,
            self_s=tracer.self_s,
            counts=tracer.counts,
        )
        if req["span_file"]:
            with open(req["span_file"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return out


if __name__ == "__main__":
    raise SystemExit(main())
