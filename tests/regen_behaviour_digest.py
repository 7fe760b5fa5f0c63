"""Regenerate tests/behaviour_digest.json, the CLI behaviour that
tests/test_behaviour_digest.py pins, one SHA-256 per command family.

    PYTHONPATH=src python tests/regen_behaviour_digest.py

Every family runs through cli.main in this process.  Most run on each
instance of the corpus at k = 0..4 (some at k = 0..3), reading the instance
from stdin.  The corpus is `caphs gen --d 3` with n = 3..6, m = n and n + 2,
seeds 0..5, unit and 1..9 weights.  The other families run fixed argument
lists: `bench`, the reproducers of two open defects, instances without sets
or without elements, invalid option values, and negative or wide seeds and
draws.  A family's digest hashes each run's arguments, exit code and stdout,
in order, so a moved answer, tie-break, error or budget cut-off moves it.  A
change that moves a family on purpose reruns this script and names the moved
family and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from caphs.cli import main

DIGEST_FILE = Path(__file__).with_name("behaviour_digest.json")

KS = range(0, 5)
_ENUMERATE = ["--mode", "enumerate"]


def _override(*pairs: str) -> list[str]:
    return [arg for kv in pairs for arg in ("--override-const", kv)]


def _on_corpus(cmd: str, opts: list[str], ks=KS):
    """The runs of cmd with opts on every corpus instance at each k in ks."""
    return lambda docs: [([cmd, "-", *opts, "--k", str(k)], doc) for doc in docs for k in ks]


def _instance(caps: list[int], family: list[list[int]], d: int = 3) -> str:
    """An instance document with elements 0..len(caps)-1 of mult 1 and weight 1."""
    elements = [{"id": x, "cap": c, "mult": 1, "weight": 1} for x, c in enumerate(caps)]
    return json.dumps({"d": d, "elements": elements, "family": family})


# The argument lists before the instance of every solving command.
_SOLVERS = (
    ["solve-exact"],
    ["solve-exact", "--weighted"],
    ["solve-approx"],
    ["solve-approx", *_ENUMERATE],
    ["certify"],
)


def _solved(doc: str, ks):
    """The runs of each solving command on doc at each k in ks."""
    return [([*solver, "-", "--k", str(k)], doc) for solver in _SOLVERS for k in ks]


# The ROADMAP's open defect "enumerate mode breaks its (2 + epsilon) weight
# guarantee": enumerate with epsilon 1/2 answers weight 16 at k = 3,
# where the weighted optimum and guided mode weigh 3.
_WEIGHT_BOUND_ARGS = ["gen", "--n", "5", "--m", "5", "--d", "3", "--seed", "19", "--weighted"]


def _weight_bound_runs(docs):
    doc = run(_WEIGHT_BOUND_ARGS)[1]
    eps = ["--epsilon", "1/2"]
    return [
        (argv + ["--k", str(k)], doc)
        for k in (2, 3)
        for argv in (["solve-exact", "-", "--weighted"], ["solve-approx", "-", *eps],
                     ["solve-approx", "-", *_ENUMERATE, *eps])
    ]


# The ROADMAP's open defect "guided mode loses an existing optimum at ranked
# roots": {0} covers every set, but guided mode loses it at k = 1
# and certify raises InvariantViolated at k = 1 and 2.
_LOST_OPTIMUM = _instance(
    [7] + [6] * 7, [[0] + [x for x in range(1, 8) if x != j] for j in range(1, 8)], d=7
)

_EMPTY = [_instance([1], []), _instance([], [])]


def _invalid_runs(docs):
    doc = docs[0]
    k2 = ["-", "--k", "2"]
    runs = [([*solver, "-", "--k", "-1"], doc) for solver in _SOLVERS]
    for mode in ([], _ENUMERATE):
        bad = [["--budget", "-1"], ["--epsilon", "0"]] + [
            _override(kv) for kv in ("rho=0", "bucket_base=1", "top_t=0",
                                     "max_coloring_trials=0", "no_such_key=1")
        ]
        runs += [(["solve-approx", *k2, *mode, *opts], doc) for opts in bad]
    return runs


# A CSP with k = 5 variables, enough for a covering family at r = 4.
_CSP5 = json.dumps({
    "format": 1, "k": 5, "n": 2,
    "constraints": [{"u": u, "v": (u + 1) % 5, "allowed": [[1, 1], [2, 2]]} for u in range(5)],
})


def _negative_seed_runs(docs):
    """Every seeded draw with seed -1: an instance, a bench corpus, colorings
    into 2 or more parts, and a covering family; each ends in the seed's error."""
    doc = run(["gen", "--n", "6", "--m", "6", "--d", "3"])[1]
    return [
        (["gen", "--n", "4", "--m", "4", "--d", "3", "--seed", "-1"], ""),
        (["bench", "--corpus-seed", "-1", "--count", "1"], ""),
        *[(["solve-approx", "-", *mode, "--k", str(k), "--seed", "-1"], doc)
          for mode in ([], _ENUMERATE) for k in (2, 3, 4)],
        (["reduce", "csp-mdk-cov", "-", "--seed", "-1"], _CSP5),
    ]


def _wide_draw_runs(docs):
    """Seeds of 2 to 7 words, and instance draws over 2^62 - 1 and 2^63 - 1
    subsets (64-bit bounded draws) and over 2^70 - 1 (past int64)."""
    doc = run(["gen", "--n", "6", "--m", "6", "--d", "3"])[1]
    gen3 = ["gen", "--n", "3", "--m", "3", "--d", "3", "--weighted", "--seed"]
    return [
        *[(gen3 + [str(seed)], "") for seed in (2**32, 2**64 + 3, 2**200 + 5)],
        *[(["gen", "--n", str(n), "--m", "2", "--d", str(n)], "") for n in (62, 63, 70)],
        *[(["solve-approx", "-", *mode, "--k", "3", "--seed", str(2**70)], doc)
          for mode in ([], _ENUMERATE)],
        (["reduce", "csp-mdk-cov", "-", "--seed", str(2**70)], _CSP5),
    ]


# Family name -> a function from the corpus documents to the family's runs,
# each an (argv, stdin) pair.
FAMILIES = {
    "solve-exact": _on_corpus("solve-exact", []),
    "solve-exact --weighted": _on_corpus("solve-exact", ["--weighted"]),
    "guided": _on_corpus("solve-approx", []),
    "guided --epsilon 1/2": _on_corpus("solve-approx", ["--epsilon", "1/2"]),
    "guided ranked": _on_corpus("solve-approx", _override("small_class_threshold=0", "top_t=1")),
    "guided rho bucket_base seed": _on_corpus(
        "solve-approx", _override("rho=1/2", "bucket_base=2") + ["--seed", "3"]
    ),
    "enumerate": _on_corpus("solve-approx", _ENUMERATE),
    "enumerate ranked budget 400": _on_corpus(
        "solve-approx",
        _ENUMERATE + ["--budget", "400"] + _override("small_class_threshold=1", "top_t=1"),
    ),
    "enumerate budget 50": _on_corpus("solve-approx", _ENUMERATE + ["--budget", "50"]),
    "enumerate budget 200": _on_corpus("solve-approx", _ENUMERATE + ["--budget", "200"]),
    "certify": _on_corpus("certify", []),
    "enumerate --epsilon 1/2": _on_corpus(
        "solve-approx", _ENUMERATE + ["--epsilon", "1/2"], range(0, 4)
    ),
    "enumerate rho bucket_base seed": _on_corpus(
        "solve-approx",
        _ENUMERATE + _override("rho=1/2", "bucket_base=2") + ["--seed", "3"],
        range(0, 4),
    ),
    # Every part ranked: at default budgets this answers nothing and takes
    # about 50 s on the corpus, so the budget is cut.
    "enumerate all ranked budget 400": _on_corpus(
        "solve-approx",
        _ENUMERATE + ["--budget", "400"] + _override("small_class_threshold=0", "top_t=1"),
    ),
    "enumerate budget 10": _on_corpus("solve-approx", _ENUMERATE + ["--budget", "10"]),
    "enumerate budget 1000": _on_corpus("solve-approx", _ENUMERATE + ["--budget", "1000"]),
    "bench": lambda docs: [
        (["bench", "--count", "2"], ""),
        (["bench", "--count", "3", "--kmax", "4", "--corpus-seed", "7"], ""),
    ],
    "reproducer: enumerate weight bound": _weight_bound_runs,
    "reproducer: guided loses the optimum": lambda docs: _solved(_LOST_OPTIMUM, (1, 2)),
    "no sets, no elements": lambda docs: [run for doc in _EMPTY for run in _solved(doc, KS[:3])],
    "invalid values": _invalid_runs,
    "negative seeds": _negative_seed_runs,
    "wide seeds and draws": _wide_draw_runs,
}


def run(argv: list[str], stdin: str = "") -> tuple[int, str]:
    """cli.main(argv) with stdin given: (exit code, stdout); stderr is dropped."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def corpus() -> list[str]:
    """The instance documents, as `caphs gen` prints them."""
    docs = []
    for n in range(3, 7):
        for m in (n, n + 2):
            for weighted in (False, True):
                for seed in range(6):
                    argv = ["gen", "--n", str(n), "--m", str(m), "--d", "3", "--seed", str(seed)]
                    docs.append(run(argv + ["--weighted"] * weighted)[1])
    return docs


def digests() -> dict[str, str]:
    """Family name -> the SHA-256 of its runs."""
    docs = corpus()
    out = {}
    for name, runs in FAMILIES.items():
        h = hashlib.sha256()
        for argv, stdin in runs(docs):
            code, stdout = run(argv, stdin)
            h.update(json.dumps([argv, code, stdout]).encode() + b"\n")
        out[name] = h.hexdigest()
    return out


if __name__ == "__main__":
    DIGEST_FILE.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_FILE}")
