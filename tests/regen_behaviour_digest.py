"""Regenerate tests/behaviour_digest.json, the CLI behaviour that
tests/test_behaviour_digest.py pins, one SHA-256 per command family.

    PYTHONPATH=src python tests/regen_behaviour_digest.py

Every family runs through cli.main in this process, on each instance of the
corpus at k = 0..4, reading the instance from stdin.  The corpus is
`caphs gen --d 3` with n = 3..6, m = n and n + 2, seeds 0..5, unit and 1..9
weights.  A family's digest hashes each run's arguments, exit code and
stdout, in corpus order, so a moved answer, tie-break or budget cut-off
moves it.  A change that moves a family on purpose reruns this script and
names the moved family and the reason in CHANGES.md.
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


# Family name -> (subcommand, its options).  The instance is "-" (stdin).
FAMILIES = {
    "solve-exact": ("solve-exact", []),
    "solve-exact --weighted": ("solve-exact", ["--weighted"]),
    "guided": ("solve-approx", []),
    "guided --epsilon 1/2": ("solve-approx", ["--epsilon", "1/2"]),
    "guided ranked": ("solve-approx", _override("small_class_threshold=0", "top_t=1")),
    "guided rho bucket_base seed": (
        "solve-approx", _override("rho=1/2", "bucket_base=2") + ["--seed", "3"]
    ),
    "enumerate": ("solve-approx", _ENUMERATE),
    "enumerate ranked budget 400": (
        "solve-approx",
        _ENUMERATE + ["--budget", "400"] + _override("small_class_threshold=1", "top_t=1"),
    ),
    "enumerate budget 50": ("solve-approx", _ENUMERATE + ["--budget", "50"]),
    "enumerate budget 200": ("solve-approx", _ENUMERATE + ["--budget", "200"]),
    "certify": ("certify", []),
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
    """Family name -> the SHA-256 of its runs over the corpus."""
    docs = corpus()
    out = {}
    for name, (cmd, opts) in FAMILIES.items():
        h = hashlib.sha256()
        for doc in docs:
            for k in KS:
                argv = [cmd, "-", *opts, "--k", str(k)]
                code, stdout = run(argv, doc)
                h.update(json.dumps([argv, code, stdout]).encode() + b"\n")
        out[name] = h.hexdigest()
    return out


if __name__ == "__main__":
    DIGEST_FILE.write_text(json.dumps(digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_FILE}")
