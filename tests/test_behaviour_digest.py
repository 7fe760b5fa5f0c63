"""CLI behaviour, family by family, matches the committed digest.

tests/behaviour_digest.json holds one SHA-256 per command family over a
fixed corpus of in-process cli.main runs (see regen_behaviour_digest.py).
A failure names the families whose stdout, exit codes or budget cut-offs
moved.
"""

import json

from regen_behaviour_digest import DIGEST_FILE, FAMILIES, digests


def test_behaviour_digest_matches_the_committed_file():
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    assert sorted(expected) == sorted(FAMILIES)
    got = digests()
    moved = [name for name in FAMILIES if got[name] != expected[name]]
    assert not moved, f"behaviour moved in: {', '.join(moved)}"
