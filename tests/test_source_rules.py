"""Rules the library source keeps, checked by parsing it."""

import ast
from pathlib import Path

import caphs

SRC = Path(caphs.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assert statements in src/caphs: " + ", ".join(found)
    assert len(list(SRC.glob("*.py"))) > 5  # the glob found the sources
