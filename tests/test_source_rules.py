"""Rules the library source keeps, checked by parsing it."""

import ast
from pathlib import Path

import caphs

SRC = Path(caphs.__file__).parent
TESTS = Path(__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "assert statements in src/caphs: " + ", ".join(found)
    assert len(list(SRC.glob("*.py"))) > 5  # the glob found the sources


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (a re-export needs # noqa)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export, so it is the one exemption.
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    found = [entry for path in paths for entry in _unused_imports(path)]
    assert not found, "unused imports: " + ", ".join(found)
    assert any(p.name == "test_source_rules.py" for p in paths)  # the tests glob found this file
