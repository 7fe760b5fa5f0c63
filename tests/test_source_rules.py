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
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = [entry for path in paths for entry in _unused_imports(path)]
    assert not found, "unused imports: " + ", ".join(found)
    assert any(p.name == "test_source_rules.py" for p in paths)  # the tests glob found this file


def _unread_parameters(text: str, label: str) -> list[str]:
    """Parameters a function (or lambda) never reads; self and cls are exempt."""
    tree = ast.parse(text, filename=label)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [
            f"{label}:{node.lineno} {name}({p.arg})"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls")
        ]
    return found


def test_every_parameter_is_read():
    found = [
        entry
        for path in sorted(SRC.glob("*.py"))
        for entry in _unread_parameters(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not found, "parameters never read: " + ", ".join(found)
    # The rule sees a write, a default and a nested lambda, and reads through closures.
    probe = "def f(a, b, c=0, *d):\n    b = a\n    return lambda e: c + len(d)\n"
    assert _unread_parameters(probe, "probe") == ["probe:1 f(b)", "probe:3 <lambda>(e)"]


def _process_caches(text: str, label: str) -> list[str]:
    """Every use of functools.cache or lru_cache, by enclosing function where decorated."""
    tree = ast.parse(text, filename=label)
    names = {"cache", "lru_cache"}

    def is_cache(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "functools")

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [n for n in ast.walk(tree) if isinstance(n, kinds)]
    decorators = {id(d) for f in functions for d in f.decorator_list}
    found = [f"{label}:{f.name}" for f in functions for d in f.decorator_list if is_cache(d)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{label}:{node.lineno} {a.name}" for a in node.names if a.name in names]
        elif isinstance(node, ast.Call) and id(node) not in decorators and is_cache(node.func):
            found.append(f"{label}:{node.lineno} call")
    return found


def test_memos_live_on_the_search_not_the_process():
    # A process-wide cache would carry work from one solve to the next, which
    # a benchmark that repeats its passes in one process would count as speed.
    found = [
        entry
        for path in sorted(SRC.glob("*.py"))
        for entry in _process_caches(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == ["cli.py:build_parser"], "process-wide caches: " + ", ".join(found)
    probe = (
        "import functools\nfrom functools import lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x\n"
        "g = functools.cache(f)\n"
    )
    assert _process_caches(probe, "probe") == ["probe:f", "probe:2 lru_cache", "probe:6 call"]


def _local_imports(text: str, label: str) -> list[str]:
    """Import statements inside a function body, by innermost enclosing function."""
    found = {}
    # ast.walk reaches an outer function before its inner ones, so the inner wins.
    for fn in ast.walk(ast.parse(text, filename=label)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found[node.lineno] = f"{label}:{node.lineno} {fn.name}"
    return [found[line] for line in sorted(found)]


def test_imports_sit_at_module_level():
    # A function-local import hides a dependency from the module's header and
    # is looked up again on every call.
    found = [
        entry
        for path in sorted(SRC.glob("*.py"))
        for entry in _local_imports(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not found, "function-local imports: " + ", ".join(found)
    probe = (
        "import os\ndef f():\n    from os import path\n    def g():\n"
        "        import sys\n    return path\nclass C:\n    async def h(self):\n"
        "        import json\n"
    )
    assert _local_imports(probe, "probe") == ["probe:3 f", "probe:5 g", "probe:9 h"]


def _unfrozen_dataclasses(text: str, label: str) -> list[str]:
    """Classes decorated with dataclass (bare, called or via the module) without frozen=True."""
    found = []
    for node in ast.walk(ast.parse(text, filename=label)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name != "dataclass":
                continue
            frozen = call and any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in call.keywords
            )
            if not frozen:
                found.append(f"{label}:{node.lineno} {node.name}")
    return found


def test_every_dataclass_is_frozen():
    # A config or result is checked once, when built; that holds only while
    # no field can be reassigned afterwards.
    found = [
        entry
        for path in sorted(SRC.glob("*.py"))
        for entry in _unfrozen_dataclasses(path.read_text(encoding="utf-8"), path.name)
    ]
    assert not found, "dataclasses that are not frozen: " + ", ".join(found)
    probe = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(order=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(frozen=False)\nclass C:\n    x: int\n"
        "@dataclass(frozen=True)\nclass D:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass E:\n    x: int\n"
        "class F:\n    pass\n"
    )
    assert _unfrozen_dataclasses(probe, "probe") == ["probe:4 A", "probe:7 B", "probe:10 C"]


def _owners(tree: ast.AST) -> dict[int, str]:
    """id(node) -> the name of the innermost function holding the node."""
    owner = {}
    # ast.walk reaches an outer function before its inner ones, so the inner wins.
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = fn.name
    return owner


def _shared_rule_sites(text: str, label: str) -> list[str]:
    """Calls of json.dumps and assignment_ok and constructions of MalformedInput,
    each as label:function callee, by innermost enclosing function (<module>
    outside any)."""
    tree = ast.parse(text, filename=label)
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute):
            qualified = f"{getattr(f.value, 'id', '?')}.{f.attr}"
        else:
            qualified = getattr(f, "id", "")
        if qualified in ("json.dumps", "dumps"):
            callee = "json.dumps"
        elif qualified.rpartition(".")[2] in ("MalformedInput", "assignment_ok"):
            callee = qualified.rpartition(".")[2]
        else:
            continue
        found.append(f"{label}:{owner.get(id(node), '<module>')} {callee}")
    return found


def test_each_shared_rule_has_one_copy():
    # The output format, the way a parser reports a malformed document and the
    # way a fresh matching becomes a checked Assignment are decided in one place
    # each, so two writers, two parsers or two solvers cannot drift.  The other
    # assignment_ok call checks an assignment a solution file stores.
    found = [
        entry
        for path in sorted(SRC.glob("*.py"))
        for entry in _shared_rule_sites(path.read_text(encoding="utf-8"), path.name)
    ]
    writers = sorted({e for e in found if e.endswith(" json.dumps")})
    assert len(writers) == 1, "json.dumps called in: " + ", ".join(writers)
    raisers = [e for e in found if e.endswith(" MalformedInput")]
    assert raisers and all(e.startswith("core.py:") for e in raisers), (
        "MalformedInput built outside core.py: " + ", ".join(raisers)
    )
    checks = [e for e in found if e.endswith(" assignment_ok")]
    assert sorted(checks) == [
        "cli.py:cmd_check assignment_ok", "feasibility.py:checked_assignment assignment_ok",
    ], "assignment_ok called in: " + ", ".join(checks)
    probe = (
        "import json\nfrom json import dumps\n"
        "def f(x):\n    def g():\n        raise MalformedInput('bad')\n"
        "    feasibility.assignment_ok(x, x, x)\n    return json.dumps(x)\n"
        "h = dumps(1)\ny = other.dumps(1)\nz = errors.MalformedInput('bad')\nw = a.b.dumps(2)\n"
        "v = assignment_ok(1, 2, 3)\nu = assignment_ok_too(1)\n"
    )
    assert _shared_rule_sites(probe, "probe") == [
        "probe:<module> json.dumps", "probe:<module> MalformedInput",
        "probe:<module> assignment_ok", "probe:f assignment_ok", "probe:f json.dumps",
        "probe:g MalformedInput",
    ]


def _trusted_builds(text: str, label: str) -> list[str]:
    """Each read of core's _trusted (bare or as core._trusted) as label:function,
    by innermost enclosing function (<module> outside any), and each import
    that renames it."""
    tree = ast.parse(text, filename=label)
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        bare = isinstance(node, ast.Name) and node.id == "_trusted"
        qualified = (isinstance(node, ast.Attribute) and node.attr == "_trusted"
                     and isinstance(node.value, ast.Name) and node.value.id == "core")
        if bare or qualified:
            found.append(f"{label}:{owner.get(id(node), '<module>')}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{label}:{node.lineno} as {a.asname}"
                      for a in node.names if a.name == "_trusted" and a.asname]
    return found


def test_only_canonical_builders_skip_validation():
    # core._trusted builds a model without its checks.  Only builders whose
    # output is canonical and valid by construction may call it, and the
    # instance parser, which runs the models' own check helpers on each field
    # first, so no parser or generator path reaches a model unchecked.
    found = {
        entry
        for path in sorted(SRC.glob("*.py"))
        for entry in _trusted_builds(path.read_text(encoding="utf-8"), path.name)
    }
    assert found == {
        "approx.py:enumerate_tuples", "approx.py:expand_multiplicities",
        "approx.py:good_tuple_from_opt", "core.py:parse_instance", "reductions.py:_cvc_instance",
        "reductions.py:csp_to_mdk", "reductions.py:csp_to_mdk_covering",
    }, "core._trusted read in: " + ", ".join(sorted(found))
    probe = (
        "from .core import _trusted as t\nfrom . import core\n"
        "def f():\n    def g():\n        return _trusted(A, x=1)\n"
        "    return core._trusted(A), AnnotatedTuple._trusted(1, 2, 3, 4)\n"
        "h = _trusted\nother._trusted(1)\n"
    )
    assert _trusted_builds(probe, "probe") == [
        "probe:1 as t", "probe:<module>", "probe:g", "probe:f",
    ]


def test_only_core_trusted_builds_without_init():
    # object.__new__ skips a model's checks.  core._trusted is the one place
    # that calls it, so the rule above sees every unchecked build.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        found += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert found == ["core.py:_trusted"], "__new__ read in: " + ", ".join(found)
