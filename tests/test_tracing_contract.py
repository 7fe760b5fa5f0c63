"""perfbench/tracing.py wraps caphs functions by attribute name; keep them reachable."""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import caphs.cli  # noqa: F401  (Tracer.install looks every traced module up)
from caphs import approx
from caphs.approx import ENUMERATE, GUIDED, SolverConfig
from caphs.core import Element, Instance

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

# Run in a fresh interpreter, with argv [src dir, tracing.py]; prints JSON.
CHILD = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
import caphs.cli
spec = importlib.util.spec_from_file_location("tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
owners = {key: mod for key, mod in sys.modules.items() if key.split(".")[0] == "caphs"}
owners["caphs.approx.SolverConfig"] = caphs.approx.SolverConfig

def lookup(mod, path):
    obj = owners.get("caphs." + mod)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj

names = [f"{mod}.{path}" for mod, path, _ in tracing.TARGETS]
before = {key: dict(vars(owner)) for key, owner in owners.items()}
originals = [lookup(mod, path) for mod, path, _ in tracing.TARGETS]
tracer = tracing.Tracer()
tracer.install()
wrapped = [getattr(lookup(mod, path), "__wrapped__", None) for mod, path, _ in tracing.TARGETS]
tracer.uninstall()
print(json.dumps({
    "targets": len(names),
    "unresolved": [n for n, fn in zip(names, originals) if fn is None],
    "unbound": [n for n, fn, w in zip(names, originals, wrapped) if w is not fn],
    "changed": [f"{key}.{attr}" for key, attrs in before.items() for attr, value in attrs.items()
                if vars(owners[key]).get(attr) is not value],
}))
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sees_every_approx_layer():
    tracing = _load_tracing()
    # No single element covers all four sets, so size 1 fails in enumerate
    # mode and reaches the closing step before size 2 succeeds.
    inst = Instance(
        elements=(
            Element(id=1, cap=2),
            Element(id=3, cap=2),
            Element(id=4, cap=2),
        ),
        family=((1, 3), (1, 3), (3, 4), (3, 4)),
        d=2,
    )
    original = approx.info_tuple
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Called through the module, where the tracer rebinds it.
        assert approx.solve_approx(inst, 2, mode=ENUMERATE) is not None
        assert approx.solve_approx(inst, 2, mode=GUIDED) is not None
        # The weighted variant is the one that reaches weight_estimates.
        weighted = SolverConfig(epsilon=Fraction(1, 2))
        assert approx.solve_approx(inst, 2, weighted, mode=GUIDED) is not None
    finally:
        tracer.uninstall()
    targets = [
        f"{mod}.{path}" for mod, path, _ in tracing.TARGETS if mod in ("approx", "colorweights")
    ]
    assert {name.split(".")[0] for name in targets} == {"approx", "colorweights"}
    missing = [name for name in targets if tracer.calls.get(name, 0) < 1]
    assert missing == []
    assert approx.info_tuple is original


def test_every_tracer_target_resolves_after_importing_the_cli():
    # perfbench/measure.py imports caphs.cli and the tracer finds each
    # target's module in sys.modules, so that import must load all of them.
    # Installing rebinds every target to a wrapper of it; uninstalling puts
    # back every attribute of every caphs module, by identity.
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(TRACING)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got.pop("targets") > 0
    assert got == {"unresolved": [], "unbound": [], "changed": []}
