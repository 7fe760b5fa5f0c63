"""perfbench/tracing.py wraps caphs functions by attribute name; keep them reachable."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import caphs.cli  # noqa: F401  (Tracer.install looks every traced module up)
from caphs import approx
from caphs.approx import ENUMERATE, GUIDED, SolverConfig
from caphs.core import Element, Instance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
