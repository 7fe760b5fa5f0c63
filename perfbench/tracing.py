"""Per-layer tracing from outside the program: wrap caphs' public functions.

Tracer.install() replaces each traced function by a timing wrapper wherever a
caphs module holds it (so both caphs.exact.check_feasible and
caphs.approx.check_feasible are rebound) and patches SolverConfig.resolved on
the class; uninstall() puts the originals back.  Every call records a span
(id, parent id, name, start, end).  A generator gets one span per resumption,
so it is timed only while its own body runs.  A layer's self time is its span
duration minus the spans nested directly inside it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Traced functions as (module, attribute path); generators are marked True.
TARGETS = (
    ("feasibility", "check_feasible", False),
    ("feasibility", "build_network", False),
    ("exact", "solve_exact", False),
    ("exact", "solve_exact_weighted", False),
    ("approx", "solve_approx", False),
    ("approx", "SolverConfig.resolved", False),
    ("approx", "expand_multiplicities", False),
    ("approx", "enumerate_tuples", True),
    ("approx", "solve_annotated", False),
    ("approx", "info_tuple", False),
    ("approx", "candidate_set", False),
    ("approx", "solve_extended", False),
    ("approx", "good_tuple_from_opt", False),
    ("core", "equivalence_classes", False),
    ("core", "stars", False),
    ("core", "parse_instance", False),
    ("colorweights", "random_colorings", False),
    ("colorweights", "weight_estimates", False),
    ("independence", "find_independent_set", False),
    ("independence", "is_conflicting", False),
    ("domset", "min_dominator_forced", False),
    ("reductions", "csp_to_mdk", False),
    ("reductions", "solve_mdk_exact", False),
    ("reductions", "mdk_to_cvc", False),
    ("reductions", "mdk_to_wcvc", False),
    ("cli", "main", False),
)

EXACT_SOLVERS = ("exact.solve_exact", "exact.solve_exact_weighted")
SPAN_CAP = 100_000


def _outcome_counts(name: str, result, parent: str | None, bump) -> None:
    """Counters for the useful outcomes of a call, next to its attempts."""
    if name == "feasibility.check_feasible":
        if result is not None:
            bump("feasibility.check_feasible.feasible")
        if parent in EXACT_SOLVERS:
            bump("exact.candidates_checked")
    elif name == "colorweights.random_colorings":
        bump("colorweights.random_colorings.colorings_built", len(result))
    elif name in ("independence.find_independent_set", "domset.min_dominator_forced"):
        if result is not None:
            bump(name + ".found")
    elif name == "approx.solve_extended":
        if result.solution is not None:
            bump("approx.solve_extended.solved")
        if result.reason is not None:
            bump("approx.solve_extended.reason." + result.reason)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _push(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _pop(self, frame: list) -> str | None:
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        name = frame[1]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent[0] if parent else 0, name, frame[2], end))
        return parent[1] if parent else None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                parent = tracer._pop(frame)
            _outcome_counts(name, result, parent, tracer.bump)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def resume(gen):
            try:
                while True:
                    frame = tracer._push(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._pop(frame)
                    tracer.bump(name + ".tuples")
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            return resume(fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "caphs"]
        for mod_name, path, is_generator in TARGETS:
            owner = sys.modules["caphs." + mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            wrapper = (self._wrap_generator if is_generator else self._wrap)(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                if mod is not owner and vars(mod).get(attr) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
