"""Span tracing of the package's layers, applied from outside the package.

Each traced function is replaced by a wrapper in every ``magnon_blockade``
module that holds a reference to it.  Modules import each other's functions
by name (``sweep`` holds its own ``build_liouvillian``), so patching only the
defining module would miss those calls.  Spans are kept in memory as
(name, start, end, parent) rows; ``fold`` adds them to per-layer totals and
keeps the first ``keep_spans`` of them, which are written out once the run
ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "magnon_blockade"

#: The traced layer functions, as (module, function) under ``magnon_blockade``.
LAYER_FUNCTIONS = (
    ("operators", "embed"),
    ("model", "build_effective_hamiltonian"),
    ("model", "build_dissipators"),
    ("steady_state", "build_liouvillian"),
    ("steady_state", "solve_steady_state"),
    ("steady_state", "converge_truncation"),
    ("observables", "g2_zero_delay"),
    ("observables", "blockade_metrics"),
    ("analytic", "amplitudes_for"),
    ("analytic", "g2_analytic"),
    ("sweep", "run_sweep"),
    ("sweep", "find_minimum"),
)

LAYERS = tuple(f"{mod}.{fn}" for mod, fn in LAYER_FUNCTIONS)

SOLVE_LAYER = "steady_state.solve_steady_state"

#: Generators above this many rows take the sparse LU branch of the solver.
DENSE_SOLVE_MAX_ROWS = 4096


def _solve_rows(args, kwargs) -> int | None:
    """Rows of the generator handed to solve_steady_state, if recognisable."""
    lv = args[0] if args else kwargs.get("lv")
    dim = getattr(lv, "dim", None)
    return dim * dim if isinstance(dim, int) else None


class Tracer:
    """Records nested spans around the layer functions while installed.

    A span's self time is its duration minus the durations of its child
    spans.  The wrapper's own cost around a child lies outside the child's
    span but inside its parent's, so the self times of a traced pass add up
    to about its traced wall time: the plain wall time plus the tracing
    overhead.
    """

    def __init__(self, keep_spans: int):
        #: Spans since the last fold: (index, layer, start, end, parent, point).
        self.spans: list[tuple[int, int, float, float, int, int] | None] = []
        self.kept: list[tuple[int, int, float, float, int, int]] = []
        self.keep_spans = keep_spans
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.solve_rows: list[int | None] = []
        #: Index of the point being evaluated; spans of one point share it.
        self.point = -1
        self._folded = 0
        self._stack: list[int] = []
        self.absent: list[str] = []
        self._patches = self._find_patches()

    def _wrap(self, layer_id: int, func):
        spans = self.spans
        stack = self._stack
        solve_rows = self.solve_rows if LAYERS[layer_id] == SOLVE_LAYER else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if solve_rows is not None:
                solve_rows.append(_solve_rows(args, kwargs))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                spans[index] = (index, layer_id, start, clock(), parent, tracer.point)
                stack.pop()

        return traced

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every reference to a layer."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        patches = []
        for layer_id, (mod_name, fn_name) in enumerate(LAYER_FUNCTIONS):
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(LAYERS[layer_id])
                continue
            wrapper = self._wrap(layer_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def fold(self):
        """Add the spans recorded since the last fold to the per-layer totals."""
        spans = self.spans
        for _, layer_id, start, end, parent, _ in spans:
            duration = end - start
            self.calls[layer_id] += 1
            self.self_s[layer_id] += duration
            if parent >= 0:
                self.self_s[spans[parent][1]] -= duration
        base = self._folded
        room = max(0, self.keep_spans - len(self.kept))
        self.kept.extend(
            (base + index, layer_id, start, end, base + parent if parent >= 0 else -1, point)
            for index, layer_id, start, end, parent, point in spans[:room]
        )
        self._folded += len(spans)
        spans.clear()

    def summary(self) -> dict:
        """Per-layer call counts and self times over every folded span."""
        return {
            layer: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, layer in enumerate(LAYERS)
        }

    def write(self, path):
        """Write every kept span as one JSON line, with the layer name spelled out."""
        with open(path, "w") as fh:
            for index, layer_id, start, end, parent, point in self.kept:
                fh.write(json.dumps({
                    "id": index,
                    "name": LAYERS[layer_id],
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "point": point,
                }) + "\n")
