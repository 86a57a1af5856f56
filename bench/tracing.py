"""Span tracing installed from outside the library.

`Tracer.install()` replaces every public function of the traced modules, and
the public class/static methods of their public classes, with a wrapper that
records one span per call: name, start, end and parent.  The replacement is
made in every `gpi1d` namespace that holds the original object, so names that
a sibling module imported at load time (`gpi1d.lattice.scheme_to_transfer`,
the `from .params import ...` names in `gpi1d.cli`) are traced as well; names
looked up at call time (`gpi1d.cli.spectral.s_matrix`, lattice's local
`from .spectral import point_spectrum`) resolve to the wrapper by themselves.
`install(extra)` wraps further callables, such as the benchmark's own code
that runs between library calls (layer `bench`).  `uninstall()` restores the
originals.

Spans are kept in flat arrays while tracing runs and are reduced to per-layer
figures afterwards by `summarize`.  A span's self time is its duration minus
the durations of its direct children; the program is single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("params", "spectral", "berry", "lattice", "cli")
HARNESS = "bench"  # layer of the benchmark's own spans


def _traced_callables(module):
    """(owner, attribute, original, span name) for every traced callable of `module`."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found.append((module, name, obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and isinstance(raw, (classmethod, staticmethod)):
                    found.append((obj, attr, raw, f"{layer}.{name}.{attr}"))
    return found


class Tracer:
    """Records spans of calls into the library while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []

    def _wrap(self, fn, name_id: int):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = time.perf_counter()
                self._stack.pop()
        return span

    def install(self, extra=()) -> None:
        """Wrap the library; `extra` adds (owner, attribute, span name) triples to wrap."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"gpi1d.{layer}"] for layer in LAYERS]
        namespaces = [m for n, m in sys.modules.items() if n == "gpi1d" or n.startswith("gpi1d.")]
        replacement: dict[int, object] = {}
        for module in modules:
            for owner, attr, original, span_name in _traced_callables(module):
                if span_name not in self.names:
                    self.names.append(span_name)
                name_id = self.names.index(span_name)
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(original.__func__, name_id))
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                else:
                    replacement[id(original)] = self._wrap(original, name_id)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        for owner, attr, span_name in extra:
            if span_name not in self.names:
                self.names.append(span_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self.names.index(span_name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def summarize(tracer: Tracer) -> dict:
    """Reduce recorded spans to per-name and per-layer totals.

    Returns a dict with, per span name: `calls` (all spans), `nested_calls`
    (spans opened inside a library span, i.e. calls the library made itself),
    `self_s`, `total_s` and the list of durations; per layer: `calls`,
    `nested_calls`, `self_s`; and `self_sum_s`, the self time of all spans.
    """
    n = len(tracer.span_start)
    name = np.asarray(tracer.span_name, dtype=np.int64)
    parent = np.asarray(tracer.span_parent, dtype=np.int64)
    dur = np.asarray(tracer.span_end) - np.asarray(tracer.span_start)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    layer_of = np.array([s.split(".", 1)[0] for s in tracer.names] or [""])
    parent_layer = np.full(n, "", dtype=object)
    if n:
        parent_layer[has_parent] = layer_of[name[parent[has_parent]]]
    # a call the library made itself: opened inside a library span
    nested = has_parent & (parent_layer != HARNESS)

    per_name: dict[str, dict] = {}
    for name_id, span_name in enumerate(tracer.names):
        sel = name == name_id
        per_name[span_name] = {
            "calls": int(sel.sum()),
            "nested_calls": int((sel & nested).sum()),
            "self_s": float(self_t[sel].sum()),
            "total_s": float(dur[sel].sum()),
            "durations": dur[sel],
            "parent_layer": parent_layer[sel],
            "self": self_t[sel],
        }
    per_layer = {}
    for layer in LAYERS + (HARNESS,):
        ids = [i for i, s in enumerate(tracer.names) if s.split(".", 1)[0] == layer]
        sel = np.isin(name, ids)
        per_layer[layer] = {
            "calls": int(sel.sum()),
            "nested_calls": int((sel & nested).sum()),
            "self_s": float(self_t[sel].sum()),
        }
    return {"per_name": per_name, "per_layer": per_layer,
            "self_sum_s": float(self_t.sum()), "spans": n}
