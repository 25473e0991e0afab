"""Span recording around calls into each module of the package.

The tracer replaces, for the duration of a traced phase, every public
function of a layer module (its ``__all__``) and the constructors and
public methods of its classes with a wrapper that records a span: layer
name, start, end and the index of the enclosing span.  Every binding of a
replaced function in any package module is swapped too, so calls that cross
modules through ``from .x import f`` names are seen.  Nothing in the
package is edited; :meth:`Tracer.uninstall` restores every original.

Spans and work counts are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import functools
import gzip
import importlib
import json
import os
import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "inference", "montecarlo", "bootstrap", "curves",
          "variance", "functionals", "empirical", "dgp")
COUNTS = ("curves.points", "variance.cells", "bootstrap.weights", "cli.bytes_in")


def _count_points(counts, args, kwargs):
    # Sum of (n + G) over single-curve sweeps; a difference curve recurses
    # into two of them, which are counted there.
    curve = args[0]
    if hasattr(curve, "sample"):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        counts["curves.points"] += curve.sample.n + len(grid)


def _count_cells(counts, args, kwargs):
    kernel, vgrid = args[0], (args[3] if len(args) > 3 else kwargs["vgrid"])
    counts["variance.cells"] += len(vgrid) * (kernel.n1 + kernel.n2)


def _count_weights(counts, args, kwargs):
    counts["bootstrap.weights"] += int(args[0] if args else kwargs["n"])


def _count_bytes(counts, args, kwargs):
    counts["cli.bytes_in"] += os.path.getsize(args[0] if args else kwargs["path"])


_COUNTERS = {
    ("curves", "eval_on_grid"): _count_points,
    ("variance", "sigma_curve"): _count_cells,
    ("bootstrap", "draw_weights"): _count_weights,
    ("cli", "load_csv"): _count_bytes,
}


class Tracer:
    """Records spans ``(layer, start, end, parent)``; parent -1 is top level."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if counter is not None:
                counter(counts, args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"isdtest.{layer}") for layer in LAYERS}
        package_modules = [m for name, m in sys.modules.items()
                           if m is not None and (name == "isdtest" or name.startswith("isdtest."))]
        for layer, module in layers.items():
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapper = self._wrap(layer, obj, _COUNTERS.get((layer, name)))
                    for owner in package_modules:
                        for attr, value in list(vars(owner).items()):
                            if value is obj:
                                self._set(owner, attr, wrapper)
                elif isinstance(obj, type) and not issubclass(obj, enum.Enum):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue  # properties, classmethods and data reach the wrapped constructor
            constructor = name == "__post_init__" or (
                name == "__init__" and not dataclasses.is_dataclass(cls))
            if constructor or not name.startswith("_"):
                self._set(cls, name, self._wrap(layer, value))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _inside_ops(self, ops: list[tuple[float, float]]) -> list[bool]:
        """Which spans belong to an op, not to the set-up between ops."""
        starts = [start for start, _ in ops]
        inside = []
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inside.append(inside[parent])
                continue
            i = bisect.bisect_right(starts, start) - 1
            inside.append(i >= 0 and end <= ops[i][1])
        return inside

    def layer_stats(self, ops: list[tuple[float, float]]) -> dict:
        """Per-op self time and calls of each layer, plus trace coverage.

        A span's self time is its duration minus the time its child spans
        cover.  Coverage is the share of op wall time inside top-level spans.
        Only spans inside ``ops`` count.
        """
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        inside = self._inside_ops(ops)
        for (layer, start, end, parent), keep in zip(self.spans, inside):
            if not keep:
                continue
            if parent >= 0:
                child_s[parent] += end - start
            else:
                top_s += end - start
        for (layer, start, end, _), inner, keep in zip(self.spans, child_s, inside):
            if keep:
                self_s[layer] += end - start - inner
                calls[layer] += 1
        n_ops = len(ops)
        wall = sum(end - start for start, end in ops)
        stats = {}
        for layer in LAYERS:
            stats[f"{layer}.self_ms"] = (self_s[layer] * 1e3 / n_ops, "ms")
            stats[f"{layer}.calls"] = (calls[layer] / n_ops, "count")
        for name in COUNTS:
            stats[name] = (self.counts[name] / n_ops, "bytes" if name == "cli.bytes_in" else "count")
        stats["trace.coverage"] = (top_s / wall, "ratio")
        return stats

    def write(self, path, ops: list[tuple[float, float]], meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {**meta, "layers": LAYERS, "ops": ops,
                  "spans": [[LAYERS.index(layer), start, end, parent]
                            for layer, start, end, parent in self.spans]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(record, fh)
