"""Layer spans recorded from outside the library.

The tracer wraps the public layer functions of ``multicat`` in every
``multicat.*`` namespace that imported them (plus
``StrictPresentation.saturate``), records one span per call, and keeps the
spans in memory until the run ends.  Per-cell helpers such as ``face``,
``has_cell`` and ``minus`` are deliberately not wrapped: they run millions
of times per operation and the trace would end up measuring itself.

A span is ``[name, start, end, parent, op_id]``; a span's self time is its
duration minus the durations of its direct children.  Counters (nodes
interned, cells built, ...) are taken after a call returns, inside a
``trace.count`` span, so that their cost is charged to the tracer and not
to the layer that called the wrapped function.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name); the span name is "<module>.<what>" as in
# the per-layer metric names.  Several functions may share one span name:
# the CLI reads documents with _read_document + from_document, the API with
# parse, and all of it is the document parser.
WRAPPED = [
    ("multicat.cli", "main", "cli.main"),
    ("multicat.cli", "_read_document", "serialize.parse"),
    ("multicat.serialize", "parse", "serialize.parse"),
    ("multicat.serialize", "from_document", "serialize.parse"),
    ("multicat.serialize", "serialize", "serialize.serialize"),
    ("multicat.core", "validate_multiple_set", "core.validate_multiple_set"),
    ("multicat.reflexive", "validate_reflexive", "reflexive.validate_reflexive"),
    ("multicat.reflexive", "free_reflexive", "reflexive.free_reflexive"),
    ("multicat.magma", "validate_magma", "magma.validate_magma"),
    ("multicat.magma", "validate_reflexive_magma", "magma.validate_reflexive_magma"),
    ("multicat.magma", "composable_pairs", "magma.composable_pairs"),
    ("multicat.strictcat", "free_strict", "strictcat.free_strict"),
    ("multicat.strictcat", "quotient_to_category", "strictcat.quotient"),
    ("multicat.strictcat", "validate_strict", "strictcat.validate_strict"),
    ("multicat.reversors", "search_reversors", "reversors.search"),
    ("multicat.stretching", "free_weak", "stretching.free_weak"),
    ("multicat.stretching", "validate_stretching", "stretching.validate_stretching"),
]

SATURATE = "strictcat.saturate"
COUNT = "trace.count"
OP = "bench.op"


def _count_free_strict(p) -> dict:
    roots = sum(1 for i, r in enumerate(p.uf.parent) if i == r)
    return {"strictcat.nodes": len(p.nodes), "strictcat.classes": roots}


def _count_free_reflexive(fr) -> dict:
    return {"reflexive.cells_built": sum(len(v) for v in fr.base.cells.values())}


def _count_free_weak(fw) -> dict:
    built = sum(1 for s in fw.stretching.stage_of.values() if s >= 1)
    logged = sum(sum(entry.values()) for entry in fw.stage_log)
    return {"stretching.cells_built": built, "stretching.cells_logged": logged}


def _count_search(found) -> dict:
    return {"reversors.structures_found": len(found)}


def _count_pairs(pairs) -> dict:
    return {"magma.pairs_returned": len(pairs)}


def _count_serialize(text) -> dict:
    return {"serialize.bytes": len(text.encode("utf-8"))}


COUNTERS = {
    "strictcat.free_strict": _count_free_strict,
    "reflexive.free_reflexive": _count_free_reflexive,
    "stretching.free_weak": _count_free_weak,
    "reversors.search": _count_search,
    "magma.composable_pairs": _count_pairs,
    "serialize.serialize": _count_serialize,
}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.op_id = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                cidx = self.open(COUNT)
                for key, val in counter(result).items():
                    self.counts[key] = self.counts.get(key, 0) + val
                self.close(cidx)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every listed function in every multicat.* namespace."""
        from multicat.strictcat import StrictPresentation

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "multicat" or n.startswith("multicat."))]
        for mod_name, attr, span_name in WRAPPED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        original = StrictPresentation.saturate
        self._saved.append((StrictPresentation, "saturate", original))
        StrictPresentation.saturate = self._wrap(SATURATE, original)

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved = []


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive time, self time and call count.

    Inclusive time counts only the outermost span of a name, so a parser
    entry point that calls another parser entry point is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
        row["calls"] += 1
        row["self"] += (end - start) - child_time[i]
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            row["incl"] += end - start
    return out
