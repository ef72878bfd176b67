"""Where small-mix's request mix comes from: the test suite's own traffic.

    python3 perfbench/mixprobe.py

runs the test suite under ``tests/`` once and counts the outermost calls of
the library's public entry points, grouped into small-mix's request kinds
(a call made inside another counted call belongs to the outer one).  A
validation is a ``validate`` request if it passes and a mutated-document
request if it reports violations; ``validate_strict`` and
``validate_stretching`` have kinds of their own, every other validator
counts as ``validate-mutated``.  Parsing, serializing, quotients and
reversor searches called on their own are steps of those requests, and are
counted as ``other``.  The script prints the counts, which
``workloads.SmallMix.TEST_SUITE_CALLS`` records, and the latency of the
counted calls.  It needs pytest; the benchmark itself does not.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

ENTRY_POINTS = {
    "multicat.cli": ["main"],
    "multicat.core": ["validate_multiple_set"],
    "multicat.reflexive": ["validate_reflexive", "free_reflexive"],
    "multicat.magma": ["validate_magma", "validate_reflexive_magma"],
    "multicat.strictcat": ["validate_strict", "free_strict", "quotient_to_category"],
    "multicat.reversors": ["validate_reversors", "search_reversors"],
    "multicat.stretching": ["validate_stretching", "free_weak"],
    "multicat.serialize": ["parse", "serialize", "load"],
}
MUTATED_KIND = {"validate_strict": "validate-mutated-strict",
                "validate_stretching": "validate-mutated-stretching"}


def kind_of(name: str, args: tuple, result) -> str:
    if name.startswith("free_"):
        return "free-" + name[5:]
    if name == "main":
        argv = args[0] if args else []
        if argv[:1] == ["free"]:
            return "free-" + argv[1]
        if argv[:1] == ["validate"]:
            return "validate" if result == 0 else "validate-mutated"
        return "other"
    if name.startswith("validate_") and result is not None:
        return "validate" if result.ok else MUTATED_KIND.get(name, "validate-mutated")
    return "other"


class Probe:
    def __init__(self):
        self.depth = 0
        self.calls: list[tuple[str, float]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.depth += 1
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.calls.append((kind_of(name, args, result), time.perf_counter() - t0))

        return wrapper

    def pytest_configure(self, config):
        for mod_name in ENTRY_POINTS:
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "multicat" or n.startswith("multicat."))]
        for mod_name, names in ENTRY_POINTS.items():
            for name in names:
                original = getattr(sys.modules[mod_name], name)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)


def main() -> int:
    probe = Probe()
    code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")],
                       plugins=[probe])
    counts: dict[str, int] = {}
    for kind, _ in probe.calls:
        counts[kind] = counts.get(kind, 0) + 1
    for kind, n in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{kind:30} {n}")
    times = [dt for _, dt in probe.calls]
    q = statistics.quantiles(times, n=100)
    print(f"{len(times)} calls: p50 {q[49] * 1e3:.3g} ms, p99 {q[98] * 1e3:.3g} ms, "
          f"max {max(times) * 1e3:.3g} ms")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
