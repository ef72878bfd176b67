"""The benchmark's tracer wraps library functions by module and name
(perfbench/tracing.py); these checks keep every hook it names resolvable."""

import importlib
import importlib.util
import os

from multicat import fixtures as fx
from test_strictcat import loops

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    for mod_name, attr, _ in load_tracing().WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_dump_runs_inside_the_serialize_span(tmp_path):
    from multicat.serialize import dump

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        dump(fx.path2(), str(tmp_path / "path2.mset"))
    finally:
        tracer.uninstall()
    assert "serialize.serialize" in [span[0] for span in tracer.spans]
    assert tracer.counts["serialize.bytes"] == (tmp_path / "path2.mset").stat().st_size


def test_free_strict_spans_and_counters():
    # the counters read the presentation's union-find and the tracer wraps
    # StrictPresentation.saturate by name: a refactor of either shows here
    from multicat import strictcat

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        p = strictcat.free_strict(loops(2), 1, 9)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert "strictcat.free_strict" in names
    assert "strictcat.saturate" in names
    assert tracer.counts["strictcat.nodes"] == len(p.nodes) == 293
    assert tracer.counts["strictcat.classes"] == sum(p.class_counts().values()) == 64
