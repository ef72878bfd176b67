"""Each validator checks every layer below it once per call.

The base multiple set is the layer every other one stands on, so the calls
to ``validate_multiple_set`` count how often the lower layers run.
"""

import os
import sys

import pytest

import multicat as mc
from multicat.serialize import load

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def base_calls(monkeypatch):
    """Count calls to validate_multiple_set through every multicat namespace."""
    calls = []
    original = mc.validate_multiple_set

    def counted(ms):
        calls.append(ms)
        return original(ms)

    for name, mod in list(sys.modules.items()):
        if (name == "multicat" or name.startswith("multicat.")) and (
            getattr(mod, "validate_multiple_set", None) is original
        ):
            monkeypatch.setattr(mod, "validate_multiple_set", counted)
    return calls


@pytest.mark.parametrize(
    "fixture, validator, calls",
    [
        ("parallel-edges-free-weak.mset", mc.validate_stretching, 2),
        ("pair-groupoid.mset", mc.validate_strict, 1),
        ("pair-groupoid.mset", mc.validate_reflexive_magma, 1),
        ("pair-groupoid.mset", mc.validate_magma, 1),
    ],
)
def test_each_layer_validated_once(fixture, validator, calls, base_calls):
    obj = load(os.path.join(FIXTURE_DIR, fixture))
    assert validator(obj).ok
    assert len(base_calls) == calls


def test_free_weak_validates_its_generators_once(base_calls):
    mc.free_weak(load(os.path.join(FIXTURE_DIR, "path2.mset")))
    assert len(base_calls) == 1


def test_the_base_report_carries_the_cell_sets_it_built():
    """The layers above read the base's membership index off its report."""
    ms = load(os.path.join(FIXTURE_DIR, "square.mset"))
    report = mc.validate_multiple_set(ms)
    assert report.cells == {c: set(xs) for c, xs in ms.cells.items()}
    assert report.sorted().cells is report.cells
    ms.cells[()] = [0]  # an integer cell id breaks the document rule
    assert mc.validate_multiple_set(ms).cells is None


def test_an_identity_stretching_is_validated_once(base_calls):
    """M is C, built in memory or read from its document: one base check."""
    e = mc.identity_stretching(load(os.path.join(FIXTURE_DIR, "pair-groupoid.mset")))
    for obj in (e, load(os.path.join(FIXTURE_DIR, "pair-groupoid-identity.mset"))):
        base_calls.clear()
        assert mc.validate_stretching(obj).ok
        assert base_calls == [obj.magma.base]
