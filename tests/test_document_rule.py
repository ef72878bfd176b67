"""Whatever validates writes a document that parses back to its own text.

The document rule (``multicat.core``) is one rule for what a model holds:
the parser refuses a document that breaks it, and the validators report a
model that breaks it as SHAPE.  Each probe here is a model built in code
that breaks it; all but two (a decreasing color and a negative bound, which
fall outside the bounds) once validated and then wrote a document the
parser refused.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicat as mc
from multicat import fixtures as fx
from multicat.reversors import Chain
from multicat.serialize import parse, serialize
from test_core import RULE_BREAKS, broken_edge


def validate(obj) -> mc.ValidationReport:
    if isinstance(obj, mc.Stretching):
        return mc.validate_stretching(obj)
    if isinstance(obj, mc.ReversorStructure):
        return mc.validate_reversors(obj)
    if isinstance(obj, mc.MagmaStructure):
        return mc.validate_reflexive_magma(obj)
    return mc.validate_multiple_set(obj)


def round_trips_if_valid(obj) -> bool:
    """Whether ``obj`` validates; one that does writes a document that
    parses, and whose parse writes the same text."""
    if not validate(obj).ok:
        return False
    text = serialize(obj)
    assert serialize(parse(text)) == text
    return True


def _stretching(**fields) -> mc.Stretching:
    e = mc.free_weak(fx.single_edge(), stages=2).stretching
    for name, value in fields.items():
        setattr(e, name, value)
    return e


def _staged(value) -> mc.Stretching:
    """A stretching one of whose cells has the stage ``value``."""
    e = _stretching()
    e.stage_of[next(iter(e.stage_of))] = value
    return e


def _reversors(**fields) -> mc.ReversorStructure:
    r = mc.search_reversors(fx.pair_groupoid(2), 0)[0]
    for name, value in fields.items():
        setattr(r, name, value)
    return r


def _true_entry() -> mc.ReversorStructure:
    r = _reversors()
    r.chains = [Chain(ch.color, (True,), ch.maps) for ch in r.chains]
    return r


def _twice_mapped() -> mc.ReversorStructure:
    """A structure one of whose chain maps lists its first pair twice."""
    r = _reversors()
    ch = r.chains[0]
    r.chains[0] = Chain(ch.color, ch.entries, (ch.maps[0][:1] + ch.maps[0],) + ch.maps[1:])
    return r


def _ghost_projection() -> mc.Stretching:
    e = _stretching()
    e.pi[()]["ghost"] = next(iter(e.pi[()].values()))
    return e


def _rekeyed(build, tables, old, new):
    """``build()`` with the entries its ``tables`` keys by ``old`` keyed by ``new``."""
    obj = build()
    tabs = tables(obj)
    tabs[new] = tabs.pop(old)
    return obj


PROBES = {
    **{f"ms-{name}": lambda name=name: broken_edge(name) for name in RULE_BREAKS},
    "stage_of-negative": lambda: _staged(-1),
    "stage_of-bool": lambda: _staged(True),
    "stage-negative": lambda: _stretching(stage=-1),
    "stage-bool": lambda: _stretching(stage=True),
    "m-negative": lambda: _stretching(m=-1),
    "m-bool": lambda: _stretching(m=True),
    "stage_log-float": lambda: _stretching(stage_log=[{"composites": 1.5}]),
    "reversors-m-negative": lambda: _reversors(m=-1),
    "reversors-kind": lambda: _reversors(kind="nope"),
    "chain-entry-bool": _true_entry,
    "chain-map-twice": _twice_mapped,
    "pi-record-of-no-cell": _ghost_projection,
    "comp-direction-bool": lambda: _rekeyed(fx.pair_groupoid, lambda m: m.comp,
                                            ((1,), 1), ((1,), True)),
    "comp-color-bool": lambda: _rekeyed(fx.pair_groupoid, lambda m: m.comp,
                                        ((1,), 1), ((True,), 1)),
    "refl-direction-bool": lambda: _rekeyed(fx.pair_groupoid, lambda m: m.refl.refl,
                                            ((), 1), ((), True)),
    "brackets-direction-bool": lambda: _rekeyed(_stretching, lambda e: e.brackets,
                                                ((), 1), ((), True)),
    "pi-color-bool": lambda: _rekeyed(_stretching, lambda e: e.pi, (1,), (True,)),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_a_probe_that_breaks_the_rule_does_not_validate(name):
    obj = PROBES[name]()
    assert not round_trips_if_valid(obj)
    assert "SHAPE" in validate(obj).axioms()


@pytest.mark.parametrize("build", [_stretching, _reversors, fx.single_edge])
def test_the_unbroken_probes_round_trip(build):
    assert round_trips_if_valid(build())


# values a mutated field takes: the document's own and what no document holds
VALUES = [0, 1, 2, -1, True, False, 1.5, None, "1", "x", "v0", ()]


@st.composite
def mutated_multiple_sets(draw):
    """A valid ``random_multiple_set`` with one field changed: a bound, a
    color, a cell id or a face."""
    d = draw(st.integers(1, 2))
    ms = mc.random_multiple_set(d, d, sizes=draw(st.integers(1, 2)), seed=draw(st.integers(0, 999)))
    value = draw(st.sampled_from(VALUES))
    field = draw(st.sampled_from(["universe_bound", "dim_bound", "color", "cell", "face"]))
    if field in ("universe_bound", "dim_bound"):
        setattr(ms, field, value)
        return ms
    c = draw(st.sampled_from(sorted(ms.cells, key=lambda c: (len(c), c))))
    if field == "color":
        # one entry, or the only one of the empty color, replaced, faces included
        i = draw(st.integers(0, max(len(c) - 1, 0)))
        new = c[:i] + (value,) + c[i + 1:]
        ms.cells[new] = ms.cells.pop(c)
        for tabs in (ms.src, ms.tgt):
            for j, e in enumerate(c):
                tabs[(new, new[j])] = tabs.pop((c, e))
    elif field == "cell":
        ids = ms.cells[c]
        ids[draw(st.integers(0, len(ids) - 1))] = value
    elif c:
        tab = draw(st.sampled_from([ms.src, ms.tgt]))[(c, draw(st.sampled_from(c)))]
        tab[draw(st.sampled_from(sorted(tab)))] = value
    return ms


@settings(max_examples=150, deadline=None)
@given(mutated_multiple_sets())
def test_a_mutated_multiple_set_that_validates_round_trips(ms):
    round_trips_if_valid(ms)
