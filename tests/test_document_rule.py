"""Whatever validates writes a document that parses back to its own text.

The document rule (``multicat.core``) is one rule for what a model holds:
the parser refuses a document that breaks it, and the validators report a
model that breaks it as SHAPE.  Each probe here is a model built in code
that breaks it; all but two (a decreasing color and a negative bound, which
fall outside the bounds) once validated and then wrote a document the
parser refused, or one that dropped a face table, or, with a table key that
is not a pair, made the validators raise.  A model with one table key or
record key replaced (``rekeyed_models``) is reported, never raised on.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicat as mc
from multicat import fixtures as fx
from multicat.reversors import Chain
from multicat.core import key_problem
from multicat.serialize import parse, serialize, to_document
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


def _ghost_stage() -> mc.Stretching:
    e = _stretching()
    e.stage_of[((), "ghost")] = 0
    return e


def _unpaired(build, tables, value):
    """``build()`` with a 1-tuple key added to its ``tables``, holding ``value``."""
    obj = build()
    tables(obj)[((),)] = value
    return obj


def _rekeyed(build, tables, old, new):
    """``build()`` with the entries its ``tables`` keys by ``old`` keyed by ``new``."""
    obj = build()
    tabs = tables(obj)
    tabs[new] = tabs.pop(old)
    return obj


# face tables of square() that no document holds: each once validated, and
# serialize dropped it; the parser refuses the last three with these messages
FACE_BREAKS = {
    "faces-key-not-a-pair": (lambda ms: ms.src.__setitem__(((1,),), {}), (),
                             "faces key ((1,),) is not a (color, direction) pair"),
    "faces-color-str": (lambda ms: ms.src.__setitem__((("x",), 1), dict(ms.src[(1,), 1])), (),
                        "bad color ['x']: entries must be integers"),
    "faces-direction-not-an-entry": (
        lambda ms: ms.src.__setitem__(((1,), 2), dict(ms.src[(1,), 1])), (1,),
        "faces record at color [1] has direction 2, which is not an entry of the color"),
    "faces-record-of-no-cell": (lambda ms: ms.src[(1,), 1].__setitem__("ghost", "v00"), (1,),
                                "faces record names 'ghost', which is not a cell at color [1]"),
}


def face_break(name) -> mc.MultipleSet:
    ms = fx.square()
    FACE_BREAKS[name][0](ms)
    return ms


PROBES = {
    **{f"ms-{name}": lambda name=name: broken_edge(name) for name in RULE_BREAKS},
    **{name: lambda name=name: face_break(name) for name in FACE_BREAKS},
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
    "stage_of-record-of-no-cell": _ghost_stage,
    # a key that is not a pair once made the validators raise
    "comp-key-not-a-pair": lambda: _unpaired(fx.pair_groupoid, lambda m: m.comp, {}),
    "refl-key-not-a-pair": lambda: _unpaired(fx.pair_groupoid, lambda m: m.refl.refl, {}),
    "brackets-key-not-a-pair": lambda: _unpaired(_stretching, lambda e: e.brackets, {}),
    "stage_of-key-not-a-pair-str": lambda: _unpaired(_stretching, lambda e: e.stage_of, "x"),
    "stage_of-key-not-a-pair-int": lambda: _unpaired(_stretching, lambda e: e.stage_of, 0),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_a_probe_that_breaks_the_rule_does_not_validate(name):
    obj = PROBES[name]()
    assert not round_trips_if_valid(obj)
    assert "SHAPE" in validate(obj).axioms()


@pytest.mark.parametrize("name, message", [
    ("comp-key-not-a-pair", "comp key ((),) is not a (color, direction) pair"),
    ("refl-key-not-a-pair", "refl key ((),) is not a (color, direction) pair"),
    ("brackets-key-not-a-pair", "brackets key ((),) is not a (color, direction) pair"),
    ("stage_of-key-not-a-pair-str", "stage_of key ((),) is not a (color, cell) pair"),
    ("stage_of-key-not-a-pair-int", "stage_of key ((),) is not a (color, cell) pair"),
    ("stage_of-record-of-no-cell",
     "stage_of record names 'ghost', which is not a cell at color []"),
])
def test_a_broken_key_or_record_is_reported_alone(name, message):
    assert validate(PROBES[name]()).violations == [mc.Violation("SHAPE", (), (), message)]


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


@pytest.mark.parametrize("name", sorted(FACE_BREAKS))
def test_a_face_table_that_breaks_the_rule_is_reported_alone(name):
    _, color, message = FACE_BREAKS[name]
    report = mc.validate_multiple_set(face_break(name))
    assert report.violations == [mc.Violation("SHAPE", color, (), message)]
    assert report.cells is None


@pytest.mark.parametrize("name, record", [
    ("faces-color-str", [["x"], 1, "e0", "v00", "v01"]),
    ("faces-direction-not-an-entry", [[1], 2, "e0", "v00", "v01"]),
    ("faces-record-of-no-cell", [[1], 1, "ghost", "v00", "v00"]),
])
def test_the_parser_refuses_a_face_record_with_the_same_message(name, record):
    doc = json.loads(json.dumps(to_document(fx.square())))
    doc["faces"].append(record)
    with pytest.raises(mc.ParseError) as info:
        parse(json.dumps(doc))
    assert str(info.value) == FACE_BREAKS[name][2]


@pytest.mark.parametrize("name", sorted(FACE_BREAKS))
@pytest.mark.parametrize("build", [
    lambda X: mc.free_strict(X, 2, 4),
    lambda X: mc.free_reflexive(X, 2),
    lambda X: mc.search_reversors(X, 0),
    lambda X: mc.free_weak(X, size_bound=4),
], ids=["free_strict", "free_reflexive", "search_reversors", "free_weak"])
def test_constructions_refuse_a_face_table_that_breaks_the_rule(build, name):
    with pytest.raises(mc.InvalidBase):
        build(face_break(name))


@pytest.mark.parametrize("build, message", [
    (lambda: mc.free_strict(fx.path2(), 1.5, 8), "dim_bound must be an integer >= 0, got 1.5"),
    (lambda: mc.free_strict(fx.path2(), "2", 8), "dim_bound must be an integer >= 0, got '2'"),
    (lambda: mc.free_strict(fx.path2(), 1, -3), "size_bound must be an integer >= 0, got -3"),
    (lambda: mc.free_reflexive(fx.point(1, 1), True),
     "dim_bound must be an integer >= 0, got True"),
    (lambda: mc.free_weak(fx.path2(), dim_bound=1.0), "dim_bound must be an integer >= 0, got 1.0"),
    (lambda: mc.free_weak(fx.path2(), size_bound=None),
     "size_bound must be an integer >= 0, got None"),
], ids=["strict-dim-float", "strict-dim-str", "strict-size-negative", "reflexive-dim-bool",
        "weak-dim-float", "weak-size-none"])
def test_construction_bounds_are_checked_like_the_documents(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def _magma() -> mc.MagmaStructure:
    m = fx.pair_groupoid(2)
    return mc.MagmaStructure(base=m.base, comp=m.comp)


# one model of each kind whose tables a validator reads
MODELS = {
    "strict": lambda: mc.quotient_to_category(mc.free_strict(fx.path2(), 1, 6)),
    "reflexive-magma": fx.pair_groupoid,
    "magma": _magma,
    "reflexive": lambda: mc.free_reflexive(fx.parallel_edges(), 2),
    "identity": lambda: mc.identity_stretching(fx.pair_groupoid(2)),
    "weak": _stretching,
}


def keyed_tables(obj) -> list[tuple[str, dict]]:
    """Each keyed table of ``obj``, with the name the document rule gives it."""
    if isinstance(obj, mc.Stretching):
        stages = [("stage_of", obj.stage_of)] if obj.stage_of else []
        return keyed_tables(obj.magma) + [("brackets", obj.brackets), ("pi", obj.pi)] + stages
    if isinstance(obj, mc.MagmaStructure):
        refl = [("refl", obj.refl.refl)] if obj.refl is not None else []
        return keyed_tables(obj.base) + [("comp", obj.comp)] + refl
    if isinstance(obj, mc.ReflexiveStructure):
        return keyed_tables(obj.base) + [("refl", obj.refl)]
    return [("faces", obj.src), ("faces", obj.tgt)]


def validators(obj) -> list:
    """The validators that read ``obj``, the one of its kind first."""
    if isinstance(obj, mc.Stretching):
        return [mc.validate_stretching]
    if isinstance(obj, mc.ReflexiveStructure):
        return [mc.validate_reflexive]
    layers = [mc.validate_magma, mc.validate_reflexive_magma, mc.validate_strict]
    if isinstance(obj, mc.StrictCategory):
        return layers[::-1]
    return layers[1:] + layers[:1] if obj.refl is not None else layers


@st.composite
def rekeyed_models(draw):
    """A model of ``MODELS`` with one table key's color entry or direction,
    or one comp or brackets record key, replaced; and whether the new key
    breaks the document rule."""
    obj = MODELS[draw(st.sampled_from(sorted(MODELS)))]()
    tables = [(table, tabs) for table, tabs in keyed_tables(obj) if tabs]
    records = [tab for table, tabs in tables if table in ("comp", "brackets")
               for tab in tabs.values() if tab]
    if records and draw(st.booleans()):
        tab = draw(st.sampled_from(records))
        new = draw(st.one_of(st.sampled_from(VALUES),
                             st.lists(st.sampled_from(VALUES), max_size=3).map(tuple)))
        tab[new] = tab.pop(draw(st.sampled_from(sorted(tab))))
        return obj, not (type(new) is tuple and len(new) == 2)
    table, tabs = draw(st.sampled_from(tables))
    key = draw(st.sampled_from(sorted(tabs)))
    color = key if table == "pi" else key[0]
    value = draw(st.sampled_from(VALUES))
    if table not in ("pi", "stage_of") and draw(st.booleans()):
        new = (color, value)
    else:
        i = draw(st.integers(0, max(len(color) - 1, 0)))
        color = color[:i] + (value,) + color[i + 1:]
        new = color if table == "pi" else (color, key[1])
    held = tabs.pop(key)
    # a key equal to one the table holds, as ((), True) is to ((), 1), takes
    # that key's place and keeps its object
    new = next((k for k in tabs if k == new), new)
    # stage_of's colors are read a run of equal colors at a time: a key that
    # joins a run of an equal color, as (True,) does one of (1,), is written
    # and read back as one of the run's
    joins_run = table == "stage_of" and tabs and next(reversed(tabs))[0] == color
    tabs[new] = held
    return obj, key_problem(table, new) is not None and not joins_run


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rekeyed_models())
def test_a_rekeyed_model_is_reported_not_raised(case):
    obj, breaks = case
    reports = [validate(obj) for validate in validators(obj)]
    assert all(isinstance(report, mc.ValidationReport) for report in reports)
    if breaks:
        assert "SHAPE" in reports[0].axioms()
    if reports[0].ok:
        text = serialize(obj)
        assert serialize(parse(text)) == text
