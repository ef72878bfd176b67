import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicat as mc
from multicat import fixtures as fx
from multicat.serialize import parse, to_document
from oracles import multiple_set_axiom_ids

ALL_FIXTURES = {
    "point": fx.point(),
    "square": fx.square(),
    "path2": fx.path2(),
    "single_edge": fx.single_edge(),
    "parallel_edges": fx.parallel_edges(),
    "grid2x2": fx.grid2x2(),
    "terminal": mc.terminal_multiple_set(2, 2),
}


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_fixtures_validate(name):
    report = mc.validate_multiple_set(ALL_FIXTURES[name])
    assert report.ok, report.render()


def test_face_lookup():
    sq = fx.square()
    assert mc.face(sq, (1, 2), "A", 2, mc.SOURCE) == "e0"
    assert mc.face(sq, (1, 2), "A", 1, mc.TARGET) == "f1"
    with pytest.raises(mc.UnknownCell):
        mc.face(sq, (1,), "nope", 1, mc.SOURCE)


def test_iterated_face_order_independent():
    sq = fx.square()
    one = mc.iterated_face(sq, (1, 2), "A", [(1, mc.SOURCE), (2, mc.TARGET)])
    two = mc.iterated_face(sq, (1, 2), "A", [(2, mc.TARGET), (1, mc.SOURCE)])
    assert one == two == ((), "v10")


def test_broken_st_detected():
    sq = fx.square()
    sq.src[((1, 2), 2)] = {"A": "e1"}
    report = mc.validate_multiple_set(sq)
    assert not report.ok
    assert report.axioms() == multiple_set_axiom_ids(sq)


def test_missing_table_is_shape_violation():
    sq = fx.square()
    del sq.src[((1, 2), 1)]
    report = mc.validate_multiple_set(sq)
    assert "SHAPE" in report.axioms()


def test_colors_outside_the_bounds_are_shape_violations():
    sq = fx.square()
    sq.dim_bound = 1
    report = mc.validate_multiple_set(sq)
    assert report.render() == (
        "SHAPE color=[1, 2] cells= color [1, 2] outside universe_bound 2 and dim_bound 1")
    assert report.axioms() == multiple_set_axiom_ids(sq)
    sq = fx.square()
    sq.universe_bound = 1
    report = mc.validate_multiple_set(sq)
    assert {v.color for v in report.violations} == {(2,), (1, 2)}
    assert report.axioms() == multiple_set_axiom_ids(sq) == {"SHAPE"}


@pytest.mark.parametrize("build", [
    lambda X: mc.free_strict(X, 1, 8),
    lambda X: mc.free_reflexive(X, 1),
    lambda X: mc.search_reversors(X, 0),
    lambda X: mc.free_weak(X),
], ids=["free_strict", "free_reflexive", "search_reversors", "free_weak"])
def test_constructions_refuse_cells_outside_the_bounds(build):
    # each used to build from the square's [1, 2] cell, or to fail late in
    # the weak completion; a reflexive result could not be read back
    sq = fx.square()
    sq.dim_bound = 1
    with pytest.raises(mc.InvalidBase):
        build(sq)


def _edge_ids(*ids):
    """Give the single edge's color the cell ids ``ids``, each with the edge's faces."""
    def change(ms):
        ms.cells[(1,)] = list(ids)
        for tabs, y in ((ms.src, "v0"), (ms.tgt, "v1")):
            tabs[((1,), 1)] = {x: y for x in ids}
    return change


def _edge_color(c):
    """Move the single edge, faces included, to the color ``c``."""
    def change(ms):
        ms.cells[c] = ms.cells.pop((1,))
        for tabs in (ms.src, ms.tgt):
            tabs[(c, c[0])] = tabs.pop(((1,), 1))
    return change


def _bound(name, value):
    return lambda ms: setattr(ms, name, value)


# a change to the single edge that breaks the document rule, and the one
# violation its report holds; the parser refuses its document with the
# violation's detail
RULE_BREAKS = {
    "int-id": (_edge_ids(1), "[1] cell ids at color [1] must be strings"),
    "none-id": (_edge_ids(None), "[1] cell ids at color [1] must be strings"),
    "float-id": (_edge_ids(1.5), "[1] cell ids at color [1] must be strings"),
    "bool-id": (_edge_ids(True), "[1] cell ids at color [1] must be strings"),
    "repeated-id": (lambda ms: ms.cells[(1,)].append("x"), "[1] cell id repeated at color [1]"),
    "bool-color": (_edge_color((True,)), "[] bad color [True]: entries must be integers"),
    "zero-color": (_edge_color((0,)),
                   "[] bad color [0]: entry at position 0 of (0,) is not >= 1"),
    "decreasing-color": (_edge_color((2, 1)), "[] bad color [2, 1]: entries (2, 1)"
                         " not strictly increasing at position 1"),
    "bool-universe-bound": (_bound("universe_bound", True),
                            "[] universe_bound must be an integer >= 0, got True"),
    "float-dim-bound": (_bound("dim_bound", 1.0), "[] dim_bound must be an integer >= 0, got 1.0"),
    "negative-dim-bound": (_bound("dim_bound", -1), "[] dim_bound must be an integer >= 0, got -1"),
}


def broken_edge(name) -> mc.MultipleSet:
    ms = fx.single_edge()
    RULE_BREAKS[name][0](ms)
    return ms


@pytest.mark.parametrize("name", sorted(RULE_BREAKS))
def test_the_document_rule_is_checked_per_color(name):
    ms = broken_edge(name)
    report = mc.validate_multiple_set(ms)
    assert [f"{list(v.color)} {v.detail}" for v in report.violations] == [RULE_BREAKS[name][1]]
    assert [(v.axiom, v.cells) for v in report.violations] == [("SHAPE", ())]
    assert report.axioms() == multiple_set_axiom_ids(ms)
    # the parser refuses the document with the same message
    with pytest.raises(mc.ParseError) as info:
        parse(json.dumps(to_document(ms)))
    assert str(info.value) == report.violations[0].detail


@pytest.mark.parametrize("name", sorted(RULE_BREAKS))
@pytest.mark.parametrize("build", [
    lambda X: mc.free_strict(X, 1, 8),
    lambda X: mc.free_reflexive(X, 1),
    lambda X: mc.search_reversors(X, 0),
    lambda X: mc.free_weak(X),
], ids=["free_strict", "free_reflexive", "search_reversors", "free_weak"])
def test_constructions_refuse_a_set_that_breaks_the_document_rule(build, name):
    with pytest.raises(mc.InvalidBase):
        build(broken_edge(name))


def test_identity_morphism_validates():
    sq = fx.square()
    assert mc.validate_morphism(mc.identity_morphism(sq)).ok


def test_broken_morphism_flagged():
    sq = fx.square()
    f = mc.identity_morphism(sq)
    f.maps[(1,)]["e0"] = "e1"
    report = mc.validate_morphism(f)
    assert {"MOR-S", "MOR-T"} & report.axioms()


def test_morphism_composition():
    sq = fx.square()
    i = mc.identity_morphism(sq)
    assert mc.morphisms_equal(mc.compose_morphisms(i, i), i)


def test_terminal_multiple_set_has_one_cell_per_color():
    t = mc.terminal_multiple_set(2, 2)
    assert all(len(t.cells_at(c)) == 1 for c in t.colors())
    assert len(t.colors()) == 4


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 10_000),
    st.floats(0.0, 1.0),
)
def test_random_multiple_set_always_valid(d, sizes, seed, glue):
    ms = mc.random_multiple_set(d, d, sizes=sizes, seed=seed, glue_prob=glue)
    report = mc.validate_multiple_set(ms)
    assert report.ok, report.render()


def test_random_multiple_set_deterministic_in_seed():
    a = mc.random_multiple_set(2, 2, sizes=2, seed=5, glue_prob=0.7)
    b = mc.random_multiple_set(2, 2, sizes=2, seed=5, glue_prob=0.7)
    assert a.cells == b.cells and a.src == b.src and a.tgt == b.tgt


def test_morphism_to_malformed_target_reports_shape():
    sq = fx.square()
    f = mc.identity_morphism(sq)
    f.target = copy.deepcopy(sq)
    del f.target.src[((1, 2), 1)]["A"]
    report = mc.validate_morphism(f)
    assert [(v.axiom, v.cells, v.detail) for v in report.violations] == [
        ("SHAPE", ("A",), "source[1] undefined in the target")
    ]
    f = mc.identity_morphism(sq)
    f.source = copy.deepcopy(sq)
    del f.source.tgt[((1,), 1)]["e0"]
    assert mc.validate_morphism(f).axioms() == {"SHAPE"}
