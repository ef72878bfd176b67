"""The term graph: faces against an independent oracle, the work budget at
its boundary, and the memory the graph holds."""

import gc
import tracemalloc

import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat.reflexive import ReflexiveTerms
from multicat.terms import Budget, as_budget, default_budget
from oracles import term_faces, term_trees
from test_strict_closures import loops


def _graph_of(monkeypatch, build):
    """The term graph that ``build`` tabulates (the free reflexive
    structure's or the weak completion's)."""
    graphs = []
    tabulate = ReflexiveTerms.tabulate

    def keep(g):
        graphs.append(g)
        return tabulate(g)

    monkeypatch.setattr(ReflexiveTerms, "tabulate", keep)
    build()
    (g,) = graphs
    return g


def _assert_faces_match_oracle(g, stacked=False, pushed=False):
    trees = term_trees(g.nodes)
    want = term_faces(g.nodes, g.generators, stacked=stacked, pushed=pushed)
    kinds = set()
    for t, faces in enumerate(want):
        kinds.add(g.nodes[t][0])
        have = {key: trees[g.face(t, *key)] for key in faces}
        assert have == faces, g.nodes[t]
        for d in range(1, g.generators.universe_bound + 1):
            if d not in g.color[t]:
                assert g.face(t, d, mc.SOURCE) is None and g.face(t, d, mc.TARGET) is None
    return kinds


@pytest.mark.parametrize("ms, dim, size", [(fx.grid2x2(), 2, 12), (fx.square(), 2, 9)],
                         ids=["grid2x2", "square"])
def test_strict_faces_match_oracle(ms, dim, size):
    p = mc.free_strict(ms, dim, size)
    assert _assert_faces_match_oracle(p) == {"gen", "refl", "comp"}


@pytest.mark.parametrize("ms, kwargs, kinds", [
    (fx.point(1, 1), {"m": 0, "stages": 2}, {"gen", "refl", "comp", "br", "rev"}),
    (fx.square(), {"dim_bound": 2, "stages": 2}, {"gen", "refl", "comp", "br"}),
    # reversor cells whose two faces differ
    (fx.point(2, 2), {"m": 0, "stages": 3}, {"gen", "refl", "comp", "br", "rev"}),
], ids=["point-m0", "square", "point2-m0"])
def test_weak_faces_match_oracle(monkeypatch, ms, kwargs, kinds):
    g = _graph_of(monkeypatch, lambda: mc.free_weak(ms, **kwargs))
    assert _assert_faces_match_oracle(g, stacked=True, pushed=True) == kinds


def test_reflexive_faces_match_oracle(monkeypatch):
    ms = mc.random_multiple_set(3, 3, sizes=1, seed=1, glue_prob=0.5)
    g = _graph_of(monkeypatch, lambda: mc.free_reflexive(ms, 3))
    assert max(map(len, g.color)) == 3
    assert _assert_faces_match_oracle(g, stacked=True) == {"gen", "refl"}


# a full run's units: each construction spends one per node it interns
FULL_RUNS = [
    (lambda b: mc.free_reflexive(fx.square(), 2, budget=b), 25, "free reflexive"),
    (lambda b: mc.free_strict(fx.square(), 2, 9, budget=b), 69, "strict closure"),
    (lambda b: mc.free_weak(fx.path2(), stages=3, budget=b), 342, "weak completion"),
]


@pytest.mark.parametrize("build, used, phase", FULL_RUNS, ids=["reflexive", "strict", "weak"])
def test_budget_of_a_full_run_fits_exactly(build, used, phase):
    budget = Budget(used)
    build(budget)
    assert budget.used == used
    with pytest.raises(mc.BudgetExceeded) as info:
        build(Budget(used - 1))
    assert (info.value.phase, info.value.used, info.value.limit, info.value.requested) == (
        phase, used - 1, used - 1, 1)


def test_negative_budget_is_a_value_error():
    with pytest.raises(ValueError, match="budget must be an integer >= 0, got -5"):
        as_budget(-5)
    with pytest.raises(ValueError, match="budget must be an integer >= 0, got -1"):
        mc.free_strict(fx.point(), 1, 3, budget=Budget(-1))
    assert as_budget(0).limit == 0


@pytest.mark.parametrize("raw", ["abc", "-3", "1.5", ""])
def test_bad_budget_variable_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv("MULTICAT_BUDGET", raw)
    with pytest.raises(ValueError, match="MULTICAT_BUDGET must be an integer >= 0"):
        default_budget()
    with pytest.raises(ValueError, match="MULTICAT_BUDGET"):
        mc.free_strict(fx.point(), 1, 3)


def test_budget_variable_sets_the_default(monkeypatch):
    monkeypatch.setenv("MULTICAT_BUDGET", "7")
    assert as_budget(None).limit == 7
    monkeypatch.delenv("MULTICAT_BUDGET")
    assert default_budget() == 200_000


def test_term_graphs_stay_within_their_memory():
    """Faces in columns: no tuple key per face.  The bounds sit just below
    the figures of the graph that kept its faces in one dict keyed by (node,
    direction, polarity): a 23.28 MB peak and 16.56 MB held, measured this
    way with tracemalloc on CPython 3.11.  The columns take 18.1 MB and
    11.0 MB."""
    gc.collect()
    tracemalloc.start()
    try:
        mc.free_weak(fx.path2(), stages=4)
        weak_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        p = mc.free_strict(loops(2), 1, 17)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(p.nodes) == 23_717
    assert weak_peak < 23_200_000
    assert held < 16_500_000
