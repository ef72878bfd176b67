import dataclasses
import tracemalloc

import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat.reversors import required_slots
from multicat.terms import Budget
from oracles import reversor_axiom_ids


def identity_maximal_reversors(ms, m=0):
    """Identity maps on the two-copies base satisfy every diagram."""
    chains = []
    for c, sub in required_slots(ms, m, "maximal"):
        level = c
        maps = []
        for e in sub:
            maps.append({x: x for x in ms.cells_at(level)})
            level = tuple(k for k in level if k != e)
        chains.append(mc.make_chain(c, sub, maps))
    return mc.ReversorStructure(base=ms, m=m, kind="maximal", chains=chains)


def test_pair_groupoid_has_unique_minimal_structure():
    found = mc.search_reversors(fx.pair_groupoid(2), 0, "minimal")
    assert len(found) == 1
    r = found[0]
    assert mc.validate_reversors(r).ok
    (chain,) = r.chains
    assert chain.map_at(0)["o0>o1"] == "o1>o0"


def test_single_edge_has_no_reversors():
    cat = mc.quotient_to_category(mc.free_strict(fx.single_edge(), 1, 6))
    assert mc.search_reversors(cat, 0, "minimal") == []


def test_m_at_or_above_dimension_gives_empty_structure():
    cat = mc.quotient_to_category(mc.free_strict(fx.single_edge(), 1, 6))
    found = mc.search_reversors(cat, 1, "minimal")
    assert len(found) == 1
    assert found[0].chains == []
    assert mc.validate_reversors(found[0]).ok


def test_maximal_identity_chains_validate():
    ms = fx.two_copies(3, 3)
    r = identity_maximal_reversors(ms)
    report = mc.validate_reversors(r)
    assert report.ok, report.render()
    # maximal chains at the 3-color have length 2
    assert any(len(ch.entries) == 2 for ch in r.chains)


def test_serial_mutation_detected():
    ms = fx.two_copies(3, 3)
    r = identity_maximal_reversors(ms)
    chain = next(ch for ch in r.chains if len(ch.entries) == 2)
    maps = [chain.map_at(0), chain.map_at(1)]
    maps[1]["p0"], maps[1]["p1"] = "p1", "p0"
    broken = mc.make_chain(chain.color, chain.entries, maps)
    r.chains[r.chains.index(chain)] = broken
    report = mc.validate_reversors(r)
    assert "SERIAL" in report.axioms()
    assert report.axioms() <= reversor_axiom_ids(r, ms)


def test_swap_mutation_detected():
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    maps = [r.chains[0].map_at(0)]
    maps[0]["o0>o1"] = "o0>o1"
    r.chains[0] = mc.make_chain((1,), (1,), maps)
    report = mc.validate_reversors(r)
    assert "SWAP-END" in report.axioms()
    assert report.axioms() <= reversor_axiom_ids(r, pg.base)


def test_missing_chain_is_cover_violation():
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    r.chains = []
    report = mc.validate_reversors(r)
    assert report.axioms() == {"COVER"}


def test_general_kind_accepts_any_admissible_length():
    ms = fx.two_copies(3, 3)
    maximal = identity_maximal_reversors(ms)
    # cover first entries whose maximal subcolors all start elsewhere
    singles = [
        mc.make_chain(c, (e,), [{x: x for x in ms.cells_at(c)}])
        for c, (e,) in required_slots(ms, 0, "minimal")
    ]
    general = mc.ReversorStructure(
        base=ms, m=0, kind="general", chains=list(maximal.chains) + singles
    )
    assert mc.validate_reversors(general).ok


def test_search_maximal_on_two_copies():
    ms = fx.two_copies(2, 2)
    found = mc.search_reversors(ms, 0, "maximal")
    assert len(found) >= 1
    for r in found:
        assert mc.validate_reversors(r).ok
    # identity-on-both-copies is among the solutions
    keys = {
        tuple(sorted((ch.color, ch.entries, ch.maps) for ch in r.chains))
        for r in found
    }
    ident = identity_maximal_reversors(ms)
    assert tuple(sorted((ch.color, ch.entries, ch.maps) for ch in ident.chains)) in keys


def test_chain_maps_are_sorted_when_cells_are_listed_out_of_order():
    ms = fx.two_copies(2, 2)
    for c in ms.cells:
        ms.cells[c].reverse()
    found = mc.search_reversors(ms, 0, "maximal")
    assert found
    for r in found:
        assert mc.validate_reversors(r).ok
        assert all(list(level) == sorted(level) for ch in r.chains for level in ch.maps)


def test_budget_limits_search():
    ms = fx.two_copies(2, 2)
    with pytest.raises(mc.BudgetExceeded):
        mc.search_reversors(ms, 0, "maximal", budget=2)


def test_budget_is_spent_before_candidate_maps_are_built():
    # 7 loops at one vertex: 7**7 candidate swap maps, far over the budget
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v"]
    ms.cells[(1,)] = [f"l{i}" for i in range(7)]
    ms.src[((1,), 1)] = {f"l{i}": "v" for i in range(7)}
    ms.tgt[((1,), 1)] = {f"l{i}": "v" for i in range(7)}
    tracemalloc.start()
    try:
        with pytest.raises(mc.BudgetExceeded) as info:
            mc.search_reversors(ms, 0, "minimal", budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.phase == "reversor search"
    assert info.value.requested == 7**7
    assert peak < 1_000_000


def test_reversor_morphism_equivariance():
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    ident = mc.identity_morphism(pg.base)
    assert mc.validate_reversor_morphism(ident, r, r).ok
    twisted = mc.identity_morphism(pg.base)
    twisted.maps[(1,)]["o0>o1"] = "o0>o0"
    report = mc.validate_reversor_morphism(twisted, r, r)
    assert "EQUIVAR" in report.axioms()


@pytest.mark.parametrize("side, field, value, detail", [
    ("both", "entries", (2,), "entry 2 not in color [1]"),
    ("source", "maps", (), "0 maps for entries (1,)"),
    ("target", "maps", (), "0 maps for entries (1,)"),
])
def test_reversor_morphism_reports_malformed_chain_as_cover(side, field, value, detail):
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    bad = dataclasses.replace(r, chains=[dataclasses.replace(r.chains[0], **{field: value})])
    src, tgt = {"both": (bad, bad), "source": (bad, r), "target": (r, bad)}[side]
    report = mc.validate_reversor_morphism(mc.identity_morphism(pg.base), src, tgt)
    assert report.violations == [mc.Violation("COVER", (1,), (), detail)]


@pytest.mark.parametrize("kind, count, used", [
    ("minimal", 1, 13), ("maximal", 1, 16), ("general", 6, 24),
])
def test_search_on_terminal_set_counts_and_chain_order(kind, count, used):
    # one cell per color: every chain is the identity, and maximal and
    # general chains have length 2 at the 3-color
    b = Budget(10_000)
    found = mc.search_reversors(mc.terminal_multiple_set(3, 3), 0, kind, b)
    assert (len(found), b.used) == (count, used)
    if kind != "minimal":
        assert any(len(ch.entries) == 2 for r in found for ch in r.chains)
    keys = [tuple((ch.color, ch.entries, ch.maps) for ch in r.chains) for r in found]
    assert len(set(keys)) == len(keys)
    for r in found:
        order = [(ch.color, ch.entries) for ch in r.chains]
        assert order == sorted(order)
        assert mc.validate_reversors(r).ok
