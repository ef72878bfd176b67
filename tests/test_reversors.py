import dataclasses
import random
import tracemalloc

import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat import reversors
from multicat.reversors import KINDS, required_slots
from multicat.terms import Budget
from oracles import brute_force_reversors, reversor_axiom_ids


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


def loops(k):
    """k loops at one vertex: every map of the loops is a swap map."""
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v"]
    ms.cells[(1,)] = [f"l{i}" for i in range(k)]
    ms.src[((1,), 1)] = {f"l{i}": "v" for i in range(k)}
    ms.tgt[((1,), 1)] = {f"l{i}": "v" for i in range(k)}
    return ms


def test_budget_is_spent_before_candidate_maps_are_built():
    # 7 loops at one vertex: 7**7 candidate swap maps, far over the budget
    ms = loops(7)
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


def test_reversor_morphism_reports_cells_where_f_is_undefined():
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    partial = mc.identity_morphism(pg.base)
    for x in ("o0>o1", "o1>o0"):
        del partial.maps[(1,)][x]
    report = mc.validate_reversor_morphism(partial, r, r)
    assert report.violations == [
        mc.Violation("EQUIVAR", (1,), (x,), "entries=(1,) level=0") for x in ("o0>o1", "o1>o0")
    ]


def small_base(rng, dim):
    """A seeded valid multiple set of dimension ``dim`` with at most 4 cells
    per color: one vertex (up to two at dimension 1), one cell per color
    below the top but for one color with two, and 1 to 5 - dim top cells.
    A cell either takes random faces or swaps every face pair of the cell
    before it, so swap partners are common; colors list their cells in a
    shuffled order."""
    ms = mc.MultipleSet(dim, dim)

    def add(c, n):
        names = [f"x{i}" for i in range(n)]
        for i, x in enumerate(names):
            for d in c:
                lower = ms.cells[tuple(k for k in c if k != d)]
                s, t = ms.src.setdefault((c, d), {}), ms.tgt.setdefault((c, d), {})
                if i and rng.random() < 0.5:
                    s[x], t[x] = t[names[i - 1]], s[names[i - 1]]
                else:
                    s[x], t[x] = rng.choice(lower), rng.choice(lower)
        rng.shuffle(names)
        ms.cells[c] = names

    add((), rng.randint(1, 2) if dim == 1 else 1)
    colors = mc.colors_within(dim, dim)[1:]
    wide = rng.choice([c for c in colors if len(c) == dim - 1] or [None])
    for c in colors:
        add(c, rng.randint(1, 5 - dim) if len(c) == dim else 1 + (c == wide))
    assert mc.validate_multiple_set(ms).ok
    return ms


@pytest.mark.parametrize("kind", KINDS)
def test_space_agrees_with_brute_force_enumeration(kind):
    counts, longest = [], 0
    for dim in (1, 2, 3):
        for seed in range(6):
            ms = small_base(random.Random(f"{dim}-{seed}"), dim)
            for m in range(dim + 1):
                space = mc.search_reversors(ms, m, kind, Budget(10**6))
                want = brute_force_reversors(ms, m, kind)
                listed = list(space)
                assert len(space) == len(want) == len(listed)
                assert [[(ch.color, ch.entries, ch.maps) for ch in r.chains] for r in listed] == want
                for i in range(-len(listed), len(listed)):
                    assert space[i] == listed[i]
                for i in (len(listed), -len(listed) - 1):
                    with pytest.raises(IndexError):
                        space[i]
                counts.append(len(space))
                longest = max([longest] + [len(ch.entries) for r in listed for ch in r.chains])
    # the inputs reach empty, unique and many structures, and longer chains
    assert 0 in counts and 1 in counts and max(counts) > 1000
    assert longest == (1 if kind == "minimal" else 2)


def test_space_equals_lists_and_spaces_elementwise():
    ms = loops(2)
    space = mc.search_reversors(ms, 0, "minimal")
    assert space == list(space) == mc.search_reversors(ms, 0, "minimal")
    assert space != list(space)[::-1] and space != list(space)[:3]
    assert mc.search_reversors(fx.pair_groupoid(2), 0, "minimal") != space
    cat = mc.quotient_to_category(mc.free_strict(fx.single_edge(), 1, 6))
    assert mc.search_reversors(cat, 0, "minimal") == [] and not mc.search_reversors(cat, 0, "minimal")


def test_counting_structures_builds_none():
    # 12**12 structures: counted, paid for and indexed without listing them
    tracemalloc.start()
    try:
        space = mc.search_reversors(loops(12), 0, "minimal", Budget(2 * 12**12 + 1))
        assert len(space) == 12**12
        last = space[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the last structure sends every loop to the last-listed one
    assert last.chains[0].maps == (tuple(sorted((f"l{i}", "l11") for i in range(12))),)


def test_budget_for_candidates_but_not_structures_fails_before_building_any(monkeypatch):
    made = []
    original = reversors.ReversorStructure

    def counted(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(reversors, "ReversorStructure", counted)
    b = Budget(27 + 10)
    with pytest.raises(mc.BudgetExceeded) as info:
        mc.search_reversors(loops(3), 0, "minimal", b)
    assert (info.value.phase, info.value.used, info.value.requested) == ("reversor search", 27, 27)
    assert b.used == 27 and made == []


def test_search_rejects_a_negative_cutoff():
    for kind in KINDS:
        with pytest.raises(ValueError, match=r"^m must be an integer >= 0, got -1$"):
            mc.search_reversors(fx.pair_groupoid(2), -1, kind)


def test_search_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind 'cubical'"):
        mc.search_reversors(fx.pair_groupoid(2), 0, "cubical")


def test_search_on_a_face_table_missing_a_cell_raises_invalid_base():
    ms = loops(3)
    del ms.src[((1,), 1)]["l1"]
    with pytest.raises(mc.InvalidBase):
        mc.search_reversors(ms, 0, "minimal")


def test_space_on_a_face_table_missing_a_cell_raises_unknown_cell():
    """ReversorSpace takes its base as given: the check is search_reversors'."""
    ms = loops(3)
    del ms.src[((1,), 1)]["l1"]
    with pytest.raises(mc.UnknownCell) as info:
        mc.ReversorSpace(ms, 0, "minimal", Budget(10**6))
    assert (info.value.color, info.value.cell) == ((1,), "l1")


@pytest.mark.parametrize("kind", KINDS)
def test_search_validates_its_base_for_every_kind(kind):
    """Maximal chains at [1, 2, 3] run along (1, 2), (1, 3) and (2, 3) and
    never read direction 3 at the top color, so without the check this base
    raised UnknownCell for minimal and general but gave maximal a structure."""
    ms = mc.terminal_multiple_set(3, 3)
    del ms.src[((1, 2, 3), 3)]
    with pytest.raises(mc.InvalidBase):
        mc.search_reversors(ms, 0, kind)


def test_space_is_not_equal_to_other_types():
    space = mc.search_reversors(loops(2), 0, "minimal")
    assert (space == 3) is False and space != 3


def test_validate_reversors_on_a_failing_base_returns_the_base_report():
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    del r.base.src[((1,), 1)]["o0>o0"]
    report = mc.validate_reversors(r)
    assert not report.ok
    assert report.violations == mc.validate_multiple_set(r.base).violations


def test_reversor_morphism_reports_a_chain_the_target_lacks():
    pg = fx.pair_groupoid(2)
    r = mc.search_reversors(pg, 0, "minimal")[0]
    empty = dataclasses.replace(r, chains=[])
    report = mc.validate_reversor_morphism(mc.identity_morphism(pg.base), r, empty)
    assert report.violations == [mc.Violation("COVER", (1,), (), "target lacks chain (1,)")]


def test_maximal_space_builds_only_the_maps_below_each_top_map():
    # six cells at the 3-color, every face the one cell below: the three
    # maximal slots there take 6**6 top maps each, and their chains' lower
    # maps are the identity
    ms = mc.terminal_multiple_set(3, 3)
    top = (1, 2, 3)
    ms.cells[top] = [f"t{i}" for i in range(6)]
    for d in top:
        ms.src[(top, d)] = dict.fromkeys(ms.cells[top], "*")
        ms.tgt[(top, d)] = dict.fromkeys(ms.cells[top], "*")
    assert mc.validate_multiple_set(ms).ok
    b = Budget(10**30)
    tracemalloc.start()
    try:
        space = mc.search_reversors(ms, 0, "maximal", b)
        assert len(space) == 6**18 == 101_559_956_668_416
        last = space[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert b.used == 101_559_956_808_396
    assert mc.validate_reversors(last).ok
