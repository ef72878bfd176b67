import hashlib
import itertools

import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat import reversors, stretching
from multicat.terms import Budget
from oracles import bracket_axiom_ids, expected_bracket_counts, stagewise_bracket_counts


def square_cat():
    return mc.quotient_to_category(mc.free_strict(fx.square(), 2, 8))


def test_identity_stretching_validates():
    for cat in (fx.pair_groupoid(2), square_cat()):
        e = mc.identity_stretching(cat)
        report = mc.validate_stretching(e)
        assert report.ok, report.render()


def test_identity_stretching_brackets_are_degeneracies():
    cat = fx.pair_groupoid(2)
    e = mc.identity_stretching(cat)
    assert e.brackets[((), 1)][("o0", "o0")] == "o0>o0"


def test_free_weak_parallel_edges_stage1():
    fw = mc.free_weak(fx.parallel_edges(), dim_bound=2, size_bound=8, stages=1)
    e = fw.stretching
    assert mc.validate_stretching(e).ok
    # no composable generator pairs, six degeneracies, six brackets
    assert fw.stage_log == [
        {"composites": 0, "degeneracies": 6, "reversors": 0, "brackets": 6}
    ]
    # parallel edges stay distinct in the strict quotient, so only the
    # diagonal pairs get brackets
    assert {k: len(v) for k, v in sorted(e.brackets.items())} == {
        ((), 1): 2,
        ((), 2): 2,
        ((1,), 2): 2,
    }


def test_free_weak_bracket_counts_match_stage_oracle():
    for stages in (1, 2):
        fw = mc.free_weak(fx.parallel_edges(), dim_bound=2, size_bound=8, stages=stages)
        e = fw.stretching
        got = {k: len(v) for k, v in e.brackets.items()}
        assert got == expected_bracket_counts(e)
        # per-stage breakdown
        per_stage = {}
        for (c, r), tab in e.brackets.items():
            up = tuple(sorted(set(c) | {r}))
            for cell in tab.values():
                k = e.stage_of[(up, cell)]
                per_stage[(k, c, r)] = per_stage.get((k, c, r), 0) + 1
        assert per_stage == stagewise_bracket_counts(e)


def test_free_weak_unit_is_a_morphism():
    fw = mc.free_weak(fx.square(), dim_bound=2, size_bound=8, stages=1)
    assert mc.validate_morphism(fw.unit).ok
    assert mc.validate_stretching(fw.stretching).ok


def test_free_weak_with_cutoff_on_point():
    fw = mc.free_weak(fx.point(1, 1), m=0, dim_bound=1, size_bound=6, stages=2)
    e = fw.stretching
    assert mc.validate_stretching(e).ok
    assert e.cat_reversors is not None
    assert e.m_rev_tables  # formal reversor cells were adjoined
    # swap triangles hold for the adjoined cells
    M = e.magma.base
    for (c, ev), tab in e.m_rev_tables.items():
        for x, jx in tab.items():
            assert M.src[(c, ev)][jx] == M.tgt[(c, ev)][x]
            assert M.tgt[(c, ev)][jx] == M.src[(c, ev)][x]
    # a reversor entry whose image is no M-cell breaks the projection law there
    e.m_rev_tables[((1,), 1)]["1[1]p"] = "not-a-cell"
    assert mc.validate_stretching(e).violations == [
        mc.Violation("PI", (1,), ("1[1]p",), "reversor entry=1")
    ]


@pytest.mark.parametrize("kwargs", [dict(m=-1), dict(stages=-1), dict(m=-2, stages=2)])
def test_free_weak_rejects_negative_m_and_stages(kwargs):
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        mc.free_weak(fx.point(1, 1), **kwargs)


def test_free_weak_cutoff_rejects_irreversible_input():
    with pytest.raises(mc.BoundsTooSmall):
        mc.free_weak(fx.single_edge(), m=0, dim_bound=1, size_bound=6, stages=1)


@pytest.mark.parametrize("ms, kwargs", [
    (fx.point(1, 1), dict(m=1, dim_bound=1, size_bound=6, stages=2)),
    (fx.single_edge(), dict(m=1, dim_bound=1, size_bound=6)),
    # squares are built, but none lies above m = 2
    (fx.point(2, 2), dict(m=2, dim_bound=2, size_bound=10, stages=3)),
])
def test_free_weak_needs_no_reversors_at_or_below_the_cutoff(ms, kwargs):
    fw = mc.free_weak(ms, **kwargs)
    e = fw.stretching
    assert e.m_rev_tables is None
    assert all(entry["reversors"] == 0 for entry in fw.stage_log)
    # the strict layer's structure is searched above m: no slot, no chain
    assert (e.cat_reversors.m, e.cat_reversors.chains) == (kwargs["m"], [])
    assert mc.validate_reversors(e.cat_reversors).ok
    assert mc.validate_stretching(e).ok


def test_free_weak_rejects_invalid_input():
    broken = fx.square()
    broken.src[((1, 2), 2)] = {"A": "e1"}
    with pytest.raises(mc.InvalidBase):
        mc.free_weak(broken, dim_bound=2, size_bound=6, stages=1)


def test_bracket_mutations_match_oracle_ids():
    e = mc.identity_stretching(square_cat())
    tab = e.brackets[((1,), 2)]
    key = sorted(tab)[0]
    orig = tab[key]
    hits = set()
    for other in e.magma.base.cells_at((1, 2)):
        if other == orig:
            continue
        tab[key] = other
        expected = bracket_axiom_ids(e)
        report = mc.validate_stretching(e)
        bracket_ids = report.axioms() & {"BR-FACE", "BR-END", "BR-PI", "PI", "BR-TOTAL"}
        assert bracket_ids <= expected
        assert bracket_ids
        hits |= bracket_ids
    tab[key] = orig
    assert {"BR-END", "BR-PI"} <= hits
    assert mc.validate_stretching(e).ok


def test_missing_bracket_is_total_violation():
    e = mc.identity_stretching(fx.pair_groupoid(2))
    del e.brackets[((), 1)][("o0", "o0")]
    report = mc.validate_stretching(e)
    assert "BR-TOTAL" in report.axioms()


def test_pi_mutation_detected():
    e = mc.identity_stretching(fx.pair_groupoid(2))
    e.pi[(1,)]["o0>o1"] = "o1>o0"
    report = mc.validate_stretching(e)
    assert "PI" in report.axioms()
    assert report.axioms() <= bracket_axiom_ids(e) | {"BR-TOTAL"}


def test_stretching_morphism_square_law():
    e = mc.identity_stretching(fx.pair_groupoid(2))
    ident = {c: {x: x for x in e.magma.base.cells_at(c)} for c in e.magma.base.colors()}
    assert mc.validate_stretching_morphism(ident, ident, e, e).ok
    twisted = {c: dict(tab) for c, tab in ident.items()}
    twisted[(1,)]["o0>o1"] = "o1>o0"
    report = mc.validate_stretching_morphism(twisted, ident, e, e)
    assert "SQUARE" in report.axioms()
    # a target whose bracket on a pair is another cell breaks preservation only
    e2 = mc.identity_stretching(fx.pair_groupoid(2))
    e2.brackets[((), 1)][("o0", "o0")] = "o0>o1"
    report = mc.validate_stretching_morphism(ident, ident, e, e2)
    assert report.render() == "BR-MOR color=[] cells=o0,o0 added=1"


def test_stretching_without_degeneracies():
    cat = fx.pair_groupoid(2)
    # M without degeneracies
    e = mc.identity_stretching(cat)
    e.magma = mc.MagmaStructure(base=cat.base, comp=cat.comp)
    report = mc.validate_stretching(e)
    assert ("TOTAL", "M carries no reflexive structure") in {
        (v.axiom, v.detail) for v in report.violations}
    # C without them: no bracket has a degeneracy to project to
    e = mc.identity_stretching(cat)
    e.cat = mc.StrictCategory(base=cat.base, comp=cat.comp)
    report = mc.validate_stretching(e)
    assert {v.cells for v in report.violations if v.axiom == "BR-PI"} == {
        pair for tab in e.brackets.values() for pair in tab}


def test_free_weak_fails_only_with_its_own_errors():
    """The completion reads projections straight off the strict layer; a
    seeded sweep finds no input on which a lookup there misses."""
    inputs = [fx.point(), fx.square(), fx.path2(), fx.single_edge(), fx.parallel_edges(),
              fx.grid2x2(), fx.two_copies(1, 1), fx.pair_groupoid(2).base]
    inputs += [mc.random_multiple_set(n, n, seed=seed) for n in (1, 2) for seed in range(6)]
    built = 0
    for X in inputs:
        for m, stages, size in itertools.product((None, 0, 1), (1, 2, 3), (4, 6, 8)):
            try:
                mc.free_weak(X, m=m, size_bound=size, stages=stages, budget=20000)
                built += 1
            except (mc.BoundsTooSmall, mc.BudgetExceeded, mc.InvalidBase):
                pass
    assert built == 87  # of 540 runs; the rest raise BoundsTooSmall


def test_algebra_unit_check():
    fw = mc.free_weak(fx.point(1, 1), dim_bound=1, size_bound=6, stages=1)
    X = fw.unit.source
    base = fw.stretching.magma.base
    # only the components at the generators' colors matter for the unit law
    h = mc.MsMorphism(base, X, {(): {x: "p" for x in base.cells_at(())}})
    assert mc.algebra_unit_check(fw, h).ok
    h.maps[()]["p"] = "wrong"
    assert "ALG-UNIT" in mc.algebra_unit_check(fw, h).axioms()


def test_stage_log_counts_cells_added():
    fw = mc.free_weak(fx.path2(), stages=3)
    assert [entry["brackets"] for entry in fw.stage_log] == [3, 0, 0]
    built = sum(1 for s in fw.stretching.stage_of.values() if s >= 1)
    assert sum(sum(entry.values()) for entry in fw.stage_log) == built == 319
    fw = mc.free_weak(fx.parallel_edges(), dim_bound=2, size_bound=8, stages=2)
    built = sum(1 for s in fw.stretching.stage_of.values() if s >= 1)
    assert sum(sum(entry.values()) for entry in fw.stage_log) == built == 66


def test_bracket_keyed_by_non_cell_is_total_violation():
    e = mc.identity_stretching(fx.pair_groupoid(2))
    e.brackets[((), 1)][("ghost", "o0")] = "o0>o0"
    report = mc.validate_stretching(e)
    assert ("BR-TOTAL", ("ghost", "o0")) in {(v.axiom, v.cells) for v in report.violations}


def test_bracket_keyed_by_bad_entry_is_total_violation():
    e = mc.identity_stretching(fx.pair_groupoid(2))
    e.brackets[((1,), 1)] = {("o0>o0", "o0>o0"): "o0>o0"}
    report = mc.validate_stretching(e)
    assert ("BR-TOTAL", ("o0>o0", "o0>o0")) in {(v.axiom, v.cells) for v in report.violations}


@pytest.mark.parametrize(
    "ms, kwargs, digest",
    [
        (fx.path2(), dict(stages=3),
         "1fe901de55daafcf1f662db5a90c069bd2e2948559bcf2e75486f7e92ef6c114"),
        (fx.square(), dict(dim_bound=2, size_bound=8, stages=2),
         "751c15ec9ac871ae700a3591949e815a0b96f02849acdb506577e1b8b1e152ff"),
        (fx.parallel_edges(), dict(dim_bound=2, size_bound=8, stages=2),
         "7394910b74eac29abeb7d37b056973c06c51fb68ffe56778d5a804660d5031ba"),
        # m=0 adjoins formal reversor cells
        (fx.point(1, 1), dict(m=0, dim_bound=1, size_bound=6, stages=2),
         "347f1faf4534e7b546f80d7ef13f330703c5d4a80f40715ed3f674763caf6227"),
    ],
)
def test_free_weak_output_pinned(ms, kwargs, digest):
    text = mc.serialize(mc.free_weak(ms, **kwargs).stretching)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_free_weak_spends_one_budget():
    with pytest.raises(mc.BudgetExceeded) as info:
        mc.free_weak(fx.path2(), stages=4, budget=2000)
    assert info.value.phase == "weak completion"
    assert info.value.used == 2000


def _staged_totality(report):
    return {(v.color, v.cells) for v in report.violations
            if v.axiom == "TOTAL" and v.detail.startswith("staged")}


def test_staged_totality_reports_deleted_in_stage_composite():
    e = mc.free_weak(fx.path2(), stages=2).stretching
    last = e.stage - 1
    key, pair = next((k, p) for k in sorted(e.magma.comp) for p in sorted(e.magma.comp[k])
                     if all(e.stage_of[(k[0], x)] <= last for x in p))
    del e.magma.comp[key][pair]
    assert _staged_totality(mc.validate_stretching(e)) == {(key[0], pair)}


def test_staged_totality_exempts_frontier_operands():
    e = mc.free_weak(fx.path2(), stages=2).stretching
    M = e.magma.base
    # composable pairs with an operand built in the last stage have no composite
    frontier = [(c, d, pair) for c in M.colors() for d in c
                for pair in mc.composable_pairs(M, c, d)
                if max(e.stage_of[(c, x)] for x in pair) == e.stage]
    assert frontier
    assert all(pair not in e.magma.comp.get((c, d), {}) for c, d, pair in frontier)
    assert mc.validate_stretching(e).ok


def test_staged_totality_reports_deleted_in_stage_degeneracy():
    e = mc.free_weak(fx.path2(), stages=2).stretching
    tabs = e.magma.refl.refl
    key, x = next((k, x) for k in sorted(tabs) for x in sorted(tabs[k])
                  if e.stage_of[(k[0], x)] <= e.stage - 1)
    del tabs[key][x]
    report = mc.validate_stretching(e)
    assert _staged_totality(report) == {(key[0], (x,))}
    assert f"staged degeneracy missing, added={key[1]}" in report.render()


@pytest.mark.parametrize("stage", ["1", 1.5, None])
def test_a_stage_that_is_not_an_integer_is_reported_not_raised(stage):
    """The staged scans compare stages, so they run only when every stage is
    an integer >= 0; a str stage used to raise TypeError from them."""
    e = mc.free_weak(fx.path2(), stages=2).stretching
    (c, x), s = max(e.stage_of.items(), key=lambda item: item[1])
    e.stage_of[(c, x)] = stage
    # a missing staged composite goes unreported while the stages are not integers
    del e.magma.comp[next(iter(e.magma.comp))]
    report = mc.validate_stretching(e)
    assert report.render() == (
        f"SHAPE color={list(c)} cells= stage_of value must be an integer >= 0, got {stage!r}")
    e.stage_of[(c, x)] = s
    assert _staged_totality(mc.validate_stretching(e))


def test_free_weak_takes_the_first_reversor_structure_lazily(monkeypatch):
    # three loops at one vertex: 27 structures, each one swap map
    loops = mc.MultipleSet(1, 1)
    loops.cells[()] = ["v"]
    loops.cells[(1,)] = ["l0", "l1", "l2"]
    loops.src[((1,), 1)] = {x: "v" for x in loops.cells[(1,)]}
    loops.tgt[((1,), 1)] = {x: "v" for x in loops.cells[(1,)]}
    full = Budget(10**6)
    found = mc.search_reversors(loops, 0, "minimal", budget=full)
    assert len(found) == 27
    want = found[0].chains
    candidates = Budget(10**6)
    reversors.ReversorSpace(loops, 0, "minimal", candidates)
    made = []
    original = reversors.ReversorStructure

    def counted(*args):
        made.append(args)
        return original(*args)

    monkeypatch.setattr(reversors, "ReversorStructure", counted)
    # free_weak searches the loops in place of its strict layer: it pays for
    # the candidates and the one structure it takes, the first
    without = Budget(10**6)
    mc.free_weak(fx.point(1, 1), stages=0, budget=without)
    first = Budget(10**6)
    with monkeypatch.context() as mp:
        mp.setattr(stretching, "ReversorSpace",
                   lambda base, *args: reversors.ReversorSpace(loops, *args))
        e = mc.free_weak(fx.point(1, 1), m=0, stages=0, budget=first).stretching
    assert e.cat_reversors.chains == want
    assert first.used - without.used == candidates.used + 1 < full.used
    assert len(made) == 1
    # on its own strict layer, too, free_weak makes one structure
    mc.free_weak(fx.point(1, 1), m=0, stages=2)
    assert len(made) == 2


def test_free_weak_rejects_a_generator_named_like_a_composite():
    from test_strictcat import path2_with_named_composite

    with pytest.raises(mc.InvalidBase, match=r"'\(x \*1 y\)' repeated at color \[1\]"):
        mc.free_weak(path2_with_named_composite(), stages=1)
