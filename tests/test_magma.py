import dataclasses

import pytest

import multicat as mc
from multicat import fixtures as fx
from oracles import dist_axiom_ids, magma_axiom_ids


def test_pair_groupoid_is_valid_magma():
    pg = fx.pair_groupoid(2)
    assert mc.validate_magma(pg).ok
    assert mc.validate_reflexive_magma(pg).ok


def test_composable_pairs_is_the_pullback():
    pg = fx.pair_groupoid(2)
    pairs = mc.composable_pairs(pg.base, (1,), 1)
    # every edge a>b matches every edge ending at a: 2 choices, 4 edges
    assert len(pairs) == 8
    for a, b in pairs:
        assert pg.base.src[((1,), 1)][a] == pg.base.tgt[((1,), 1)][b]


def test_compose_lookup_and_errors():
    pg = fx.pair_groupoid(2)
    assert mc.compose(pg, (1,), "o1>o0", "o0>o1", 1) == "o0>o0"
    with pytest.raises(mc.NotComposable):
        mc.compose(pg, (1,), "o0>o1", "o0>o1", 1)
    with pytest.raises(mc.UnknownCell):
        mc.compose(pg, (1,), "o0>o1", "nope", 1)


def test_missing_composite_is_total_violation():
    pg = fx.pair_groupoid(2)
    del pg.comp[((1,), 1)][("o0>o1", "o1>o0")]
    report = mc.validate_magma(pg)
    assert report.axioms() == {"TOTAL"}


def test_comp_mutations_match_oracle_ids():
    pg = fx.pair_groupoid(2)
    table = pg.comp[((1,), 1)]
    for key in sorted(table):
        orig = table[key]
        for other in pg.base.cells_at((1,)):
            if other == orig:
                continue
            table[key] = other
            expected = magma_axiom_ids(pg.comp, pg.base)
            report = mc.validate_magma(pg)
            assert report.axioms() <= expected | {"TOTAL"}
            if expected:
                assert not report.ok
        table[key] = orig
    assert mc.validate_magma(pg).ok


def test_pos2_detected_on_two_directions():
    cat = mc.quotient_to_category(mc.free_strict(fx.square(), 2, 8))
    tab = cat.comp[((1, 2), 1)]
    key = sorted(tab)[0]
    cells = cat.base.cells_at((1, 2))
    orig = tab[key]
    hits = set()
    for other in cells:
        if other == orig:
            continue
        tab[key] = other
        expected = magma_axiom_ids(cat.comp, cat.base)
        report = mc.validate_magma(cat)
        assert report.axioms() <= expected
        hits |= report.axioms()
    tab[key] = orig
    assert "POS2" in hits


def test_dist_holds_and_breaks():
    cat = mc.quotient_to_category(mc.free_strict(fx.parallel_edges(), 2, 8))
    assert mc.validate_reflexive_magma(cat).ok
    assert not dist_axiom_ids(cat.comp, cat.refl.refl, cat.base)
    # rewire one lifted composite: distribution must notice
    up = cat.comp[((1, 2), 1)]
    key = sorted(up)[0]
    orig = up[key]
    for other in cat.base.cells_at((1, 2)):
        if other == orig:
            continue
        up[key] = other
        expected = dist_axiom_ids(cat.comp, cat.refl.refl, cat.base)
        report = mc.validate_reflexive_magma(cat)
        if "DIST" in expected:
            assert "DIST" in report.axioms()
    up[key] = orig


def test_composite_keyed_by_non_cell_is_total_violation():
    pg = fx.pair_groupoid(2)
    pg.comp[((1,), 1)][("ghost", "o0>o1")] = "o0>o1"
    report = mc.validate_magma(pg)
    assert report.axioms() == {"TOTAL"}
    assert [v.cells for v in report.violations] == [("ghost", "o0>o1")]
    assert mc.validate_strict(pg).axioms() == {"TOTAL"}


def test_composite_keyed_by_bad_direction_is_total_violation():
    pg = fx.pair_groupoid(2)
    pg.comp[((), 1)] = {("o0", "o0"): "o0"}
    report = mc.validate_magma(pg)
    assert [(v.axiom, v.cells) for v in report.violations] == [("TOTAL", ("o0", "o0"))]


NOT_COMPOSABLE = "operands not composable in direction 1"


def test_composite_off_the_pullback_is_total_violation():
    """a *_d b is defined only where s_d(a) == t_d(b): a key off the
    pullback is reported, as the oracle finds it, by the magma and the
    strict validators."""
    pg = fx.pair_groupoid(2)
    table = pg.comp[((1,), 1)]
    cells = pg.base.cells_at((1,))
    off = [(a, b) for a in cells for b in cells if (a, b) not in table]
    assert len(off) == 8
    for a, b in off:
        table[(a, b)] = a
        assert mc.validate_magma(pg).axioms() == magma_axiom_ids(pg.comp, pg.base)
        for report in (mc.validate_magma(pg), mc.validate_strict(pg)):
            assert [(v.axiom, v.cells, v.detail) for v in report.violations
                    if v.axiom == "TOTAL"] == [("TOTAL", (a, b), NOT_COMPOSABLE)]
        del table[(a, b)]
    assert mc.validate_magma(pg).ok


@pytest.mark.parametrize("staged", [False, True])
def test_stretching_composite_off_the_pullback_is_total_violation(staged):
    """Reported in M whether or not totality is demanded of it."""
    cat = fx.pair_groupoid(2)
    e = mc.identity_stretching(cat)
    e.magma = dataclasses.replace(cat, comp={k: dict(v) for k, v in cat.comp.items()})
    if staged:
        e.stage_of = {(c, x): 0 for c in cat.base.colors() for x in cat.base.cells_at(c)}
        e.stage = 1
    assert mc.validate_stretching(e).ok
    e.magma.comp[((1,), 1)][("o0>o0", "o0>o1")] = "o0>o0"
    report = mc.validate_stretching(e)
    assert [(v.axiom, v.cells, v.detail) for v in report.violations if v.axiom == "TOTAL"] == [
        ("TOTAL", ("o0>o0", "o0>o1"), NOT_COMPOSABLE)]


def test_reflexive_magma_without_refl_still_checks_the_layers_below():
    pg = fx.pair_groupoid(2)
    del pg.base.src[((1,), 1)]["o0>o0"]
    bare = dataclasses.replace(pg, refl=None)
    lines = mc.validate_reflexive_magma(bare).render().splitlines()
    assert lines == ["SHAPE color=[1] cells=o0>o0 src undefined for entry 1",
                     "TOTAL color=[] cells= no reflexive structure attached"]
    # on a valid base the magma scans run too, once
    pg = fx.pair_groupoid(2)
    del pg.comp[((1,), 1)][("o0>o1", "o1>o0")]
    bare = dataclasses.replace(pg, refl=None)
    lines = mc.validate_reflexive_magma(bare).render().splitlines()
    assert sorted(lines) == sorted(mc.validate_magma(bare).render().splitlines() + [
        "TOTAL color=[] cells= no reflexive structure attached"])
