import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat.terms import Budget
from oracles import reflexive_axiom_ids, reflexive_counts

SMALL = {
    "point11": fx.point(1, 1),
    "point22": fx.point(2, 2),
    "square": fx.square(),
    "path2": fx.path2(),
    "single_edge": fx.single_edge(),
    "parallel_edges": fx.parallel_edges(),
    "grid2x2": fx.grid2x2(),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_free_reflexive_counts_match_oracle(name):
    ms = SMALL[name]
    fr = mc.free_reflexive(ms, ms.dim_bound)
    got = {c: len(fr.base.cells_at(c)) for c in fr.base.colors()}
    assert got == reflexive_counts(ms, ms.dim_bound)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_free_reflexive_validates(name):
    ms = SMALL[name]
    fr = mc.free_reflexive(ms, ms.dim_bound)
    report = mc.validate_reflexive(fr)
    assert report.ok, report.render()
    assert mc.validate_morphism(fr.unit).ok


def test_free_reflexive_point_cell_total():
    fr = mc.free_reflexive(fx.point(2, 2), 2)
    assert sum(len(fr.base.cells_at(c)) for c in fr.base.colors()) == 4


def test_free_reflexive_square_top_color():
    # the square itself, two degenerate edges each way, four doubly
    # degenerate vertices
    fr = mc.free_reflexive(fx.square(), 2)
    assert len(fr.base.cells_at((1, 2))) == 9


def test_dim_bound_below_base_rejected():
    with pytest.raises(mc.InvalidBase):
        mc.free_reflexive(fx.square(), 1)


def test_refl_mutation_detected_with_oracle_ids():
    fr = mc.free_reflexive(fx.parallel_edges(), 2)
    key = ((1,), 2)
    cells_up = fr.base.cells_at((1, 2))
    orig = fr.refl[key]["a"]
    for other in cells_up:
        if other == orig:
            continue
        fr.refl[key]["a"] = other
        expected = reflexive_axiom_ids(fr.refl, fr.base)
        report = mc.validate_reflexive(fr)
        assert not report.ok
        assert report.axioms() <= expected
    fr.refl[key]["a"] = orig
    assert mc.validate_reflexive(fr).ok


def test_section_convention_toggle():
    # a structure violating only the section law: degenerate loop whose
    # faces point at the wrong cell
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["u", "v"]
    ms.cells[(1,)] = ["iu", "iv"]
    ms.src[((1,), 1)] = {"iu": "v", "iv": "u"}
    ms.tgt[((1,), 1)] = {"iu": "v", "iv": "u"}
    r = mc.ReflexiveStructure(base=ms, refl={((), 1): {"u": "iu", "v": "iv"}})
    assert mc.validate_reflexive(r).axioms() == {"REFL-SECT"}


def test_monad_unit_laws():
    for ms in (fx.point(2, 2), fx.square(), fx.path2()):
        n = ms.dim_bound
        inner = mc.free_reflexive(ms, n)
        outer = mc.free_reflexive(inner.base, n)
        mu = mc.reflexive_monad_multiply(outer, inner)
        # mu after the unit of the outer layer is the identity
        left = mc.compose_morphisms(mu, outer.unit)
        assert mc.morphisms_equal(left, mc.identity_morphism(inner.base))


def test_monad_multiplication_associative():
    ms = fx.square()
    t1 = mc.free_reflexive(ms, 2)
    t2 = mc.free_reflexive(t1.base, 2)
    t3 = mc.free_reflexive(t2.base, 2)
    mu12 = mc.reflexive_monad_multiply(t2, t1)  # T^2 -> T
    mu23 = mc.reflexive_monad_multiply(t3, t2)  # T^3 -> T^2

    # T applied to mu12: relabel the outer layer's generators
    maps = {}
    for (c, cid), (c1, mid, added) in t3.origin.items():
        flat_mid = mu12.maps[c1][mid]
        _, target = t2.cell_of[(c1, flat_mid, added)]
        maps.setdefault(c, {})[cid] = target
    t_mu12 = mc.MsMorphism(t3.base, t2.base, maps)

    lhs = mc.compose_morphisms(mu12, mu23)
    rhs = mc.compose_morphisms(mu12, t_mu12)
    assert mc.morphisms_equal(lhs, rhs)


def test_monad_multiply_bound_mismatch():
    inner = mc.free_reflexive(fx.point(1, 1), 1)
    unrelated = mc.free_reflexive(fx.single_edge(), 1)
    with pytest.raises(mc.BoundMismatch):
        mc.reflexive_monad_multiply(unrelated, inner)


def test_degeneracy_keyed_by_non_cell_is_total_violation():
    fr = mc.free_reflexive(fx.parallel_edges(), 2)
    key = ((1,), 2)
    fr.refl[key]["ghost"] = sorted(fr.refl[key].values())[0]
    report = mc.validate_reflexive(fr)
    assert report.axioms() == {"TOTAL"}
    assert [v.cells for v in report.violations] == [("ghost",)]


@pytest.mark.parametrize("entry", [1, 0])
def test_degeneracy_keyed_by_bad_entry_is_total_violation(entry):
    fr = mc.free_reflexive(fx.parallel_edges(), 2)
    x = fr.base.cells_at((1,))[0]
    fr.refl[((1,), entry)] = {x: fr.refl[((1,), 2)][x]}
    report = mc.validate_reflexive(fr)
    assert [(v.axiom, v.cells) for v in report.violations] == [("TOTAL", (x,))]


def test_free_reflexive_spends_one_budget_unit_per_cell():
    with pytest.raises(mc.BudgetExceeded) as info:
        mc.free_reflexive(fx.point(2, 2), 2, budget=2)
    assert info.value.phase == "free reflexive"
    assert (info.value.used, info.value.requested) == (2, 1)
    budget = Budget(4)
    fr = mc.free_reflexive(fx.point(2, 2), 2, budget=budget)
    assert budget.used == sum(len(ids) for ids in fr.base.cells.values()) == 4


def test_free_reflexive_primes_a_degeneracy_named_like_a_generator():
    # a generator may have the name of a degeneracy, as the cells of a free
    # reflexive structure have when it generates the next one
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["p"]
    ms.cells[(1,)] = ["1[1]p"]
    ms.src[((1,), 1)] = {"1[1]p": "p"}
    ms.tgt[((1,), 1)] = {"1[1]p": "p"}
    free = mc.free_reflexive(ms, 1)
    assert free.base.cells_at((1,)) == ["1[1]p", "1[1]p'"]
    assert free.refl[((), 1)] == {"p": "1[1]p'"}
    assert free.origin[((1,), "1[1]p'")] == ((), "p", frozenset({1}))
    assert mc.validate_reflexive(free).ok
    text = mc.serialize(free)
    assert mc.serialize(mc.parse(text)) == text
