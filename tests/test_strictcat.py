import tracemalloc

import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat.core import SOURCE, TARGET
from multicat.terms import Budget
from oracles import NaiveFreeStrict, reference_match, strict_axiom_ids


def gen(c, x):
    return ("gen", tuple(c), x)


def test_path2_class_counts():
    p = mc.free_strict(fx.path2(), 1, 10)
    assert p.class_counts() == {(): 3, (1,): 6}


def test_path2_composite_and_units():
    p = mc.free_strict(fx.path2(), 1, 10)
    xy = ("comp", 1, gen((1,), "x"), gen((1,), "y"))
    assert not mc.term_equal(p, xy, gen((1,), "x"))
    right_unit = ("comp", 1, gen((1,), "x"), ("refl", 1, gen((), "v1")))
    left_unit = ("comp", 1, ("refl", 1, gen((), "v2")), gen((1,), "x"))
    assert mc.term_equal(p, right_unit, gen((1,), "x"))
    assert mc.term_equal(p, left_unit, gen((1,), "x"))


def test_associativity_merges():
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v0", "v1", "v2", "v3"]
    ms.cells[(1,)] = ["x", "y", "z"]
    ms.src[((1,), 1)] = {"z": "v0", "y": "v1", "x": "v2"}
    ms.tgt[((1,), 1)] = {"z": "v1", "y": "v2", "x": "v3"}
    p = mc.free_strict(ms, 1, 10)
    x, y, z = gen((1,), "x"), gen((1,), "y"), gen((1,), "z")
    lhs = ("comp", 1, ("comp", 1, x, y), z)
    rhs = ("comp", 1, x, ("comp", 1, y, z))
    assert mc.term_equal(p, lhs, rhs)


def test_interchange_merges_on_grid():
    p = mc.free_strict(fx.grid2x2(), 2, 8)
    A = lambda a, b: gen((1, 2), f"A{a}{b}")
    lhs = ("comp", 1, ("comp", 2, A(1, 1), A(1, 0)), ("comp", 2, A(0, 1), A(0, 0)))
    rhs = ("comp", 2, ("comp", 1, A(1, 1), A(0, 1)), ("comp", 1, A(1, 0), A(0, 0)))
    assert mc.term_equal(p, lhs, rhs)


def test_generator_embedding_injective():
    # no axiom merges two distinct generators
    for ms in (fx.path2(), fx.parallel_edges(), fx.grid2x2()):
        p = mc.free_strict(ms, ms.dim_bound, 7)
        unit = mc.unit_map(p)
        assert len(set(unit.values())) == len(unit)


def test_counts_match_naive_oracle():
    for ms, n, s in (
        (fx.path2(), 1, 9),
        (fx.square(), 2, 6),
        (fx.parallel_edges(), 2, 6),
    ):
        p = mc.free_strict(ms, n, s)
        oracle = NaiveFreeStrict(ms, n, s)
        assert p.class_counts() == oracle.class_counts()


def test_quotient_category_validates():
    for ms in (fx.path2(), fx.square(), fx.parallel_edges()):
        cat = mc.quotient_to_category(mc.free_strict(ms, ms.dim_bound, 8))
        report = mc.validate_strict(cat)
        assert report.ok, report.render()


def test_quotient_needs_room():
    # size bound 2 cannot hold the composite of two generators
    p = mc.free_strict(fx.path2(), 1, 2)
    with pytest.raises(mc.BoundsTooSmall):
        mc.quotient_to_category(p)


def test_dim_bound_below_base_rejected():
    with pytest.raises(mc.InvalidBase, match="dim bound 1 below base bound 2"):
        mc.free_strict(fx.square(), 1, 8)


def test_budget_exceeded():
    with pytest.raises(mc.BudgetExceeded):
        mc.free_strict(fx.grid2x2(), 2, 10, budget=50)


def test_unmaterialized_term_raises():
    p = mc.free_strict(fx.path2(), 1, 4)
    deep = gen((1,), "x")
    for _ in range(5):
        deep = ("comp", 1, deep, ("refl", 1, gen((), "v1")))
    with pytest.raises(mc.TermNotMaterialized):
        p.class_of_term(("gen", (1,), "missing"))
    # deep unit chains still resolve through classes
    assert mc.term_equal(p, deep, gen((1,), "x"))


def test_strict_mutations_match_oracle_ids():
    cat = mc.quotient_to_category(mc.free_strict(fx.path2(), 1, 10))
    tab = cat.comp[((1,), 1)]
    hits = set()
    for key in sorted(tab):
        orig = tab[key]
        for other in cat.base.cells_at((1,)):
            if other == orig:
                continue
            tab[key] = other
            expected = strict_axiom_ids(cat.comp, cat.refl.refl, cat.base)
            report = mc.validate_strict(cat)
            upper = report.axioms() & {"ASSOC", "UNIT", "MFI"}
            assert upper <= expected
            hits |= upper
        tab[key] = orig
    assert {"ASSOC", "UNIT"} <= hits
    assert mc.validate_strict(cat).ok


def test_default_budget_env(monkeypatch):
    monkeypatch.setenv("MULTICAT_BUDGET", "123")
    from multicat.terms import default_budget

    assert default_budget() == 123


def loops(k):
    """k loops at one vertex; every word in the loops is a distinct 1-cell."""
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v"]
    ms.cells[(1,)] = [f"l{i}" for i in range(k)]
    ms.src[((1,), 1)] = {f"l{i}": "v" for i in range(k)}
    ms.tgt[((1,), 1)] = {f"l{i}": "v" for i in range(k)}
    return ms


@pytest.mark.parametrize(
    "size, nodes, classes",
    [(7, 85, 31), (9, 293, 63), (11, 933, 127), (13, 2853, 255)],
)
def test_term_graph_on_two_loops(size, nodes, classes):
    p = mc.free_strict(loops(2), 1, size)
    assert len(p.nodes) == nodes
    assert p.class_counts() == {(): 1, (1,): classes}


def test_term_graph_on_fixtures():
    p = mc.free_strict(fx.grid2x2(), 2, 12)
    assert len(p.nodes) == 259
    assert p.class_counts() == {(): 9, (1,): 18, (2,): 18, (1, 2): 36}
    assert len(mc.free_strict(fx.square(), 2, 8).nodes) == 69
    assert len(mc.free_strict(fx.parallel_edges(), 2, 8).nodes) == 32


@pytest.mark.parametrize("ms, dim, size", [(loops(2), 1, 13), (fx.grid2x2(), 2, 12)])
def test_unions_per_rule_account_for_every_merge(ms, dim, size):
    p = mc.free_strict(ms, dim, size)
    assert set(p.unions) == {"face", "signature", "UNIT", "ASSOC", "MFI", "DIST", "EXCH"}
    assert sum(p.unions.values()) == len(p.nodes) - sum(p.class_counts().values())


def test_strict_table_keyed_by_bad_direction_is_total_violation():
    pg = fx.pair_groupoid(2)
    pg.comp[((), 1)] = {("o0", "o0"): "o0"}
    report = mc.validate_strict(pg)
    assert [(v.axiom, v.cells) for v in report.violations] == [("TOTAL", ("o0", "o0"))]


def test_strict_without_degeneracies_is_total_violation():
    pg = fx.pair_groupoid(2)
    pg.refl = None
    report = mc.validate_strict(pg)
    assert report.render() == "TOTAL color=[] cells= no reflexive structure attached"


def test_quotient_stops_at_first_missing_composite():
    p = mc.free_strict(loops(2), 1, 17)
    word = "(" * 8 + "l0" + " *1 l0)" * 8
    tracemalloc.start()
    try:
        with pytest.raises(mc.BoundsTooSmall) as info:
            mc.quotient_to_category(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        f"composite of ({word!r}, {word!r}) in direction 1 at [1] not materialized;"
        " raise the size bound"
    )
    # listing the whole pullback first (1,046,529 pairs) peaked near 67 MB
    assert peak < 8_000_000


def _assoc_mfi_by_quadratic_scan(cat):
    """ASSOC and MFI violations found by pairing every entry with every entry."""
    out = set()
    for (c, d), tab in cat.comp.items():
        for (a, b), ab in tab.items():
            for (x, e), xe in tab.items():
                left, right = tab.get((ab, e)), tab.get((a, xe))
                if x == b and None not in (left, right) and left != right:
                    out.add(("ASSOC", c, (a, b, e), f"direction={d}"))
    for (c, j), jtab in cat.comp.items():
        for k in c:
            ktab = cat.comp.get((c, k), {})
            for (a, b), ab in jtab.items():
                for (p, q), pq in jtab.items():
                    lhs, ap, bq = ktab.get((ab, pq)), ktab.get((a, p)), ktab.get((b, q))
                    if k == j or None in (lhs, ap, bq):
                        continue
                    rhs = jtab.get((ap, bq))
                    if rhs is not None and lhs != rhs:
                        out.add(("MFI", c, (a, b, p, q), f"directions=({j},{k})"))
    return out


def test_interchange_pairs_every_entry_of_a_composite():
    # MFI pairs the 1-entries whose composites are the operands of a 2-entry;
    # a composite with several 1-entries must be paired through each of them,
    # not only through the first one listed
    cat = mc.quotient_to_category(mc.free_strict(fx.grid2x2(), 2, 12))
    jtab = cat.comp[((1, 2), 1)]
    not_first = 0
    for pair in sorted(jtab)[:12]:
        orig = jtab[pair]
        for other in cat.base.cells_at((1, 2))[:6]:
            if other == orig:
                continue
            jtab[pair] = other
            report = mc.validate_strict(cat)
            got = {(x.axiom, x.color, x.cells, x.detail) for x in report.violations
                   if x.axiom in ("ASSOC", "MFI")}
            assert got == _assoc_mfi_by_quadratic_scan(cat)
            first = {}
            for key, u in jtab.items():
                first.setdefault(u, key)
            not_first += sum(
                1 for x in report.violations
                if x.detail == "directions=(1,2)"
                and (first[jtab[x.cells[:2]]] != x.cells[:2]
                     or first[jtab[x.cells[2:]]] != x.cells[2:])
            )
        jtab[pair] = orig
    assert not_first
    assert mc.validate_strict(cat).ok


def _naive_congruence(p, merged):
    """Node partition of ``p``'s term graph closed under the given merges,
    congruence of equal-kind nodes with equal children, and equal faces."""
    parent = list(range(len(p.nodes)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def join(a, b):
        a, b = find(a), find(b)
        if a == b:
            return False
        parent[max(a, b)] = min(a, b)
        return True

    for a, b in merged:
        join(a, b)
    changed = True
    while changed:
        changed = False
        seen = {}
        for nid, node in enumerate(p.nodes):
            key = node if node[0] == "gen" else node[:2] + tuple(find(ch) for ch in node[2:])
            if key in seen:
                changed |= join(nid, seen[key])
            else:
                seen[key] = nid
        for nid in range(len(p.nodes)):
            for d in p.color[nid]:
                for pol in (mc.SOURCE, mc.TARGET):
                    f = p.face(nid, d, pol)
                    for other in range(len(p.nodes)):
                        if find(other) == find(nid) and d in p.color[other]:
                            changed |= join(f, p.face(other, d, pol))
    return {frozenset(n for n in range(len(p.nodes)) if find(n) == find(r)) for r in range(len(p.nodes))}


def test_rebuild_repairs_signatures_of_merged_children():
    p = mc.StrictPresentation(loops(2), 1, 5, Budget(100))
    x, y = p.gen((1,), "l0"), p.gen((1,), "l1")
    xx, yy = p.comp(1, x, x), p.comp(1, y, y)
    assert p.uf.find(xx) != p.uf.find(yy)
    assert p.union(x, y, "UNIT")
    p._rebuild()
    assert p.uf.find(xx) == p.uf.find(yy)
    assert p.unions["signature"] == 1
    assert all(p._canon(key) == key for key in p.hashcons)
    assert {key for ens in p.enodes.values() for key in ens} == set(p.hashcons)
    classes = {frozenset(n for n in range(len(p.nodes)) if p.uf.find(n) == p.uf.find(r))
               for r in range(len(p.nodes))}
    assert classes == _naive_congruence(p, [(x, y)])


def _unions(face=0, signature=0, UNIT=0, ASSOC=0, MFI=0, DIST=0, EXCH=0):
    return {"face": face, "signature": signature, "UNIT": UNIT, "ASSOC": ASSOC,
            "MFI": MFI, "DIST": DIST, "EXCH": EXCH}


@pytest.mark.parametrize("ms, dim, size, nodes, unions, classes", [
    (loops(2), 1, 7, 85, _unions(UNIT=13, ASSOC=40), {(): 1, (1,): 31}),
    (loops(2), 1, 9, 293, _unions(signature=64, UNIT=21, ASSOC=144), {(): 1, (1,): 63}),
    (loops(2), 1, 11, 933, _unions(signature=352, UNIT=37, ASSOC=416), {(): 1, (1,): 127}),
    (loops(2), 1, 13, 2853, _unions(signature=1440, UNIT=69, ASSOC=1088), {(): 1, (1,): 255}),
    (loops(2), 1, 15, 8357, _unions(signature=5024, UNIT=133, ASSOC=2688), {(): 1, (1,): 511}),
    (fx.grid2x2(), 2, 12, 259, _unions(UNIT=90, MFI=19, DIST=60, EXCH=9),
     {(): 9, (1,): 18, (2,): 18, (1, 2): 36}),
    (fx.square(), 2, 8, 69, _unions(UNIT=24, DIST=16, EXCH=4),
     {(): 4, (1,): 6, (2,): 6, (1, 2): 9}),
    (fx.parallel_edges(), 2, 8, 32, _unions(UNIT=10, DIST=8, EXCH=2),
     {(): 2, (1,): 4, (2,): 2, (1, 2): 4}),
])
def test_closure_is_pinned_rule_by_rule(ms, dim, size, nodes, unions, classes):
    # which rule gets credit for each merge is part of the closure's output
    p = mc.free_strict(ms, dim, size)
    assert p.unions == unions
    assert len(p.nodes) == nodes
    assert p.class_counts() == classes


def _assert_closed_egraph(p):
    """The rebuild left nothing pending, the e-nodes are canonical, listed
    once and mapped to their class root, every node is congruent to an e-node
    of its class, and every node has the faces of its class root."""
    find = p.uf.find
    assert p.absorbed == [] and p.repair == []
    assert all(p._canon(key) == key for key in p.hashcons)
    listed = [key for ens in p.enodes.values() for key in ens]
    assert len(listed) == len(set(listed)) == len(p.hashcons)
    assert set(listed) == set(p.hashcons)
    for root, ens in p.enodes.items():
        assert find(root) == root
        # the hash-cons maps each e-node to its class root itself
        assert all(p.hashcons[key] == root for key in ens)
    for nid, node in enumerate(p.nodes):
        root = find(nid)
        assert p.hashcons[p._canon(node)] == root
        for d in p.color[nid]:
            for pol in (SOURCE, TARGET):
                assert p.class_face(nid, d, pol) == p.class_face(root, d, pol)


@pytest.mark.parametrize("ms, dim, size", [(loops(2), 1, 11), (fx.grid2x2(), 2, 12)])
def test_every_materialization_round_keeps_the_egraph_closed(ms, dim, size):
    p = mc.StrictPresentation(ms, dim, size, Budget(100_000))
    for c in ms.colors():
        for x in ms.cells_at(c):
            p.gen(c, x)
    rounds = 0
    while True:
        p.saturate()
        _assert_closed_egraph(p)
        grew = p._materialize_round()
        # congruent nodes joined their classes in place: nothing to rebuild
        _assert_closed_egraph(p)
        rounds += 1
        if not grew:
            break
    assert rounds > 2
    assert p.unions == mc.free_strict(ms, dim, size).unions


def _edge_between(a, b, edge):
    """Vertices ``a`` and ``b`` and one edge ``edge``: a -> b."""
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = [a, b]
    ms.cells[(1,)] = [edge]
    ms.src[((1,), 1)] = {edge: a}
    ms.tgt[((1,), 1)] = {edge: b}
    return ms


@pytest.mark.parametrize("edge", ["a", "e"])
def test_quotient_keys_names_by_color(edge):
    # ids are unique only within a color: an edge may share a vertex's id
    ms = _edge_between("a", "b", edge)
    for size in (5, 8):
        cat = mc.quotient_to_category(mc.free_strict(ms, 1, size))
        assert len(cat.base.cells_at((1,))) == 3
        assert mc.validate_strict(cat).ok
    assert mc.validate_stretching(mc.free_weak(ms, stages=1).stretching).ok


def path2_with_named_composite():
    """path2 and a third edge v0 -> v2 named like the composite of x and y."""
    ms = fx.path2()
    ms.cells[(1,)].append("(x *1 y)")
    ms.src[((1,), 1)]["(x *1 y)"] = "v0"
    ms.tgt[((1,), 1)]["(x *1 y)"] = "v2"
    return ms


def test_quotient_rejects_a_generator_named_like_a_composite():
    p = mc.free_strict(path2_with_named_composite(), 1, 8)
    with pytest.raises(mc.InvalidBase, match=r"'\(x \*1 y\)' repeated at color \[1\]"):
        mc.quotient_to_category(p)


def _glued(seed, d, sizes):
    return mc.random_multiple_set(d, d, sizes=sizes, seed=seed, glue_prob=0.5)


@pytest.mark.parametrize("ms, dim, size", [
    (loops(2), 1, 11), (fx.grid2x2(), 2, 12),
    (_glued(3, 1, 2), 1, 8), (_glued(4, 2, 1), 2, 6), (_glued(7, 2, 1), 2, 5),
])
def test_saturation_and_rounds_leave_no_work_undone(ms, dim, size):
    # the matcher leaves out the instances whose classes already agree, and
    # a round skips what earlier rounds made; neither may leave work undone
    p = mc.StrictPresentation(ms, dim, size, Budget(100_000))
    for c in ms.colors():
        for x in ms.cells_at(c):
            p.gen(c, x)
    D = ms.universe_bound
    while True:
        p.saturate()
        assert p._match() == []
        reps = list(p.representatives().values())
        grew = p._materialize_round()
        for a in reps:
            c = p.color[a]
            if len(c) < dim and p.size[a] < size:
                assert all(("refl", l, a) in p.memo for l in mc.addable_entries(c, D))
            for b in reps:
                for d in c if p.color[b] == c else ():
                    if (p.size[a] + p.size[b] < size
                            and p.class_face(a, d, SOURCE) == p.class_face(b, d, TARGET)):
                        assert ("comp", d, a, b) in p.memo
        if not grew:
            break
    assert p.unions == mc.free_strict(ms, dim, size).unions


@pytest.mark.parametrize("ms, dim, size", [
    *[(loops(2), 1, size) for size in range(7, 16)],
    (fx.grid2x2(), 2, 12), (fx.square(), 2, 8), (fx.parallel_edges(), 2, 8),
    (_glued(3, 1, 2), 1, 8), (_glued(4, 2, 1), 2, 6), (_glued(7, 2, 1), 2, 5),
])
def test_match_agrees_with_the_reference_matcher_at_every_step(ms, dim, size):
    # the matcher reads class roots straight from the hash-cons; the
    # reference looks up every hit's class, and the two agree in order
    p = mc.StrictPresentation(ms, dim, size, Budget(100_000))
    for c in ms.colors():
        for x in ms.cells_at(c):
            p.gen(c, x)
    steps = 0
    while True:
        # StrictPresentation.saturate, step by step
        p._rebuild()
        while not p.closed:
            p.closed = True
            found = p._match()
            assert found == reference_match(p)
            steps += 1
            for rule, a, b in found:
                p.matched[rule] += 1
                p.union(a, b, rule)
            p._rebuild()
        assert p._match() == reference_match(p) == []
        if not p._materialize_round():
            break
    assert steps > 3
    built = mc.free_strict(ms, dim, size)
    assert (p.matched, p.unions, len(p.nodes)) == (built.matched, built.unions, len(built.nodes))


@pytest.mark.parametrize("ms, dim, size, matched, unions", [
    (loops(2), 1, 15, {"UNIT": 254, "ASSOC": 6104, "MFI": 0, "DIST": 0, "EXCH": 0},
     _unions(signature=5024, UNIT=133, ASSOC=2688)),
    (fx.grid2x2(), 2, 12, {"UNIT": 216, "ASSOC": 0, "MFI": 38, "DIST": 60, "EXCH": 18},
     _unions(UNIT=90, MFI=19, DIST=60, EXCH=9)),
])
def test_matched_counts_the_instances_tried(ms, dim, size, matched, unions):
    # unions[rule] / matched[rule] is the share of the matched instances
    # that merged two classes
    p = mc.free_strict(ms, dim, size)
    assert p.matched == matched
    assert p.unions == unions
