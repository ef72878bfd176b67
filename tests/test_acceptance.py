"""Acceptance criteria, one test per criterion.

Expected values are frozen from the independent brute-force oracles in
``oracles.py``; runtime budgets are asserted inside the tests.
"""

import json
import os
import random
import time

import multicat as mc
from multicat import fixtures as fx
from multicat.cli import main as cli_main
from multicat.reversors import required_slots
from multicat.serialize import parse, serialize
from oracles import (
    NaiveFreeStrict,
    bracket_axiom_ids,
    dist_axiom_ids,
    expected_bracket_counts,
    magma_axiom_ids,
    multiple_set_axiom_ids,
    reflexive_axiom_ids,
    reflexive_counts,
    reversor_axiom_ids,
    stagewise_bracket_counts,
    strict_axiom_ids,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


# -- criterion 1: axiom-validator mutation suite ----------------------------


def _strict_oracle_ids(cat):
    return (
        magma_axiom_ids(cat.comp, cat.base)
        | reflexive_axiom_ids(cat.refl.refl, cat.base)
        | dist_axiom_ids(cat.comp, cat.refl.refl, cat.base)
        | strict_axiom_ids(cat.comp, cat.refl.refl, cat.base)
    )


def _three_path_category():
    # two composable edges plus a parallel shortcut, so associativity and
    # unit mutations are expressible without breaking the positional laws
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v0", "v1", "v2"]
    ms.cells[(1,)] = ["x", "y", "z"]
    ms.src[((1,), 1)] = {"z": "v0", "y": "v0", "x": "v1"}
    ms.tgt[((1,), 1)] = {"z": "v2", "y": "v1", "x": "v2"}
    return mc.quotient_to_category(mc.free_strict(ms, 1, 10))


def test_criterion_1_mutation_suite():
    t0 = time.monotonic()
    seen = set()
    mutations = detected = 0

    # SS / TT / ST: every face-table entry of the square, every wrong value
    sq = fx.square()
    for tabs, key in [(t, k) for t in (sq.src, sq.tgt) for k in sorted(t)]:
        lower = tuple(e for e in key[0] if e != key[1])
        for cell in sorted(tabs[key]):
            orig = tabs[key][cell]
            for other in sq.cells_at(lower):
                if other == orig:
                    continue
                tabs[key][cell] = other
                expected = multiple_set_axiom_ids(sq)
                got = mc.validate_multiple_set(sq).axioms()
                assert got == expected, (key, cell, other)
                mutations += 1
                detected += bool(expected)
                seen |= got
            tabs[key][cell] = orig
    assert mc.validate_multiple_set(sq).ok

    # reflexivity diagrams + section law
    fr = mc.free_reflexive(fx.parallel_edges(), 2)
    for key in sorted(fr.refl):
        up = tuple(sorted(set(key[0]) | {key[1]}))
        for cell in sorted(fr.refl[key]):
            orig = fr.refl[key][cell]
            for other in fr.base.cells_at(up) + [None]:
                if other == orig:
                    continue
                if other is None:
                    del fr.refl[key][cell]
                else:
                    fr.refl[key][cell] = other
                expected = reflexive_axiom_ids(fr.refl, fr.base)
                got = mc.validate_reflexive(fr).axioms()
                assert got == expected, (key, cell, other)
                mutations += 1
                detected += bool(expected)
                seen |= got
                fr.refl[key][cell] = orig
    assert mc.validate_reflexive(fr).ok

    # interchange needs genuinely distinct double composites: sample the
    # top-color composition tables of the 2x2 grid category
    grid_cat = mc.quotient_to_category(mc.free_strict(fx.grid2x2(), 2, 12))
    for key in sorted(grid_cat.comp):
        if key[0] != (1, 2):
            continue
        tab = grid_cat.comp[key]
        for pair in sorted(tab)[:20]:
            orig = tab[pair]
            for other in grid_cat.base.cells_at(key[0])[:3] + [None]:
                if other == orig:
                    continue
                if other is None:
                    del tab[pair]
                else:
                    tab[pair] = other
                expected = _strict_oracle_ids(grid_cat)
                got = mc.validate_strict(grid_cat).axioms()
                assert got == expected, (key, pair, other)
                mutations += 1
                detected += bool(expected)
                seen |= got
                tab[pair] = orig
    assert mc.validate_strict(grid_cat).ok

    # positional laws, distribution, associativity/units/interchange
    for cat in (
        fx.pair_groupoid(2),
        _three_path_category(),
        mc.quotient_to_category(mc.free_strict(fx.square(), 2, 8)),
    ):
        for key in sorted(cat.comp):
            tab = cat.comp[key]
            for pair in sorted(tab):
                orig = tab[pair]
                for other in cat.base.cells_at(key[0]) + [None]:
                    if other == orig:
                        continue
                    if other is None:
                        del tab[pair]
                    else:
                        tab[pair] = other
                    expected = _strict_oracle_ids(cat)
                    got = mc.validate_strict(cat).axioms()
                    assert got == expected, (key, pair, other)
                    mutations += 1
                    detected += bool(expected)
                    seen |= got
                    tab[pair] = orig
        assert mc.validate_strict(cat).ok

    # reversor swap / serial / coverage
    pg = fx.pair_groupoid(2)
    rev = mc.search_reversors(pg, 0, "minimal")[0]
    chain = rev.chains[0]
    for cell in pg.base.cells_at((1,)):
        tab = chain.map_at(0)
        orig = tab[cell]
        for other in pg.base.cells_at((1,)) + [None]:
            if other == orig:
                continue
            if other is None:
                del tab[cell]
            else:
                tab[cell] = other
            rev.chains[0] = mc.make_chain((1,), (1,), [tab])
            expected = reversor_axiom_ids(rev, pg.base)
            got = mc.validate_reversors(rev).axioms()
            assert got == expected, (cell, other)
            mutations += 1
            detected += bool(expected)
            seen |= got
            tab[cell] = orig
    rev.chains = []
    assert mc.validate_reversors(rev).axioms() == {"COVER"}
    seen |= {"COVER"}
    mutations += 1
    detected += 1

    two = fx.two_copies(3, 3)
    chains = []
    for c, sub in required_slots(two, 0, "maximal"):
        level = c
        maps = []
        for e in sub:
            maps.append({x: x for x in two.cells_at(level)})
            level = tuple(k for k in level if k != e)
        chains.append(mc.make_chain(c, sub, maps))
    max_rev = mc.ReversorStructure(base=two, m=0, kind="maximal", chains=chains)
    assert mc.validate_reversors(max_rev).ok
    idx = next(i for i, ch in enumerate(max_rev.chains) if len(ch.entries) == 2)
    chain = max_rev.chains[idx]
    for level in (0, 1):
        maps = [chain.map_at(0), chain.map_at(1)]
        maps[level] = {"p0": "p1", "p1": "p0"}
        max_rev.chains[idx] = mc.make_chain(chain.color, chain.entries, maps)
        expected = reversor_axiom_ids(max_rev, two)
        got = mc.validate_reversors(max_rev).axioms()
        assert got == expected, level
        mutations += 1
        detected += bool(expected)
        seen |= got
    max_rev.chains[idx] = chain

    # bracket axioms and the projection law
    e = mc.identity_stretching(mc.quotient_to_category(mc.free_strict(fx.square(), 2, 8)))
    for key in sorted(e.brackets):
        tab = e.brackets[key]
        up = tuple(sorted(set(key[0]) | {key[1]}))
        for pair in sorted(tab):
            orig = tab[pair]
            for other in e.magma.base.cells_at(up) + [None]:
                if other == orig:
                    continue
                if other is None:
                    del tab[pair]
                else:
                    tab[pair] = other
                expected = bracket_axiom_ids(e)
                got = mc.validate_stretching(e).axioms()
                assert got == expected, (key, pair, other)
                mutations += 1
                detected += bool(expected)
                seen |= got
                tab[pair] = orig
    for c in sorted(e.pi):
        for cell in sorted(e.pi[c]):
            orig = e.pi[c][cell]
            for other in e.cat.base.cells_at(c):
                if other == orig:
                    continue
                e.pi[c][cell] = other
                expected = bracket_axiom_ids(e)
                got = mc.validate_stretching(e).axioms()
                assert got == expected, (c, cell, other)
                mutations += 1
                detected += bool(expected)
                seen |= got
            e.pi[c][cell] = orig
    assert mc.validate_stretching(e).ok

    families = {
        "SS", "TT", "ST",
        "REFL-S", "REFL-T", "REFL-EXCH", "REFL-SECT",
        "POS1", "POS2", "DIST",
        "ASSOC", "UNIT", "MFI",
        "SWAP-END", "SERIAL", "COVER",
        "BR-FACE", "BR-END", "BR-PI",
    }
    missing = families - seen
    assert not missing, f"families never reported: {sorted(missing)}"

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"mutation suite took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS: {mutations} mutations, {detected} detected, "
        f"{len(seen)} axiom ids, {elapsed:.1f}s"
    )


# -- criterion 2: free reflexive monad laws ----------------------------------


def test_criterion_2_reflexive_monad_laws():
    cases = [
        fx.point(1, 1),
        fx.point(2, 2),
        fx.square(),
        fx.path2(),
        fx.single_edge(),
        fx.parallel_edges(),
        fx.grid2x2(),
        mc.terminal_multiple_set(2, 2),
        mc.random_multiple_set(2, 2, sizes=2, seed=11, glue_prob=0.5),
        mc.random_multiple_set(1, 1, sizes=3, seed=12, glue_prob=0.5),
    ]
    for ms in cases:
        n = ms.dim_bound
        t1 = mc.free_reflexive(ms, n)
        got = {c: len(t1.base.cells_at(c)) for c in t1.base.colors()}
        assert got == reflexive_counts(ms, n)

        t2 = mc.free_reflexive(t1.base, n)
        mu = mc.reflexive_monad_multiply(t2, t1)

        # unit law, outer: mu . eta_{T X} = id
        left = mc.compose_morphisms(mu, t2.unit)
        assert mc.morphisms_equal(left, mc.identity_morphism(t1.base))

        # unit law, inner: mu . T(eta_X) = id
        for (c, cid), (c0, x, added) in t1.origin.items():
            _, lifted = t2.cell_of[(c0, x, added)]
            assert mu.maps[c][lifted] == cid

        # associativity of multiplication
        t3 = mc.free_reflexive(t2.base, n)
        mu23 = mc.reflexive_monad_multiply(t3, t2)
        maps = {}
        for (c, cid), (c1, mid, added) in t3.origin.items():
            _, target = t2.cell_of[(c1, mu.maps[c1][mid], added)]
            maps.setdefault(c, {})[cid] = target
        t_mu = mc.MsMorphism(t3.base, t2.base, maps)
        assert mc.morphisms_equal(
            mc.compose_morphisms(mu, mu23), mc.compose_morphisms(mu, t_mu)
        )
    print(f"\nACCEPTANCE 2 PASS: monad laws on {len(cases)} inputs")


# -- criterion 3: free strict oracle equivalence ------------------------------


def test_criterion_3_free_strict_oracle():
    t0 = time.monotonic()
    rng = random.Random(7)
    inputs = []
    for i in range(20):
        d = rng.choice([1, 2])
        sizes = rng.choice([1, 2, 3]) if d == 1 else rng.choice([1, 2])
        s = rng.choice([6, 7, 8]) if d == 1 else rng.choice([4, 5, 6])
        inputs.append((mc.random_multiple_set(d, d, sizes=sizes, seed=100 + i,
                                              glue_prob=0.5), d, s))

    queries = 0
    for ms, n, s in inputs:
        p = mc.free_strict(ms, n, s)
        oracle = NaiveFreeStrict(ms, n, s)
        assert p.class_counts() == oracle.class_counts()
        terms = oracle.sample_terms()
        tries = 0
        while queries < 5 * 20 and tries < 200:
            tries += 1
            t1, t2 = rng.choice(terms), rng.choice(terms)
            if oracle.color_of(t1) != oracle.color_of(t2):
                continue
            try:
                got = mc.term_equal(p, t1, t2)
            except mc.TermNotMaterialized:
                continue
            assert got == oracle.equal(t1, t2), (t1, t2)
            queries += 1
    assert queries >= 100

    # every middle-four instance on the 2x2 grid merges
    p = mc.free_strict(fx.grid2x2(), 2, 12)
    gen = lambda a, b: ("gen", (1, 2), f"A{a}{b}")
    lhs = ("comp", 1, ("comp", 2, gen(1, 1), gen(1, 0)), ("comp", 2, gen(0, 1), gen(0, 0)))
    rhs = ("comp", 2, ("comp", 1, gen(1, 1), gen(0, 1)), ("comp", 1, gen(1, 0), gen(0, 0)))
    assert mc.term_equal(p, lhs, rhs)
    cat = mc.quotient_to_category(p)
    assert mc.validate_strict(cat).ok  # includes every MFI instance

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 3 PASS: 20 random inputs, {queries} equality queries, "
        f"{elapsed:.1f}s"
    )


# -- criterion 4: reversor uniqueness at desk scale ---------------------------


def test_criterion_4_reversor_uniqueness():
    invertible = {
        "pair_groupoid(1)": fx.pair_groupoid(1),
        "pair_groupoid(2)": fx.pair_groupoid(2),
        "pair_groupoid(3)": fx.pair_groupoid(3),
        "free(point 1d)": mc.quotient_to_category(mc.free_strict(fx.point(1, 1), 1, 6)),
        "free(point 2d)": mc.quotient_to_category(mc.free_strict(fx.point(2, 2), 2, 8)),
    }
    non_invertible = {
        "single_edge": mc.quotient_to_category(mc.free_strict(fx.single_edge(), 1, 6)),
        "path2": mc.quotient_to_category(mc.free_strict(fx.path2(), 1, 8)),
        "parallel_edges": mc.quotient_to_category(mc.free_strict(fx.parallel_edges(), 2, 8)),
        "square": mc.quotient_to_category(mc.free_strict(fx.square(), 2, 8)),
        "grid2x2": mc.quotient_to_category(mc.free_strict(fx.grid2x2(), 2, 12)),
    }
    findings = []
    for name, cat in invertible.items():
        found = mc.search_reversors(cat, 0, "minimal")
        if len(found) != 1:
            findings.append(f"{name}: {len(found)} structures")
        else:
            assert mc.validate_reversors(found[0]).ok
    for name, cat in non_invertible.items():
        found = mc.search_reversors(cat, 0, "minimal")
        if found:
            findings.append(f"{name}: unexpected structures ({len(found)})")
    assert not findings, "; ".join(findings)
    print(
        f"\nACCEPTANCE 4 PASS: unique on {len(invertible)} invertible, "
        f"none on {len(non_invertible)} non-invertible"
    )


# -- criterion 5: Penon completion stage invariant ----------------------------


def test_criterion_5_stage_invariant():
    t0 = time.monotonic()
    cases = [(fx.parallel_edges(), 2)]
    # random inputs whose strict quotient closes at the working size bound;
    # gluing can create loops, whose free category is infinite
    tried = 0
    while len(cases) < 11 and tried < 200:
        tried += 1
        d = 1 if tried % 2 else 2
        ms = mc.random_multiple_set(d, d, sizes=1, seed=200 + tried, glue_prob=0.6)
        try:
            mc.quotient_to_category(mc.free_strict(ms, d, 8))
        except mc.BoundsTooSmall:
            continue
        cases.append((ms, d))
    assert len(cases) == 11
    checked = 0
    for ms, n in cases:
        for stages in (1, 2):
            fw = mc.free_weak(ms, dim_bound=n, size_bound=8, stages=stages)
            e = fw.stretching
            report = mc.validate_stretching(e)
            assert report.ok, report.render()
            got = {k: len(v) for k, v in e.brackets.items()}
            assert got == expected_bracket_counts(e)
            per_stage = {}
            for (c, r), tab in e.brackets.items():
                up = tuple(sorted(set(c) | {r}))
                for cell in tab.values():
                    k = e.stage_of[(up, cell)]
                    per_stage[(k, c, r)] = per_stage.get((k, c, r), 0) + 1
            assert per_stage == stagewise_bracket_counts(e)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"stage invariant took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 PASS: {checked} completions checked, {elapsed:.1f}s")


# -- criterion 6: CLI golden tests --------------------------------------------


def test_criterion_6_cli_golden():
    corpus = sorted(
        f for f in os.listdir(FIXTURE_DIR) if f.endswith(".mset")
    )
    assert len(corpus) >= 10
    for name in corpus:
        path = os.path.join(FIXTURE_DIR, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert serialize(parse(text), json.loads(text)["kind"]) == text, name
        code = cli_main(["validate", path])
        assert code == (1 if "broken" in name else 0), name
    assert cli_main(["validate", os.path.join(FIXTURE_DIR, "no-such-file.mset")]) == 2
    print(f"\nACCEPTANCE 6 PASS: {len(corpus)} documents round-trip byte-exact")
