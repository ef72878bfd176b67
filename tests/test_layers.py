"""The layer table: each kind of structure is checked by the rows it stacks,
and every free construction builds what its own validator accepts, whatever
the shape of its input."""

import json

import pytest

import multicat as mc
from multicat import fixtures as fx
from multicat.serialize import parse, to_document
from oracles import (
    expected_bracket_counts,
    multiple_set_axiom_ids,
    reflexive_axiom_ids,
    reflexive_counts,
    stagewise_bracket_counts,
)
from test_acceptance import _strict_oracle_ids

MAGMA_KINDS = [mc.validate_magma, mc.validate_reflexive_magma, mc.validate_strict]


@pytest.mark.parametrize("validate", MAGMA_KINDS)
def test_a_magma_checks_the_keys_of_the_degeneracies_attached(validate):
    pg = fx.pair_groupoid(2)
    pg.refl.refl[((), 1.5)] = pg.refl.refl.pop(((), 1))
    assert validate(pg).violations == [
        mc.Violation("SHAPE", (), (), "degeneracy direction must be an integer, got 1.5")]


NAMES = "cells named in {} records must be strings"


@pytest.mark.parametrize("validate", MAGMA_KINDS)
@pytest.mark.parametrize("table, color", [("comp", (1,)), ("refl", ())])
def test_a_record_keyed_by_a_non_string_breaks_the_rule(table, color, validate):
    pg = fx.pair_groupoid(2)
    if table == "comp":
        pg.comp[((1,), 1)][(0, 0)] = "o0>o0"
    else:
        pg.refl.refl[((), 1)][0] = "o0>o0"
    assert validate(pg).violations == [mc.Violation("SHAPE", color, (), NAMES.format(table))]


def test_the_parser_refuses_such_a_record_with_the_same_message():
    doc = json.loads(json.dumps(to_document(fx.pair_groupoid(2))))
    doc["comp"].append([[1], 1, 0, 0, "o0>o0"])
    with pytest.raises(mc.ParseError) as info:
        parse(json.dumps(doc))
    assert str(info.value) == NAMES.format("comp")


def test_a_bracket_that_names_a_cell_by_a_non_string_breaks_the_rule():
    e = mc.identity_stretching(fx.pair_groupoid(2))
    e.brackets[((), 1)][(0, "o0")] = "o0>o0"
    assert mc.validate_stretching(e).violations == [
        mc.Violation("SHAPE", (), (), NAMES.format("brackets"))]


# -- shapes: every universe bound u and dimension bound d <= u ---------------

SIZE = 8
BUDGET = 3000
REFUSALS = (mc.InvalidBase, mc.BoundsTooSmall, mc.BudgetExceeded)


def _built(build):
    """What ``build()`` returns, or None where it refuses with its own error."""
    try:
        return build()
    except REFUSALS:
        return None


def _check_reflexive(X, d):
    fr = _built(lambda: mc.free_reflexive(X, d, budget=BUDGET))
    if fr is None:
        return
    report = mc.validate_reflexive(fr)
    assert report.ok, report.render()
    assert not reflexive_axiom_ids(fr.refl, fr.base) | multiple_set_axiom_ids(fr.base)
    assert {c: len(xs) for c, xs in fr.base.cells.items()} == reflexive_counts(X, d)


def _check_strict(X, d):
    cat = _built(lambda: mc.quotient_to_category(mc.free_strict(X, d, SIZE, budget=BUDGET)))
    if cat is None:
        return
    report = mc.validate_strict(cat)
    assert report.ok, report.render()
    assert not _strict_oracle_ids(cat) | multiple_set_axiom_ids(cat.base)


def _check_weak(X, m):
    fw = _built(lambda: mc.free_weak(X, m=m, size_bound=SIZE, budget=BUDGET))
    if fw is None:
        return
    e = fw.stretching
    report = mc.validate_stretching(e)
    assert report.ok, report.render()
    assert not _strict_oracle_ids(e.cat) | multiple_set_axiom_ids(e.magma.base)
    assert {key: len(tab) for key, tab in e.brackets.items()} == expected_bracket_counts(e)
    per_stage = {}
    for (c, r), tab in e.brackets.items():
        for cell in tab.values():
            key = (e.stage_of[(mc.add(c, r), cell)], c, r)
            per_stage[key] = per_stage.get(key, 0) + 1
    assert per_stage == stagewise_bracket_counts(e)


@pytest.mark.parametrize("u, d", [(u, d) for u in range(1, 4) for d in range(1, u + 1)])
def test_every_construction_validates_on_every_shape(u, d):
    """Shapes whose universe is wider than their dimension included: the
    exchange square of two added entries is checked only within the dim
    bound, where its sides can exist."""
    inputs = [fx.point(u, d), fx.two_copies(u, d)] + [
        mc.random_multiple_set(u, d, sizes=1, seed=seed, glue_prob=0.5) for seed in range(3)]
    for X in inputs:
        _check_reflexive(X, d)
        _check_strict(X, d)
        for m in (None, 0):
            _check_weak(X, m)
