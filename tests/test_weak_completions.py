"""Weak completions and free reflexive structures pinned to a golden.

Each weak case runs ``free_weak`` on a fixture at one stage count and one
cutoff m, and records the sha-256 of the written stretching, its stage log
and the budget the whole construction spent, or the error that ended it.
Each reflexive case runs ``free_reflexive`` on a seeded random multiple set
(and once more on its result) and records the sha-256 of the written
structure and of its ``origin`` and ``cell_of`` maps.  A rewrite of the term
graph or the completion must reproduce every figure exactly.

Regenerate the golden only when a construction is meant to change:

    PYTHONPATH=src python3 tests/test_weak_completions.py > tests/golden/weak-completions.json
"""

import hashlib
import json
import os

import multicat as mc
from multicat import fixtures as fx
from multicat.errors import MulticatError
from multicat.terms import Budget

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "weak-completions.json")

# (name, generators, keyword bounds); grid2x2's quotient closes at size 12
WEAK_INPUTS = [
    ("point-1-1", fx.point(1, 1), {"size_bound": 8}),
    ("point-2-2", fx.point(2, 2), {"size_bound": 8}),
    ("path2", fx.path2(), {"size_bound": 8}),
    ("single_edge", fx.single_edge(), {"size_bound": 8}),
    ("parallel_edges", fx.parallel_edges(), {"size_bound": 8}),
    ("square", fx.square(), {"size_bound": 8}),
    ("grid2x2", fx.grid2x2(), {"size_bound": 12}),
]
STAGES = (1, 2, 3)
CUTOFFS = (None, 0, 1)
WEAK_BUDGET = 20_000

# (universe and dim bound, sizes, dim bound of the construction, glue
# probability); each is built from three seeds
REFLEXIVE = [(1, 1, 1, 0.5), (1, 2, 2, 0.5), (2, 1, 2, 0.5), (2, 1, 3, 0.3), (3, 1, 3, 0.5)]
SEEDS = range(3)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc):
    return {"type": type(exc).__name__, "message": str(exc)}


def _weak_case(name, ms, bounds, stages, m):
    budget = Budget(WEAK_BUDGET)
    case = {"case": f"{name}-s{stages}-m{m}"}
    try:
        fw = mc.free_weak(ms, m=m, stages=stages, budget=budget, **bounds)
    except MulticatError as exc:
        case["error"] = _error(exc)
    else:
        case["sha"] = _sha(mc.serialize(fw.stretching))
        case["stage_log"] = fw.stage_log
    case["used"] = budget.used
    return case


def _reflexive_case(name, ms, dim):
    fr = mc.free_reflexive(ms, dim)
    return {"case": name, "sha": _sha(mc.serialize(fr, "reflexive")),
            "origin": _sha(repr(sorted(fr.origin.items(), key=repr))),
            "cell_of": _sha(repr(sorted(fr.cell_of.items(), key=repr))),
            "cells": sum(map(len, fr.base.cells.values()))}


def cases():
    out = [_weak_case(name, ms, bounds, stages, m)
           for name, ms, bounds in WEAK_INPUTS for stages in STAGES for m in CUTOFFS]
    for n, sizes, dim, glue in REFLEXIVE:
        for seed in SEEDS:
            ms = mc.random_multiple_set(n, n, sizes=sizes, seed=seed, glue_prob=glue)
            name = f"reflexive-{n}-{sizes}-{dim}-{seed}"
            out.append(_reflexive_case(name, ms, dim))
            # once more on its own result: generators named like built cells
            out.append(_reflexive_case(name + "-twice", mc.free_reflexive(ms, dim).base, dim))
    return out


def test_weak_completions_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(cases()))
    assert [case["case"] for case in got] == [case["case"] for case in golden]
    for want, have in zip(golden, got):
        assert have == want, want["case"]


def test_golden_has_builds_reversors_and_failures():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    weak = [case for case in golden if "stage_log" in case or "error" in case]
    assert sum("stage_log" in case for case in weak) >= 20
    assert any(entry["reversors"] for case in weak for entry in case.get("stage_log", ()))
    errors = {case["error"]["message"] for case in weak if "error" in case}
    assert "strict layer lacks reversor at [1]" in errors
    assert "strict layer admits no reversor structure" in errors
    assert sum("origin" in case for case in golden) == 2 * len(REFLEXIVE) * len(SEEDS)


if __name__ == "__main__":
    print(json.dumps(cases(), indent=1, sort_keys=True))
