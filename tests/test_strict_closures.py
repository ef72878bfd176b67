"""Strict closures pinned to a golden, case by case.

Each case records what ``free_strict`` built -- the node count, the unions
made by each rule, the classes per color -- and the sha-256 of the written
quotient category, or the error that ended the quotient.  Each case also
searches the minimal reversor structures at m = 0 of the quotient, or of the
generators when the quotient does not close, and records how many there
are, the sha-256 of their chains in order, and the budget the search spent.
A rewrite of the saturation, the materialization or the search must
reproduce every figure exactly.

Regenerate the golden only when a closure is meant to change:

    PYTHONPATH=src python3 tests/test_strict_closures.py > tests/golden/strict-closures.json
"""

import hashlib
import json
import os

import multicat as mc
from multicat import fixtures as fx
from multicat.errors import MulticatError
from multicat.terms import Budget

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "strict-closures.json")

# (dim, sizes, size bound) of the glued random inputs, as in the small-mix
# benchmark's strict pool; each is built from five seeds
RANDOM = [(1, 1, 6), (1, 1, 7), (1, 2, 8), (2, 1, 4), (2, 1, 5), (2, 1, 6)]
SEEDS = range(5)
SEARCH_BUDGET = 20_000


def loops(k):
    """k loops at one vertex."""
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["v"]
    ms.cells[(1,)] = [f"l{i}" for i in range(k)]
    ms.src[((1,), 1)] = {f"l{i}": "v" for i in range(k)}
    ms.tgt[((1,), 1)] = {f"l{i}": "v" for i in range(k)}
    return ms


def loop_squares():
    """Two loops in each direction at one vertex and two squares on them."""
    ms = mc.MultipleSet(2, 2)
    ms.cells[()] = ["v"]
    ms.cells[(1,)], ms.cells[(2,)], ms.cells[(1, 2)] = ["a", "b"], ["c", "d"], ["A", "B"]
    for c, d, face in (((1,), 1, "v"), ((2,), 2, "v"), ((1, 2), 1, "c"), ((1, 2), 2, "a")):
        ms.src[(c, d)] = ms.tgt[(c, d)] = dict.fromkeys(ms.cells[c], face)
    return ms


def _inputs():
    """(name, multiple set, dim bound, size bound) of every case."""
    out = [(f"loops2-{s}", loops(2), 1, s) for s in range(7, 16)]
    out += [("grid2x2-12", fx.grid2x2(), 2, 12), ("square-8", fx.square(), 2, 8),
            ("parallel_edges-8", fx.parallel_edges(), 2, 8),
            ("point-1-5", fx.point(1, 1), 1, 5), ("point-2-7", fx.point(2, 2), 2, 7),
            ("loops3-7", loops(3), 1, 7), ("loop_squares-5", loop_squares(), 2, 5)]
    for d, sizes, s in RANDOM:
        for seed in SEEDS:
            ms = mc.random_multiple_set(d, d, sizes=sizes, seed=seed, glue_prob=0.5)
            out.append((f"random-{d}-{sizes}-{s}-{seed}", ms, d, s))
    return out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc):
    return {"type": type(exc).__name__, "message": str(exc)}


def _case(name, ms, dim, size):
    p = mc.free_strict(ms, dim, size)
    case = {"case": name, "nodes": len(p.nodes), "unions": p.unions,
            "classes": sorted([list(c), n] for c, n in p.class_counts().items())}
    try:
        searched = cat = mc.quotient_to_category(p)
        case["quotient"] = _sha(mc.serialize(cat, "strict"))
    except MulticatError as exc:
        searched = ms
        case["quotient"] = _error(exc)
    budget = Budget(SEARCH_BUDGET)
    found = mc.search_reversors(searched, 0, "minimal", budget)
    case["search"] = len(found)
    case["search_sha"] = _sha(repr([(ch.color, ch.entries, ch.maps)
                                    for r in found for ch in r.chains]))
    case["search_used"] = budget.used
    return case


def cases():
    return [_case(*args) for args in _inputs()]


def test_strict_closures_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(cases()))
    assert [case["case"] for case in got] == [case["case"] for case in golden]
    for want, have in zip(golden, got):
        assert have == want, want["case"]


def test_golden_has_quotients_searches_and_failures():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    quotients = [case for case in golden if isinstance(case["quotient"], str)]
    assert len(quotients) >= 10
    assert any(case["search"] == 1 for case in quotients)
    assert any(case["search"] > 1 for case in golden)
    assert any(isinstance(case["quotient"], dict) for case in golden)
    assert any(case["unions"]["MFI"] for case in golden)


if __name__ == "__main__":
    print(json.dumps(cases(), indent=1, sort_keys=True))
