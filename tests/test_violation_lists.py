"""Complete violation lists of seeded single-entry mutations, pinned to a golden.

The oracle tests compare sets of axiom ids; this test pins whole reports --
axiom, color, cells and detail of every violation, in order -- so a rewrite
of a validator scan must reproduce them exactly.  Each case mutates one
record of a canonical document (its value, a key cell, its direction, or
the record's removal), parses the result and validates it.

Regenerate the golden only when a report is meant to change:

    PYTHONPATH=src python3 tests/test_violation_lists.py > tests/golden/violation-lists.json
"""

import json
import os
import random

import multicat as mc
from multicat import fixtures as fx
from multicat.errors import ParseError
from multicat.serialize import from_document, to_document

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "violation-lists.json")

# table -> (direction field, key cell fields, value fields); pi has no direction
TABLES = {
    "faces": (1, (2,), (3, 4)),
    "refl": (1, (2,), (3,)),
    "comp": (1, (2, 3), (4,)),
    "pi": (None, (1,), (2,)),
    "brackets": (1, (2, 3), (4,)),
    "stage_of": (None, (1,), (2,)),
}
PER_TABLE = 6


def _documents():
    """(name, document, validator) for every structure the cases mutate."""
    grid = mc.quotient_to_category(mc.free_strict(fx.grid2x2(), 2, 12))
    return [
        ("square-weak-1", to_document(mc.free_weak(fx.square(), stages=1).stretching),
         mc.validate_stretching),
        ("square-weak-2", to_document(mc.free_weak(fx.square(), stages=2).stretching),
         mc.validate_stretching),
        ("grid-strict", to_document(grid, "strict"), mc.validate_strict),
        ("pair-groupoid-magma", to_document(fx.pair_groupoid(3)),
         mc.validate_reflexive_magma),
        ("pair-groupoid-identity", to_document(mc.identity_stretching(fx.pair_groupoid(2))),
         mc.validate_stretching),
        ("point-reflexive", to_document(mc.free_reflexive(fx.point(2, 1), 2)),
         mc.validate_reflexive),
    ]


def _tables(doc, prefix=""):
    """(path, records) of every table in ``doc``, nested bodies included."""
    for key in sorted(doc):
        if key in TABLES and doc[key]:
            yield prefix + key, doc[key]
        elif isinstance(doc[key], dict):
            yield from _tables(doc[key], prefix + key + ".")


def _mutate(records, table, rng):
    """Mutate one record of ``records`` in place; return what was done."""
    direction, keys, values = TABLES[table]
    i = rng.randrange(len(records))
    rec = records[i]
    kinds = ["swap", "stray", "drop", "key"] + (["direction"] if direction else [])
    kinds += ["null"] if table == "faces" else []
    kind = rng.choice(kinds)
    if kind == "drop":
        del records[i]
        return [kind, i]
    if kind == "direction":
        rec[direction] = rng.choice([e for e in range(1, 5) if e != rec[direction]])
        return [kind, i, rec[direction]]
    if kind == "key":
        field = rng.choice(keys)
        rec[field] = "stray"
        return [kind, i, field]
    field = rng.choice(values)
    if kind == "swap":
        others = sorted({r[field] for r in records if r[field] not in (None, rec[field])})
        rec[field] = rng.choice(others) if others else "stray"
    else:
        rec[field] = "stray" if kind == "stray" else None
    return [kind, i, field, rec[field]]


def _report(doc, validator):
    try:
        return validator(from_document(doc)).to_json()
    except ParseError as exc:
        return {"parse_error": str(exc)}


def _morphism_cases():
    """validate_morphism on an identity of the square with one entry changed."""
    out = []
    rng = random.Random(11)
    for n in range(12):
        sq = fx.square()
        f = mc.identity_morphism(sq)
        c = rng.choice(sorted(f.maps, key=lambda c: (len(c), c)))
        x = rng.choice(sorted(f.maps[c]))
        kind = ["swap", "stray", "drop", "component", "face"][n % 5]
        if kind == "swap":
            f.maps[c][x] = rng.choice(sorted(sq.cells[c]))
        elif kind == "stray":
            f.maps[c][x] = "stray"
        elif kind == "drop":
            del f.maps[c][x]
        elif kind == "component":
            del f.maps[c]
        else:
            target = mc.MultipleSet(sq.universe_bound, sq.dim_bound, dict(sq.cells),
                                    {k: dict(v) for k, v in sq.src.items()}, dict(sq.tgt))
            key = rng.choice(sorted(target.src))
            cell = rng.choice(sorted(target.src[key]))
            if n % 2:
                del target.src[key][cell]
            else:
                target.src[key][cell] = "stray"
            f = mc.MsMorphism(sq, target, f.maps)
            c, x = key, cell
        out.append({"doc": "square-identity", "mutation": [kind, list(c), x],
                    "report": mc.validate_morphism(f).to_json()})
    return out


def cases():
    out = []
    for name, doc, validator in _documents():
        rng = random.Random(name)
        text = json.dumps(doc)
        out.append({"doc": name, "mutation": [], "report": _report(doc, validator)})
        for path, records in _tables(doc):
            table = path.rsplit(".", 1)[-1]
            for _ in range(PER_TABLE):
                mutated = json.loads(text)
                node = mutated
                for part in path.split("."):
                    node = node[part]
                what = _mutate(node, table, rng)
                out.append({"doc": name, "mutation": [path, *what],
                            "report": _report(mutated, validator)})
    return out + _morphism_cases()


def test_violation_lists_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(cases()))
    assert len(got) == len(golden)
    for want, have in zip(golden, got):
        assert have == want, want["mutation"]


def test_golden_covers_every_table_and_a_failing_base():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    tables = {case["mutation"][0].rsplit(".", 1)[-1] for case in golden if case["mutation"]}
    assert set(TABLES) <= tables
    axioms = {v["axiom"] for case in golden for v in case["report"].get("violations", ())}
    assert {"SHAPE", "SS", "TOTAL", "PI", "BR-TOTAL", "POS1", "REFL-SECT"} <= axioms
    assert sum(len(case["report"].get("violations", ())) for case in golden) > 300


if __name__ == "__main__":
    print(json.dumps(cases(), indent=1, sort_keys=True))
