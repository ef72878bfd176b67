import gc
import hashlib
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicat as mc
from multicat import fixtures as fx
from multicat.cli import main
from multicat.serialize import dump, from_document, parse, serialize, to_document

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def json_dumps(obj, kind=None) -> str:
    """The writer's oracle: json's own indented rendering of the document."""
    return json.dumps(to_document(obj, kind), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def fixture_paths():
    return sorted(
        os.path.join(FIXTURE_DIR, f)
        for f in os.listdir(FIXTURE_DIR)
        if f.endswith(".mset")
    )


@pytest.mark.parametrize("path", fixture_paths(), ids=os.path.basename)
def test_fixture_roundtrip_byte_exact(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    obj = parse(text)
    kind = json.loads(text)["kind"]
    assert serialize(obj, kind) == text
    assert json_dumps(obj, kind) == text
    # the parsed structure carries its kind: a strict document stays strict
    assert serialize(obj) == text


def test_parse_serialize_canonicalizes():
    # scrambled but equivalent document reserializes canonically
    sq = fx.square()
    doc = to_document(sq)
    doc["cells"] = list(reversed(doc["cells"]))
    scrambled = json.dumps(doc) + "\n"
    assert serialize(parse(scrambled)) == serialize(sq)


def test_every_kind_roundtrips():
    objs = [
        (fx.square(), "multiple-set"),
        (mc.free_reflexive(fx.point(2, 2), 2), "reflexive"),
        (fx.pair_groupoid(2), "magma"),
        (fx.pair_groupoid(2), "strict"),
        (mc.search_reversors(fx.pair_groupoid(2), 0, "minimal")[0], "reversors"),
        (mc.identity_stretching(fx.pair_groupoid(2)), "stretching"),
    ]
    for obj, kind in objs:
        text = serialize(obj, kind)
        assert text == json_dumps(obj, kind)
        again = serialize(parse(text), kind)
        assert text == again
        assert json.loads(text)["kind"] == kind


def test_parse_rejects_bad_json():
    with pytest.raises(mc.ParseError) as exc:
        parse("{not json")
    assert exc.value.line == 1
    with pytest.raises(mc.ParseError, match="document is not an object"):
        parse("[]")


def test_parse_rejects_missing_fields():
    with pytest.raises(mc.ParseError):
        parse('{"format_version": 1}')
    with pytest.raises(mc.ParseError):
        parse('{"format_version": 1, "kind": "nope"}')
    with pytest.raises(mc.ParseError):
        parse('{"format_version": 99, "kind": "multiple-set"}')


def test_parse_rejects_malformed_body(tmp_path, capsys):
    doc = {
        "format_version": 1,
        "kind": "multiple-set",
        "universe_bound": 1,
        "dim_bound": 1,
        "cells": [["oops", ["x"]]],
        "faces": [],
    }
    with pytest.raises(mc.ParseError):
        from_document(doc)
    # a cells entry that is not a color and an id list
    doc["cells"] = [[[], ["x"], "extra"]]
    with pytest.raises(mc.ParseError, match="malformed multiple-set body"):
        from_document(doc)
    # in every table: a record that is not an array, one too short, one too long
    for name, field in [
        ("square.mset", "faces"), ("point-free-reflexive.mset", "refl"),
        ("path2-free-strict.mset", "comp"), ("parallel-edges-free-weak.mset", "pi"),
        ("parallel-edges-free-weak.mset", "brackets"),
        ("parallel-edges-free-weak.mset", "stage_of"),
        ("pair-groupoid-reversors.mset", "chains"),
    ]:
        with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        record = json.loads(text)[field][0]
        for bad in (5, record[:-1], record + [record[-1]]):
            doc = json.loads(text)
            doc[field][0] = bad
            with pytest.raises(mc.ParseError):
                from_document(doc)
        # the one record an empty array: it used to raise IndexError
        doc[field] = [[]]
        with pytest.raises(mc.ParseError):
            from_document(doc)
    # the last case, a chain one item too long, through the CLI
    p = tmp_path / "long-record.mset"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    assert "malformed reversor chains" in capsys.readouterr().err


def test_parsed_structures_validate_like_originals():
    text = serialize(fx.square())
    assert mc.validate_multiple_set(parse(text)).ok
    bad = fx.square()
    bad.src[((1, 2), 2)] = {"A": "e1"}
    report = mc.validate_multiple_set(parse(serialize(bad)))
    assert not report.ok


def test_missing_face_reports_the_same_after_a_round_trip():
    ms = mc.load(os.path.join(FIXTURE_DIR, "square.mset"))
    del ms.src[((1, 2), 1)]["A"]
    text = serialize(ms)
    # the writer renders the missing face as null
    assert [[1, 2], 1, "A", None, "f1"] in json.loads(text)["faces"]
    back = parse(text)
    assert mc.validate_multiple_set(back) == mc.validate_multiple_set(ms)
    assert mc.validate_multiple_set(back).render() == "SHAPE color=[1, 2] cells=A src undefined for entry 1"
    assert serialize(back) == text


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 999))
def test_random_multiple_sets_roundtrip(d, sizes, seed):
    ms = mc.random_multiple_set(d, d, sizes=sizes, seed=seed)
    text = serialize(ms)
    assert serialize(parse(text)) == text


def _point_doc(**body):
    doc = {
        "format_version": 1,
        "kind": "multiple-set",
        "universe_bound": 1,
        "dim_bound": 1,
        "cells": [[[], ["p"]]],
        "faces": [],
    }
    doc.update(body)
    return doc


def test_parse_rejects_repeated_cell_id():
    with pytest.raises(mc.ParseError, match="repeated"):
        from_document(_point_doc(cells=[[[], ["p", "p"]]]))


def test_parse_rejects_color_listed_twice():
    with pytest.raises(mc.ParseError, match="twice"):
        from_document(_point_doc(cells=[[[], ["p"]], [[], ["q"]]]))


def test_parse_rejects_color_outside_bounds():
    edge = [[1], ["e"]]
    faces = [[[1], 1, "e", "p", "p"]]
    assert from_document(_point_doc(cells=[[[], ["p"]], edge], faces=faces)).has_cell((1,), "e")
    with pytest.raises(mc.ParseError, match="outside"):
        from_document(_point_doc(universe_bound=0, cells=[[[], ["p"]], edge], faces=faces))
    with pytest.raises(mc.ParseError, match="outside"):
        from_document(_point_doc(dim_bound=0, cells=[[[], ["p"]], edge], faces=faces))
    with pytest.raises(mc.ParseError, match="outside"):
        from_document(_point_doc(universe_bound=2, cells=[[[], ["p"]], [[3], ["e"]]]))


def test_parse_rejects_malformed_color():
    for color in ([2, 1], [0]):
        with pytest.raises(mc.ParseError, match="bad color"):
            from_document(_point_doc(universe_bound=2, cells=[[[], ["p"]], [color, ["e"]]]))
    # a faces record whose color is a number
    with pytest.raises(mc.ParseError, match="bad color 1: must be an array"):
        from_document(_point_doc(cells=[[[], ["p"]], [[1], ["e"]]], faces=[[1, 1, "e", "p", "p"]]))


# the key of each table's first record, as the document writes it
REPEATED_KEYS = {
    "faces": '[[1], 1, "e0"]',
    "refl": '[[], 1, "p"]',
    "comp": '[[1], 1, "o0>o0", "o0>o0"]',
    "pi": '[[], "v0"]',
    "brackets": '[[], 1, "v0", "v0"]',
    "stage_of": '[[], "v0"]',
}


@pytest.mark.parametrize("name, table", [
    ("square.mset", "faces"),
    ("point-free-reflexive.mset", "refl"),
    ("pair-groupoid.mset", "comp"),
    ("parallel-edges-free-weak.mset", "pi"),
    ("parallel-edges-free-weak.mset", "brackets"),
    ("parallel-edges-free-weak.mset", "stage_of"),
])
def test_parse_rejects_repeated_record(name, table):
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    first = doc[table][0]
    value = first[-1] + 1 if isinstance(first[-1], int) else first[-1] + "'"
    # a contradictory record ahead of the true one would otherwise be overwritten
    doc[table].insert(0, first[:-1] + [value])
    with pytest.raises(mc.ParseError, match=f"repeated {table} record"):
        from_document(doc)
    doc[table][0] = first
    with pytest.raises(mc.ParseError, match=f"repeated {table} record") as info:
        from_document(doc)
    assert str(info.value) == f"repeated {table} record for {REPEATED_KEYS[table]}"


def _fixture_doc(name):
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, body, record, message", [
    # a face in a direction its color lacks, or of a cell its color lacks,
    # used to be dropped: validate printed ok, and a write lost the record
    ("pair-groupoid.mset", (), [[1], 2, "o0>o1", "o0", "o1"],
     "faces record at color [1] has direction 2, which is not an entry of the color"),
    ("pair-groupoid.mset", (), [[1], 1, "ghost", "o0", "o1"],
     "faces record names 'ghost', which is not a cell at color [1]"),
    ("pair-groupoid.mset", (), [[2], 2, "o0>o1", "o0", "o1"],
     "faces record names 'o0>o1', which is not a cell at color [2]"),
    ("parallel-edges-free-weak.mset", ("cat",), [[1], 2, "a", "x", "y"],
     "faces record at color [1] has direction 2, which is not an entry of the color"),
    ("parallel-edges-free-weak.mset", ("magma",), [[1], 1, "ghost", None, None],
     "faces record names 'ghost', which is not a cell at color [1]"),
])
def test_parse_rejects_a_face_the_model_cannot_hold(name, body, record, message):
    doc = _fixture_doc(name)
    (doc[body[0]] if body else doc)["faces"].append(record)
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == message


def test_parse_rejects_a_cell_mapped_twice_in_a_chain():
    doc = _fixture_doc("pair-groupoid-reversors.mset")
    level = doc["chains"][0][2][0]
    assert ["o0>o1", "o1>o0"] in level
    # dict() kept the last pair: the contradictory one ahead of it was lost
    level.insert(0, ["o0>o1", "o0>o1"])
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == "a chain map sends one cell twice"
    # and so is a pair written twice
    level[0] = ["o0>o1", "o1>o0"]
    with pytest.raises(mc.ParseError, match="twice"):
        from_document(doc)


@pytest.mark.parametrize("name, path, value, message", [
    # a multiple-set document validated ok and lost its refl table on a write
    ("point-free-reflexive.mset", ("kind",), "multiple-set",
     "unknown field 'refl' in a multiple-set document"),
    # a misspelt brackets field read as a stretching without brackets
    ("parallel-edges-free-weak.mset", ("brackts",), [],
     "unknown field 'brackts' in a stretching document"),
    ("parallel-edges-free-weak.mset", ("magma", "pi"), [], "unknown field 'pi' in the magma body"),
    ("parallel-edges-free-weak.mset", ("cat", "kind"), "strict",
     "unknown field 'kind' in the cat body"),
    ("pair-groupoid-reversors.mset", ("comp",), [], "unknown field 'comp' in a reversors document"),
    ("pair-groupoid.mset", ("stage_of",), [], "unknown field 'stage_of' in a strict document"),
    ("square.mset", ("chains",), [], "unknown field 'chains' in a multiple-set document"),
])
def test_parse_rejects_a_field_the_kind_does_not_read(name, path, value, message):
    doc = _fixture_doc(name)
    *outer, last = path
    container = doc
    for key in outer:
        container = container[key]
    container[last] = value
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("body", ["magma", "cat"])
def test_parse_rejects_a_body_that_is_not_an_object(body):
    doc = _fixture_doc("parallel-edges-free-weak.mset")
    doc[body] = [doc[body]]
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == f"the {body} body must be an object"


@pytest.mark.parametrize("name, path, value, field", [
    # a cell-id list written as a string used to parse as its characters,
    # and one written as an object as its keys
    ("square.mset", ("cells", 0, 1), "pq", "cell ids at color []"),
    ("square.mset", ("cells", 1, 1), {"p": 1, "q": 2}, "cell ids at color [1]"),
    # an empty object or string used to parse as an empty table
    ("square.mset", ("cells",), {}, "cells"),
    ("square.mset", ("faces",), {}, "faces"),
    ("point-free-reflexive.mset", ("refl",), "", "refl"),
    ("pair-groupoid.mset", ("comp",), {}, "comp"),
    ("parallel-edges-free-weak.mset", ("magma", "faces"), "", "faces"),
    ("parallel-edges-free-weak.mset", ("pi",), {}, "pi"),
    ("parallel-edges-free-weak.mset", ("brackets",), "", "brackets"),
    ("parallel-edges-free-weak.mset", ("stage_of",), {}, "stage_of"),
    ("pair-groupoid-reversors.mset", ("chains",), {}, "chains"),
    ("pair-groupoid-reversors.mset", ("chains", 0, 1), "", "chain entries"),
    ("pair-groupoid-reversors.mset", ("chains", 0, 2), {}, "chain maps"),
    # a map pair written as a string used to map its first character to its second
    ("pair-groupoid-reversors.mset", ("chains", 0, 2, 0, 0), "pq", "chain map pair"),
])
def test_parse_rejects_non_array_containers(name, path, value, field):
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    *outer, last = path
    container = doc
    for key in outer:
        container = container[key]
    container[last] = value
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == f"{field} must be an array"


@pytest.mark.parametrize("build", [
    lambda: mc.MultipleSet(0, 0),
    lambda: fx.point(),
    lambda: mc.free_reflexive(fx.point(2, 2), 2),
    lambda: mc.quotient_to_category(mc.free_strict(fx.square(), 2, 8)),
    lambda: mc.free_weak(fx.path2(), stages=2).stretching,
    lambda: mc.free_weak(fx.parallel_edges(), stages=2).stretching,
    lambda: mc.free_weak(fx.point(1, 1), m=0, stages=2).stretching,
    lambda: mc.free_weak(fx.point(1, 1), m=0, stages=2).stretching.cat_reversors,
    # long runs whose names recur across faces, comp, pi and stage_of
    lambda: mc.free_weak(fx.path2(), stages=3).stretching,
    lambda: mc.free_weak(fx.square(), stages=2).stretching,
    lambda: mc.free_weak(fx.parallel_edges(), stages=3).stretching,
    # 3,102 face records: a table longer than a thousand records
    lambda: mc.free_weak(fx.square(), stages=3).stretching,
], ids=["empty", "point", "free-reflexive", "free-strict", "free-weak-path2",
        "free-weak-parallel-edges", "free-weak-point-m0", "reversors-of-free-weak",
        "free-weak-path2-stages3", "free-weak-square-stages2", "free-weak-parallel-edges-stages3",
        "free-weak-square-stages3"])
def test_writer_matches_json_dumps_on_built_structures(build):
    obj = build()
    assert serialize(obj) == json_dumps(obj)


def _equal_scalars():
    """Hand-built structures whose tables hold 1, True, 1.0, None and "1":
    True == 1 == 1.0 hash alike, so a memo keyed by value alone would render
    one of them as another.  Each faces table holds 1,100 records; only the
    plain one, whose scalars are only str, int and None, can be written."""
    values = [1, True, 1.0, None, "1"]
    cells = [f"e{i}" for i in range(1100)]
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["p"]
    ms.cells[(1,)] = cells
    # one column holds every value, and the next column holds them shifted
    for tab, shift in ((ms.src, 0), (ms.tgt, 2)):
        tab[((1,), 1)] = {x: values[(i + shift) % len(values)] for i, x in enumerate(cells)}
    refl = mc.ReflexiveStructure(base=ms, refl={((), 1): {"p": 1}})
    # across tables: refl holds 1, comp holds True and 1.0
    comp = {((1,), 1): {("e0", "e1"): True, ("e1", "e0"): 1.0}}
    m = mc.MagmaStructure(base=ms, refl=refl, comp=comp)
    # only 1, "1" and None: equal only to themselves, so the memo takes them
    plain = mc.MultipleSet(1, 1)
    plain.cells[()] = ["p"]
    plain.cells[(1,)] = cells
    plain.src[((1,), 1)] = {x: [1, "1", None][i % 3] for i, x in enumerate(cells)}
    plain.tgt[((1,), 1)] = {x: ["1", "p", 1][i % 3] for i, x in enumerate(cells)}
    # faces in direction 1 and composites in direction True, at one color:
    # each run's head, its color and direction, is cached by the direction's type
    directions = mc.MagmaStructure(base=plain, comp={((1,), True): {("e0", "e1"): "e2"}})
    # and composites at the color (True,), written after the faces at (1,)
    colors = mc.MagmaStructure(base=plain, comp={((True,), 1): {("e0", "e1"): "e2"}})
    return [ms, refl, m, plain, directions, colors]


@pytest.mark.parametrize("obj, written",
                         zip(_equal_scalars(), [False, False, False, True, False, False]),
                         ids=["faces", "refl", "magma", "plain", "directions", "colors"])
def test_writer_keeps_equal_scalars_of_different_types_apart(obj, written, tmp_path):
    """A bool or a float, which no document holds, is a TypeError, raised
    before dump opens its target."""
    if written:
        assert serialize(obj) == json_dumps(obj)
        return
    path = tmp_path / "point.mset"
    dump(fx.point(), str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError, match="table fields must be scalars, not (bool|float)"):
        dump(obj, str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_writer_matches_json_dumps_at_any_table_length(n):
    """A faces table of ``n`` records, some faces undefined: no path of the
    writer depends on a table's length."""
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = ["p", "q"]
    ms.cells[(1,)] = [f"e{i}" for i in range(n)]
    ms.src[((1,), 1)] = {x: "p" for x in ms.cells[(1,)]}
    ms.tgt[((1,), 1)] = {x: "q" for i, x in enumerate(ms.cells[(1,)]) if i % 3}
    assert len(to_document(ms)["faces"]) == n
    assert serialize(ms) == json_dumps(ms)


def test_writer_stays_within_its_memory():
    """No string per table record: each record's head, separators and memo
    texts go into one list, joined once the writer and the document are
    gone.  Measured this way with tracemalloc on CPython 3.11.7, the writer
    that made one string per record peaked at 43.36 MB and this one at
    27.60 MB; the bound leaves a margin over the latter."""
    e = mc.free_weak(fx.path2(), stages=4).stretching
    gc.collect()
    tracemalloc.start()
    try:
        text = serialize(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 18_941_076
    assert peak < 33_000_000


def test_failed_dump_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "square.mset"
    dump(fx.square(), str(path))
    before = path.read_text(encoding="utf-8")
    with pytest.raises(TypeError):
        dump(object(), str(path))
    assert path.read_text(encoding="utf-8") == before


def _tables_and_cells(obj) -> tuple[list, list]:
    """The tables of a structure, and the ``cells`` of each of its multiple sets."""
    if isinstance(obj, mc.MultipleSet):
        return [obj.src, obj.tgt], [obj.cells]
    if isinstance(obj, mc.Stretching):
        magma, cat = _tables_and_cells(obj.magma), _tables_and_cells(obj.cat)
        return magma[0] + cat[0] + [obj.pi, obj.brackets, obj.stage_of], magma[1] + cat[1]
    tables, cells = _tables_and_cells(obj.base)
    if isinstance(obj, mc.ReflexiveStructure):
        return tables + [obj.refl], cells
    if isinstance(obj, mc.ReversorStructure):
        return tables + [[ch.maps for ch in obj.chains]], cells
    return tables + [obj.comp, obj.refl.refl if obj.refl else {}], cells


def _strings(v):
    """Every string in ``v``, its dict keys included."""
    if isinstance(v, str):
        yield v
    elif isinstance(v, dict):
        for k, x in v.items():
            yield from _strings(k)
            yield from _strings(x)
    elif isinstance(v, (list, tuple)):
        for x in v:
            yield from _strings(x)


@pytest.mark.parametrize("path", [*fixture_paths(), None],
                         ids=lambda p: os.path.basename(p) if p else "staged-stretching")
def test_a_parsed_document_holds_one_object_per_name(path):
    """Every name in a parsed structure's tables is the object its ``cells`` lists."""
    if path is None:
        text = serialize(mc.free_weak(fx.single_edge(), stages=2).stretching)
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    tables, cells = _tables_and_cells(parse(text))
    listed = {}
    for ids in cells:
        for x in _strings(ids):
            assert listed.setdefault(x, x) is x
    assert all(x is listed[x] for x in _strings(tables))


def test_writer_output_is_pinned():
    """The sha-256 of the weak-build document, recorded from the writer that
    laid out tables a record at a time."""
    text = serialize(mc.free_weak(fx.path2(), stages=4).stretching)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "ed68bab170088fc6908d07d687d0f86ebbe695bc041933ebf5e79fad840a5db3")


def test_to_document_lists_every_table_as_tuples():
    doc = to_document(mc.free_weak(fx.square(), stages=2).stretching)
    tables = {"pi": doc["pi"], "brackets": doc["brackets"], "stage_of": doc["stage_of"]}
    for body in ("magma", "cat"):
        for table in ("faces", "refl", "comp"):
            tables[f"{body}.{table}"] = doc[body][table]
    for name, records in tables.items():
        assert type(records) is list and records, name
        assert {type(r) for r in records} == {tuple}, name
        assert {type(r[0]) for r in records} == {tuple}, name
    assert to_document(fx.point())["faces"] == []


def test_dump_writes_long_text_as_serialize_does(tmp_path):
    """A text of more than two 1 MiB slices, with non-ASCII names across
    each slice boundary."""
    ms = mc.MultipleSet(1, 1)
    ms.cells[()] = [f"\u00e9{i:05d}" + "\u2028\U0001f600" * 64 for i in range(16_000)]
    ms.cells[(1,)] = ["e"]
    ms.src[((1,), 1)] = {"e": ms.cells[()][0]}
    text = serialize(ms)
    assert len(text) > 2 << 20
    for boundary in (1 << 20, 2 << 20):
        assert not text[boundary - 1:boundary + 1].isascii()
    path = tmp_path / "long.mset"
    path.write_text("old", encoding="utf-8")
    dump(ms, str(path))
    assert path.read_bytes() == text.encode("utf-8")


def test_unencodable_dump_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "point.mset"
    dump(fx.point(), str(path))
    before = path.read_bytes()
    ms = fx.point()
    ms.cells[()] = ["\ud800"]  # a lone surrogate: no UTF-8 encoding
    with pytest.raises(UnicodeEncodeError):
        dump(ms, str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("key", ["ab", ("a",), ("a", "b", "c"), 1])
def test_a_comp_key_that_is_not_a_pair_is_a_type_error(key, tmp_path):
    """Written as it is, the key would make a record the parser rejects."""
    path = tmp_path / "square.mset"
    dump(fx.square(), str(path))
    before = path.read_bytes()
    m = mc.MagmaStructure(base=fx.square(), comp={((1,), 1): {key: "a"}})
    with pytest.raises(TypeError, match="comp keys must be pairs of cells"):
        dump(m, str(path))
    assert path.read_bytes() == before


@pytest.mark.parametrize("value, name", [(["x", "y"], "list"), (("x", "y"), "tuple")])
def test_a_table_value_that_is_not_a_scalar_is_a_type_error(value, name):
    """Encoded in one call, a container would split into several texts."""
    ms = fx.square()
    ms.src[((1,), 1)]["e0"] = value
    ms.tgt[((1,), 1)]["e0"] = None
    with pytest.raises(TypeError, match=f"table fields must be scalars, not {name}"):
        serialize(ms)


@pytest.mark.parametrize("direction, name", [((1,), "tuple"), (frozenset({1}), "frozenset")])
def test_a_direction_that_is_not_a_scalar_is_a_type_error(direction, name, tmp_path):
    path = tmp_path / "pair-groupoid.mset"
    dump(fx.pair_groupoid(2), str(path))
    before = path.read_bytes()
    m = fx.pair_groupoid(2)
    m.comp[((1,), direction)] = m.comp.pop(((1,), 1))
    with pytest.raises(TypeError, match=f"table fields must be scalars, not {name}"):
        dump(m, str(path))
    assert path.read_bytes() == before


def test_stage_of_in_any_order_writes_the_same_text():
    """The writer regroups stage_of by color a run at a time: a dict whose
    colors interleave writes what the dict in sorted order writes.  The
    json oracle reads the same document, so only the text shows this."""
    e = mc.free_weak(fx.square(), stages=2).stretching
    stage_of = e.stage_of
    e.stage_of = dict(sorted(stage_of.items()))
    text = serialize(e)
    # by cell name first: the colors interleave
    e.stage_of = dict(sorted(stage_of.items(), key=lambda item: (item[0][1], item[0][0])))
    colors = [c for c, _ in e.stage_of]
    assert sum(a != b for a, b in zip(colors, colors[1:])) > 2 * len(set(colors))
    assert serialize(e) == text


# cell names that need escaping, or that look like the layout's own syntax
NAMES = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "[", "]", ",", ":",
                                 " ", "x", "\u00e9", "\u2028", "\U0001f600"]), max_size=4)


@st.composite
def odd_named_magmas(draw):
    ms = mc.MultipleSet(2, 2)
    for c in [(), (1,), (2,), (1, 2)]:
        ms.cells[c] = draw(st.lists(NAMES, unique=True, max_size=3))
    faces = st.none() | NAMES
    for c, ids in ms.cells.items():
        for d in c:
            for tab in (ms.src, ms.tgt):
                # a face drawn as None is left out, and the writer renders it null
                tab[(c, d)] = {x: y for x in ids if (y := draw(faces)) is not None}
    refl = mc.ReflexiveStructure(base=ms)
    for x in ms.cells[()]:
        refl.refl.setdefault(((), 1), {})[x] = draw(NAMES)
    m = mc.MagmaStructure(base=ms, refl=refl if draw(st.booleans()) else None)
    for c in [(1,), (1, 2)]:
        for d in c:
            for a, b in draw(st.lists(st.tuples(NAMES, NAMES), max_size=2)):
                m.comp.setdefault((c, d), {})[(a, b)] = draw(NAMES)
    return m


@settings(max_examples=60, deadline=None)
@given(odd_named_magmas())
def test_writer_matches_json_dumps_on_odd_names(m):
    for obj in (m.base, m):
        text = serialize(obj)
        assert text == json_dumps(obj)
        assert serialize(parse(text)) == text


@pytest.mark.parametrize("name, path, value", [
    ("square.mset", ("faces", 0, 1), 1.5),
    ("square.mset", ("faces", 0, 1), True),
    ("square.mset", ("universe_bound",), 2.5),
    ("square.mset", ("universe_bound",), "2"),
    ("square.mset", ("dim_bound",), 2.0),
    ("square.mset", ("cells", 1, 0, 0), 1.7),
    # [true] hashes as the [1] read before it: the color memo must not pass it
    ("square.mset", ("faces", 0, 0, 0), True),
    ("point-free-reflexive.mset", ("refl", 0, 1), 1.0),
    ("pair-groupoid.mset", ("comp", 0, 1), "1"),
    ("pair-groupoid-reversors.mset", ("m",), -1),
    ("pair-groupoid-reversors.mset", ("m",), 0.0),
    ("pair-groupoid-reversors.mset", ("chains", 0, 1, 0), 1.0),
    ("parallel-edges-free-weak.mset", ("format_version",), True),
    ("parallel-edges-free-weak.mset", ("brackets", 0, 1), 1.5),
    ("parallel-edges-free-weak.mset", ("stage",), 1.5),
    ("parallel-edges-free-weak.mset", ("stage",), -2),
    ("parallel-edges-free-weak.mset", ("stage_of", 0, 2), 1.5),
    ("parallel-edges-free-weak.mset", ("stage_of", 0, 2), -1),
    ("parallel-edges-free-weak.mset", ("m",), "x"),
    ("parallel-edges-free-weak.mset", ("m",), -3),
    ("parallel-edges-free-weak.mset", ("m",), 1.5),
    ("parallel-edges-free-weak.mset", ("stage_log",), "abc"),
    ("parallel-edges-free-weak.mset", ("stage_log",), [1]),
    ("parallel-edges-free-weak.mset", ("stage_log", 0, "brackets"), 6.0),
    # cell ids used to be coerced with str(): [1, true] read as "1" and "True"
    ("square.mset", ("cells", 0, 1), [1, True]),
    ("square.mset", ("cells", 1, 1, 0), 2.5),
    ("square.mset", ("faces", 0, 2), 5),
    # a face value used to be kept as read, and 5 came out as a SHAPE report
    ("square.mset", ("faces", 0, 3), 5),
    ("square.mset", ("faces", 0, 4), ["v"]),
    ("point-free-reflexive.mset", ("refl", 0, 2), 1),
    ("point-free-reflexive.mset", ("refl", 0, 3), False),
    ("pair-groupoid.mset", ("comp", 0, 2), 1),
    ("pair-groupoid.mset", ("comp", 0, 3), None),
    ("pair-groupoid.mset", ("comp", 0, 4), 1.0),
    ("pair-groupoid-reversors.mset", ("chains", 0, 2, 0, 0, 0), 1),
    ("pair-groupoid-reversors.mset", ("chains", 0, 2, 0, 0, 1), None),
    ("parallel-edges-free-weak.mset", ("magma", "faces", 0, 3), 3),
    ("parallel-edges-free-weak.mset", ("cat", "refl", 0, 3), 0),
    ("parallel-edges-free-weak.mset", ("pi", 0, 1), 0),
    ("parallel-edges-free-weak.mset", ("pi", 0, 2), True),
    ("parallel-edges-free-weak.mset", ("brackets", 0, 2), 0),
    ("parallel-edges-free-weak.mset", ("brackets", 0, 3), 0.5),
    ("parallel-edges-free-weak.mset", ("brackets", 0, 4), 7),
    ("parallel-edges-free-weak.mset", ("stage_of", 0, 1), 7),
    # [true] == [1] and true == 1 == 1.0: a record inside a run of one color
    # and direction must not pass as the run's first record
    ("square.mset", ("faces", 1, 0, 0), True),
    ("square.mset", ("faces", 1, 1), True),
    ("square.mset", ("faces", 1, 1), 1.0),
])
def test_parse_reads_integers_strictly(name, path, value):
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    *outer, last = path
    field = doc
    for key in outer:
        field = field[key]
    field[last] = value
    with pytest.raises(mc.ParseError):
        from_document(doc)


def test_stage_without_stage_of_is_a_parse_error():
    # the next write would drop the stage
    doc = to_document(mc.free_weak(fx.square(), stages=2).stretching)
    del doc["stage_of"]
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == "stretching document has 'stage' without 'stage_of'"


def test_stage_of_without_stage_is_a_parse_error():
    # read as stage 0, the staged scans would demand no composite
    doc = to_document(mc.free_weak(fx.square(), stages=2).stretching)
    del doc["magma"]["comp"][0]
    assert mc.validate_stretching(from_document(doc)).axioms() == {"POS2", "TOTAL"}
    del doc["stage"]
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == "stretching document has 'stage_of' without 'stage'"


def _identity_doc() -> dict:
    return _fixture_doc("pair-groupoid-identity.mset")


def test_an_identity_stretching_document_reads_as_one_structure():
    with open(os.path.join(FIXTURE_DIR, "pair-groupoid-identity.mset"), encoding="utf-8") as fh:
        text = fh.read()
    assert text == serialize(mc.identity_stretching(fx.pair_groupoid(2)))
    for e in (parse(text), from_document(to_document(mc.identity_stretching(fx.pair_groupoid(2))))):
        assert e.magma is e.cat
        assert type(e.cat) is mc.StrictCategory
        assert serialize(e) == text


def test_bodies_that_differ_in_one_record_stay_two_structures():
    doc = _identity_doc()
    record = doc["magma"]["comp"][0]
    record[-1] = next(r[-1] for r in doc["magma"]["comp"] if r[-1] != record[-1])
    e = from_document(doc)
    assert e.magma is not e.cat
    assert type(e.magma) is mc.MagmaStructure and type(e.cat) is mc.StrictCategory
    assert json.loads(serialize(e)) == doc
    assert not mc.validate_stretching(e).ok


def _break(doc, body, path, value):
    node = doc[body]
    *outer, last = path
    for key in outer:
        node = node[key]
    node[last] = value


@pytest.mark.parametrize("edits, message", [
    # the magma body is read first, whether or not the cat body equals it
    ([("magma", ("comp", 0), ["x"]), ("cat", ("comp", 0), ["x"])],
     "comp records must be arrays of 5 fields"),
    ([("magma", ("faces", 0, 1), 2), ("cat", None, None)],
     "faces record at color [1] has direction 2, which is not an entry of the color"),
    ([("cat", None, None)], "document missing required field 'cat'"),
    # true == 1 == 1.0: a cat body equal to the magma body may still break the rule
    ([("cat", ("dim_bound",), True)], "dim_bound must be an integer >= 0, got True"),
    ([("cat", ("cells", 1, 0), [True])], "bad color [True]: entries must be integers"),
    ([("cat", ("faces", 1, 0), [1.0])], "bad color [1.0]: entries must be integers"),
    ([("cat", ("comp", 2, 1), True)], "composition direction must be an integer, got True"),
    ([("cat", ("refl", 0, 1), 1.0)], "degeneracy direction must be an integer, got 1.0"),
])
def test_an_identity_stretching_document_fails_as_two_bodies_did(edits, message):
    doc = _identity_doc()
    for body, path, value in edits:
        if path is None:
            del doc[body]
        else:
            _break(doc, body, path, value)
    with pytest.raises(mc.ParseError) as info:
        from_document(doc)
    assert str(info.value) == message
