"""Canonical document format shared by the CLI and the golden tests.

One self-describing JSON layout for every structure kind; the ``kind``
field dispatches.  Colors render as sorted integer arrays, tables as
sorted record lists, and the byte rendering is canonical: sorted keys,
two-space indent, trailing newline, the bytes of
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"``.
``serialize(parse(text))`` is the identity on canonical documents, whose
kind a parsed structure carries in its type (``StrictCategory`` for strict).
What a document, and so a model, may hold is the document rule of
``multicat.core``: the parser raises ``ParseError`` with the message of the
part a document breaks, and the validators report a model that breaks it.

The writer.  ``_document`` hands each table (``faces``, ``refl``, ``comp``,
``pi``, ``brackets``, ``stage_of``) over as ``_Columns``: its runs, one
``(color, direction, count)`` per run of records that share a color and
direction, then one list per key and value field; ``to_document`` expands
them into record tuples.  The writer lays out the containers itself and
appends every piece of the text to one list, which ``serialize`` joins once:
for each record, its run's head (the text of the run's color and direction,
made once per indent level), then a separator and the text of each field.
The heads, the separators and the texts all exist already, so the writer
makes no string per record.  It takes only the document scalars ``str``,
``int`` and ``None``, and reads every scalar's text from one memo per
document that encodes a value on its first lookup, so each name is encoded
once, in column order.  A bool or a float equals an int and would read its
text, so each column, and each run's color and direction, is type-checked
once before the memo is read: any other type, and a ``comp`` or
``brackets`` key that is not a pair of cells, is a TypeError.  The text is
joined once the writer and the document are gone, so that neither is held
under it.  ``dump`` renders the text and checks that it encodes before it
opens its file, so a failed write, a lone surrogate in a name included,
leaves the file as it was, and then writes the text in 1 MiB slices, so that
no encoded copy of the whole text is made.

The reader.  ``_read_table`` reads every keyed table under one rule (see
``_TABLES``).  It checks each field a column at a time, and reads a column
that fails its check again value by value, to name the first bad value; then
it stores the records in one pass per value field, reading a color and
direction once per run of records that share them.  One memo per document
(``_Memos``) checks and builds each distinct color once, and keeps one
``str`` per distinct name: every name column, ``cells`` first, then the keys
and values of each table, goes through it, so the model holds one object per
name, and a lookup of a cell in a table finds its key by identity.  A
``faces``, ``pi`` or ``stage_of`` record must name a cell listed at its
color, and a face record's direction must be an entry of its color: the
model has no place for any other.  A stretching whose ``magma`` and ``cat``
bodies are equal, with the same types (``_typed``), is read as one
structure, a ``StrictCategory`` that is both M and C, as
``identity_stretching`` builds it, so editing M edits C; the writer builds
that body once too.  The ``magma`` body is read first either way, so its
errors come before those of ``cat``.
"""

from __future__ import annotations

import json
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter

from .colors import Color
from .core import (
    DIRECTIONS,
    MultipleSet,
    bounds_problem,
    cell_ids_problem,
    choice_problem,
    color_problem,
    chain_map_problem,
    entry_problem,
    int_problem,
    names_problem,
    pairs_problem,
    record_problem,
    repeat_problem,
    stage_log_problem,
)
from .errors import ParseError
from .magma import MagmaStructure
from .reflexive import ReflexiveStructure
from .reversors import KINDS as REVERSOR_KINDS, ReversorStructure, make_chain
from .strictcat import StrictCategory
from .stretching import Stretching

FORMAT_VERSION = 1

KINDS = ("multiple-set", "reflexive", "magma", "strict", "reversors", "stretching")


def _color_key(c: Color):
    return (len(c), c)


class _Columns(list):
    """A table as its runs, then one sequence per key cell and per value
    field.  ``directed`` says whether the table has a direction field; the
    direction is ``None`` in a table without one."""

    def __init__(self, directed: bool = False, fields=()):
        super().__init__(fields)
        self.directed = directed


def _columns(table: str, runs) -> _Columns:
    """``table`` as columns, from its runs ``(color, direction, keys, value
    tables)`` in canonical order: the direction is ``None`` in a table
    without one, and each value table is read with ``get``."""
    nkeys, nvalues, _ = _TABLES[table]
    counted, keys = [], []
    values = [[] for _ in range(nvalues)]
    for c, d, ks, tabs in runs:
        if ks:
            counted.append((c, d, len(ks)))
        keys += ks
        for col, tab in zip(values, tabs):
            col += map(tab.get, ks)
    if not keys:
        return _Columns()
    if nkeys == 2:
        # any other key would be written as a record of another width
        if (problem := pairs_problem(table, keys)) is not None:
            raise TypeError(problem)
        keys = zip(*keys)
    else:
        keys = [keys]
    return _Columns(table in DIRECTIONS, [counted, *keys, *values])


def _keyed(table: str, tabs: dict) -> _Columns:
    """The columns of ``tabs``, ``{(color, direction) or color: {key: value}}``."""
    if table in DIRECTIONS:
        heads = sorted(tabs, key=lambda k: (_color_key(k[0]), k[1]))
        return _columns(table, [(c, d, sorted(tabs[c, d]), (tabs[c, d],)) for c, d in heads])
    return _columns(table, [(c, None, sorted(tabs[c]), (tabs[c],))
                            for c in sorted(tabs, key=_color_key)])


def _ms_body(ms: MultipleSet) -> dict:
    order = [(c, sorted(ms.cells[c])) for c in sorted(ms.cells, key=_color_key)]
    return {
        "universe_bound": ms.universe_bound,
        "dim_bound": ms.dim_bound,
        "cells": [[list(c), xs] for c, xs in order if xs],
        "faces": _columns("faces", [(c, d, xs, (ms.src.get((c, d), {}), ms.tgt.get((c, d), {})))
                                    for c, xs in order for d in c]),
    }


def _magma_body(m: MagmaStructure) -> dict:
    body = _ms_body(m.base)
    body["comp"] = _keyed("comp", m.comp)
    if m.refl is not None:
        body["refl"] = _keyed("refl", m.refl.refl)
    return body


def _document(obj, kind: str | None) -> dict:
    """The document of ``obj`` with each table as ``_Columns``."""
    if isinstance(obj, MultipleSet):
        kind = kind or "multiple-set"
        body = _ms_body(obj)
    elif isinstance(obj, ReflexiveStructure):
        kind = kind or "reflexive"
        body = _ms_body(obj.base)
        body["refl"] = _keyed("refl", obj.refl)
    elif isinstance(obj, MagmaStructure):
        kind = kind or ("strict" if isinstance(obj, StrictCategory) else "magma")
        body = _magma_body(obj)
    elif isinstance(obj, ReversorStructure):
        kind = kind or "reversors"
        body = _ms_body(obj.base)
        body["m"] = obj.m
        body["reversor_kind"] = obj.kind
        body["chains"] = [
            [
                list(ch.color),
                list(ch.entries),
                [[list(pair) for pair in level] for level in ch.maps],
            ]
            for ch in sorted(obj.chains, key=lambda ch: (ch.color, ch.entries, ch.maps))
        ]
    elif isinstance(obj, Stretching):
        kind = kind or "stretching"
        cat = _magma_body(obj.cat)
        body = {
            "magma": cat if obj.magma is obj.cat else _magma_body(obj.magma),
            "cat": cat,
            "pi": _keyed("pi", obj.pi),
            "brackets": _keyed("brackets", obj.brackets),
        }
        if obj.m is not None:
            body["m"] = obj.m
        if obj.stage_log is not None:
            body["stage_log"] = obj.stage_log
        if obj.stage_of is not None:
            body["stage"] = obj.stage
            # regrouped by color a run of equal colors at a time: the cells
            # and stages of a run of n keys are the next n of each iterator
            stages: dict = {}
            cells = map(itemgetter(1), obj.stage_of)
            values = iter(obj.stage_of.values())
            for c, run in groupby(map(itemgetter(0), obj.stage_of)):
                n = len(list(run))
                stages.setdefault(c, {}).update(zip(islice(cells, n), islice(values, n)))
            body["stage_of"] = _keyed("stage_of", stages)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if (problem := choice_problem(kind, KINDS, "document kind")) is not None:
        raise ValueError(problem)
    return {"format_version": FORMAT_VERSION, "kind": kind, **body}


def _rows(cols: _Columns) -> list[tuple]:
    """The records of a table, its runs expanded: one tuple per record."""
    if not cols:
        return []
    runs, *fields = cols
    colors = chain.from_iterable(repeat(c, n) for c, _, n in runs)
    if cols.directed:
        dirs = chain.from_iterable(repeat(d, n) for _, d, n in runs)
        return list(zip(colors, dirs, *fields))
    return list(zip(colors, *fields))


def _records(doc: dict) -> dict:
    return {k: _rows(v) if type(v) is _Columns else _records(v) if type(v) is dict else v
            for k, v in doc.items()}


def to_document(obj, kind: str | None = None) -> dict:
    """Build the plain-dict document for any supported structure.

    Each table record (``faces``, ``refl``, ``comp``, ``pi``, ``brackets``,
    ``stage_of``) is a tuple headed by its color tuple; json renders tuples
    as arrays.
    """
    return _records(_document(obj, kind))


# The scalars a document holds.  A bool or a float equals an int (True == 1
# == 1.0) and hashes alike, but renders apart: the writer refuses any other
# type before it reads the memo, which is keyed by value.
_SCALARS = frozenset((str, int, type(None)))


def _checked(values):
    """``values``, once each is checked to be a document scalar."""
    types = set(map(type, values))
    if not types <= _SCALARS:
        bad = min(t.__name__ for t in types - _SCALARS)
        raise TypeError(f"table fields must be scalars, not {bad}")
    return values


class _Memo(dict):
    """The JSON text of each scalar written so far, made on its first lookup
    as json makes it: ``encode_basestring`` for a ``str``, ``int.__repr__``
    for an ``int`` and ``null`` for ``None``."""

    def __missing__(self, value) -> str:
        text = self[value] = (encode_basestring(value) if type(value) is str
                              else "null" if value is None else int.__repr__(value))
        return text


class _Writer:
    """Renders ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
    of a ``_document`` whose scalars are ``str``, ``int`` and ``None``, each
    distinct one encoded once (a cell name recurs in cells, faces, comp, pi
    and stage_of)."""

    def __init__(self):
        self._heads: dict = {}
        self._memo = _Memo()

    def _texts(self, values):
        """An iterator over the JSON text of each scalar of a sequence."""
        return map(self._memo.__getitem__, _checked(values))

    def _table(self, cols: _Columns, level: int, out: list[str]):
        """Lay out a non-empty table at indent ``level``: per record, its run's
        cached head (its color and direction), then a separator and the memo
        text of each field, all of them strings that exist already."""
        inner = "\n" + "  " * (level + 1)
        mid = ",\n" + "  " * (level + 2)
        between = inner + "]," + inner
        heads = self._heads.setdefault(level, {})
        runs, *fields = cols
        repeats = []
        for c, d, n in runs:
            # checked before the lookup, so that a head is keyed by values alone
            _checked((*c, d))
            key = (cols.directed, c, d)
            head = heads.get(key)
            if head is None:
                text: list[str] = []
                self._write(c, level + 2, text)
                if cols.directed:
                    text += mid, self._memo[d]
                head = heads[key] = f"{between}[{mid[1:]}{''.join(text)}"
            repeats.append(repeat(head, n))
        # each record is its head, then a separator and a text per field: the
        # separators are laid down first, the heads and texts into the gaps
        first, width = len(out), 1 + 2 * len(fields)
        out += repeat(mid, len(fields[0]) * width)
        out[first::width] = chain.from_iterable(repeats)
        for i, col in enumerate(fields, 1):
            out[first + 2 * i::width] = self._texts(col)
        # the first record opens the table instead of closing the one before
        out[first] = "[" + inner + out[first][len(between):]
        out.append(inner + "]\n" + "  " * level + "]")

    def _write(self, v, level: int, out: list[str]):
        """Lay out ``v`` at indent ``level``, its first line unindented."""
        inner = "\n" + "  " * (level + 1)
        close = "\n" + "  " * level
        if isinstance(v, dict):
            if not v:
                out.append("{}")
                return
            sep = "{" + inner
            for k in sorted(v):
                out.append(f"{sep}{encode_basestring(k)}: ")
                self._write(v[k], level + 1, out)
                sep = "," + inner
            out.append(close + "}")
        elif not isinstance(v, (list, tuple)):
            out += self._texts((v,))
        elif not v:
            out.append("[]")
        elif type(v) is _Columns:
            self._table(v, level, out)
        elif set(map(type, v)) <= _SCALARS:  # a color, a color's cell ids: checked here
            first = len(out)
            out += repeat("," + inner, 2 * len(v))
            out[first + 1::2] = map(self._memo.__getitem__, v)
            out[first] = "[" + inner
            out.append(close + "]")
        else:
            sep = "[" + inner
            for x in v:
                out.append(sep)
                self._write(x, level + 1, out)
                sep = "," + inner
            out.append(close + "]")


def serialize(obj, kind: str | None = None) -> str:
    out: list[str] = []
    # the text is joined once the writer and the document are gone, so that
    # neither is held under it
    _Writer()._write(_document(obj, kind), 0, out)
    out.append("\n")
    return "".join(out)


def _refuse(problem: str | None):
    """Raise a part of the document rule (``multicat.core``) that a field breaks."""
    if problem is not None:
        raise ParseError(problem)


class _Memos:
    """The memos of one document.  ``color`` checks and builds each distinct
    entry list once, and a malformed color is a parse error.  ``names``
    keeps one ``str`` per distinct name, the first one read, so the model's
    tables hold the objects its ``cells`` lists, and a lookup of a cell in a
    table finds its key by identity, with its hash cached.

    A color is a list, or a tuple in to_document's documents.  The color memo
    is read only for integer entries: ``[true]`` and ``[1.0]`` hash as ``[1]``.
    """

    def __init__(self):
        self._colors: dict = {}
        self._names: dict = {}

    def color(self, raw) -> Color:
        key = tuple(raw) if type(raw) in (list, tuple) and set(map(type, raw)) <= {int} else None
        c = self._colors.get(key)
        if c is None:
            _refuse(color_problem(raw))
            c = self._colors[key] = key
        return c

    def names(self, column) -> list:
        """``column``, a sequence, each name replaced by the document's object
        for it.  The names must be type-checked first: a memo keyed by value
        would hand back ``1`` for ``true``."""
        return list(map(self._names.setdefault, column, column))


def _int(value, field: str, least: int | None = None) -> int:
    _refuse(int_problem(value, field, least))
    return value


def _array(value, field: str) -> list:
    """A field that must be a JSON array: iterating a string or an object
    would read its characters or its keys as entries."""
    if not isinstance(value, list):
        raise ParseError(f"{field} must be an array")
    return value


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"document missing required field {key!r}")
    return doc[key]


# table -> (key cells, value fields, value types); a table in DIRECTIONS has
# a direction field.  Every table follows one rule: a record is an array of
# the table's width, its color is well formed, its direction an integer, its
# cells strings (a face may be null), its stage an integer >= 0, and its key,
# the fields before its values, is no earlier record's.
_TABLES = {
    "faces": (1, 2, {str, type(None)}),
    "refl": (1, 1, {str}),
    "comp": (2, 1, {str}),
    "pi": (1, 1, {str}),
    "brackets": (2, 1, {str}),
    "stage_of": (1, 1, {int}),
}


def _read_table(records, table: str, memo: _Memos) -> list[dict]:
    """One dict per value field of a keyed table, ``{(color, direction) or
    color: {cell or (cell, cell): value}}``.

    Each field is type-checked a column at a time; a column that fails its
    check is read again value by value, to name the first bad one.  Each
    name column, keys and values alike, then goes through the document's
    name memo, and the records are stored in one pass per value field, which
    reads each color and direction once per run of records that share them.
    """
    direction = DIRECTIONS.get(table)
    nkeys, nvalues, types = _TABLES[table]
    first = 2 if direction else 1  # the field of the first key cell
    width = first + nkeys + nvalues
    records = _array(records, table)
    try:
        # strict: every record is as long as the first one
        cols = list(zip(*records, strict=True)) if records else [()] * width
    except (TypeError, ValueError):
        cols = ()
    if len(cols) != width:
        raise ParseError(f"{table} records must be arrays of {width} fields")
    try:
        # runs compare by equality, and true == 1 == 1.0: check types first
        ints = set(map(type, chain(chain.from_iterable(cols[0]), *cols[1:first])))
    except TypeError:  # a color that is not an array
        ints = {None}
    if not ints <= {int}:
        for raw in cols[0]:
            memo.color(raw)
        for d in cols[1]:
            _int(d, direction)
    values = cols[first + nkeys:]
    if int in types and not (set(map(type, values[0])) <= {int}
                             and min(values[0], default=0) >= 0):
        for s in values[0]:
            _int(s, f"{table} value", 0)
    _refuse(names_problem(table, chain(*cols[first:first + nkeys]))
            or names_problem(table, chain(*values), types))
    dirs = cols[1] if direction else repeat(None)
    keys = [memo.names(col) for col in cols[first:first + nkeys]]
    cells = keys[0] if nkeys == 1 else list(zip(*keys))
    if int not in types:
        values = map(memo.names, values)
    tabs = []
    for col in values:
        tab, raw, d = {}, None, None
        for r, e, cell, value in zip(cols[0], dirs, cells, col):
            if r != raw or e != d:
                raw, d = r, e
                dst = tab.setdefault((memo.color(r), e) if direction else memo.color(r), {})
            dst[cell] = value
        tabs.append(tab)
    if sum(map(len, tabs[0].values())) != len(records):
        _reject_repeats(table, records, first + nkeys)
    return tabs


def _reject_repeats(table: str, records, width: int):
    """Reject the first record whose key, its color and the next ``width -
    1`` fields, repeats an earlier record's; the reader calls it when a
    record overwrote another."""
    seen = set()
    for rec in records:
        key = (tuple(rec[0]), *rec[1:width])
        if key in seen:
            break
        seen.add(key)
    # the reader has checked every field's type: name the key as the document writes it
    shown = json.dumps([list(key[0]), *key[1:]], ensure_ascii=False)
    raise ParseError(f"repeated {table} record for {shown}")


# the fields each kind of document reads; any other field is a parse error
_MS_FIELDS = frozenset(("universe_bound", "dim_bound", "cells", "faces"))
_MAGMA_FIELDS = _MS_FIELDS | {"refl", "comp"}
_FIELDS = {kind: fields | {"format_version", "kind"} for kind, fields in (
    ("multiple-set", _MS_FIELDS), ("reflexive", _MS_FIELDS | {"refl"}),
    ("magma", _MAGMA_FIELDS), ("strict", _MAGMA_FIELDS),
    ("reversors", _MS_FIELDS | {"m", "reversor_kind", "chains"}),
    ("stretching", {"magma", "cat", "pi", "brackets", "m", "stage", "stage_of", "stage_log"}))}


def _fields(doc, fields, where: str) -> dict:
    """``doc`` as an object that holds no field outside ``fields``."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where} must be an object")
    if not fields.issuperset(doc):
        raise ParseError(f"unknown field {min(doc.keys() - fields)!r} in {where}")
    return doc


def _parse_ms(doc: dict, memo: _Memos) -> tuple[MultipleSet, dict]:
    """The multiple set of ``doc``, and the set of its cell ids at each color."""
    try:
        ms = MultipleSet(
            _int(_require(doc, "universe_bound"), "universe_bound", 0),
            _int(_require(doc, "dim_bound"), "dim_bound", 0),
        )
        ids_at: dict = {}
        for entry in _array(_require(doc, "cells"), "cells"):
            color_raw, ids = entry
            c = memo.color(color_raw)
            if c in ms.cells:
                raise ParseError(f"color {list(c)} listed twice in cells")
            _refuse(bounds_problem(c, ms.universe_bound, ms.dim_bound))
            ids = _array(ids, f"cell ids at color {list(c)}")
            _refuse(cell_ids_problem(c, ids))
            ms.cells[c] = memo.names(ids)
            ids_at[c] = set(ms.cells[c])
            _refuse(repeat_problem(c, ms.cells[c], ids_at[c]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed multiple-set body: {exc}") from exc
    ms.src, ms.tgt = _read_table(_require(doc, "faces"), "faces", memo)
    # a record the model cannot hold would be lost on the next write
    for (c, d), tab in ms.src.items():
        _refuse(entry_problem(c, d))
        _refuse(record_problem("faces", c, tab.keys(), ids_at.get(c, set())))
    # read a null face back as undefined
    for tabs in (ms.src, ms.tgt):
        for key, tab in tabs.items():
            if None in tab.values():
                tabs[key] = {x: y for x, y in tab.items() if y is not None}
    return ms, ids_at


def _parse_magma(doc: dict, memo: _Memos, cls=MagmaStructure) -> tuple[MagmaStructure, dict]:
    """The magma of ``doc``, and the set of its base's cell ids at each color."""
    base, ids_at = _parse_ms(doc, memo)
    refl = None
    if "refl" in doc:
        refl = ReflexiveStructure(base, _read_table(doc["refl"], "refl", memo)[0])
    comp = _read_table(doc.get("comp", []), "comp", memo)[0]
    return cls(base=base, comp=comp, refl=refl), ids_at


def _typed(body) -> bool:
    """Whether each bound, color entry and direction of ``body``, a magma
    body equal to one that parsed, is an ``int``, as the parsed one's are:
    true == 1 == 1.0, and the parser refuses a bool or a float there.  Its
    other fields equal strings and nulls, which equal nothing else."""
    tables = [body.get(table, ()) for table in ("faces", "refl", "comp")]
    return set(map(type, chain(
        (body["universe_bound"], body["dim_bound"]),
        chain.from_iterable(map(itemgetter(0), body["cells"])),
        *(chain.from_iterable(map(itemgetter(0), records)) for records in tables),
        *(map(itemgetter(1), records) for records in tables)))) <= {int}


def from_document(doc: dict):
    """Rebuild the structure named by the document's ``kind``."""
    version = _require(doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    kind = _require(doc, "kind")
    _refuse(choice_problem(kind, KINDS, "document kind"))
    _fields(doc, _FIELDS[kind], f"a {kind} document")
    memo = _Memos()
    if kind == "multiple-set":
        return _parse_ms(doc, memo)[0]
    if kind == "reflexive":
        base = _parse_ms(doc, memo)[0]
        return ReflexiveStructure(base, _read_table(doc.get("refl", []), "refl", memo)[0])
    if kind in ("magma", "strict"):
        return _parse_magma(doc, memo, StrictCategory if kind == "strict" else MagmaStructure)[0]
    if kind == "reversors":
        base = _parse_ms(doc, memo)[0]
        try:
            chains = []
            for color_raw, entries, levels in _array(doc.get("chains", []), "chains"):
                levels = [[_array(pair, "chain map pair") for pair in _array(level, "chain map")]
                          for level in _array(levels, "chain maps")]
                for level in levels:
                    _refuse(chain_map_problem(level))
                maps = [dict(level) for level in levels]
                _refuse(names_problem("chains", chain.from_iterable(
                    chain.from_iterable(lv.items()) for lv in maps)))
                maps = [dict(zip(memo.names(lv), memo.names(lv.values()))) for lv in maps]
                entries = [_int(e, "chain entry") for e in _array(entries, "chain entries")]
                chains.append(make_chain(memo.color(color_raw), entries, maps))
            rev_kind = _require(doc, "reversor_kind")
            _refuse(choice_problem(rev_kind, REVERSOR_KINDS, "reversor_kind"))
            return ReversorStructure(
                base=base, m=_int(_require(doc, "m"), "m", 0), kind=rev_kind, chains=chains,
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed reversor chains: {exc}") from exc
    # stretching: equal bodies are one structure, as identity_stretching
    # builds it; M's body is read first either way, so its errors come first
    body = _fields(_require(doc, "magma"), _MAGMA_FIELDS, "the magma body")
    shared = body == doc.get("cat")
    magma, members = _parse_magma(body, memo, StrictCategory if shared else MagmaStructure)
    if shared and _typed(doc["cat"]):
        cat = magma
    else:
        cat = _parse_magma(_fields(_require(doc, "cat"), _MAGMA_FIELDS, "the cat body"), memo,
                           StrictCategory)[0]
    # pi and stage_of are keyed by M's cells, and a record of another would
    # be kept through a round trip unchecked
    pi = _read_table(_require(doc, "pi"), "pi", memo)[0]
    for c, tab in pi.items():
        _refuse(record_problem("pi", c, tab.keys(), members.get(c, set())))
    brackets = _read_table(doc.get("brackets", []), "brackets", memo)[0]
    if ("stage" in doc) != ("stage_of" in doc):
        given, missing = ("stage", "stage_of") if "stage" in doc else ("stage_of", "stage")
        raise ParseError(f"stretching document has {given!r} without {missing!r}")
    stage_of = None
    if "stage_of" in doc:
        stages = _read_table(doc["stage_of"], "stage_of", memo)[0]
        for c, tab in stages.items():
            _refuse(record_problem("stage_of", c, tab.keys(), members.get(c, set())))
        stage_of = {(c, x): s for c, tab in stages.items() for x, s in tab.items()}
    if "stage_log" in doc:
        _refuse(stage_log_problem(doc["stage_log"]))
    return Stretching(
        magma=magma, cat=cat, pi=pi, brackets=brackets,
        m=_int(doc["m"], "m", 0) if "m" in doc else None,
        stage_of=stage_of, stage=_int(doc.get("stage", 0), "stage", 0),
        stage_log=doc.get("stage_log"),
    )


def loads(text: str) -> dict:
    """The JSON object a document's text holds; anything else is a ParseError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError("document is not an object")
    return doc


def parse(text: str):
    return from_document(loads(text))


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


_SLICE = 1 << 20  # dump encodes and writes this many characters at a time


def dump(obj, path: str, kind: str | None = None):
    # rendered and checked to encode before the file is opened: a structure
    # that cannot be written leaves the file as it was
    text = serialize(obj, kind)
    starts = range(0, len(text), _SLICE)
    if not text.isascii():  # a lone surrogate raises UnicodeEncodeError
        for i in starts:
            text[i:i + _SLICE].encode("utf-8")
    with open(path, "w", encoding="utf-8") as fh:
        for i in starts:
            fh.write(text[i:i + _SLICE])
