"""Canonical document format shared by the CLI and the golden tests.

One self-describing JSON layout for every structure kind; the ``kind``
field dispatches.  Colors render as sorted integer arrays, tables as
sorted record lists, and the byte rendering is canonical: sorted keys,
two-space indent, trailing newline, the bytes of
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"``.
``serialize(parse(text))`` is the identity on canonical documents, whose
kind a parsed structure carries in its type (``StrictCategory`` for strict).
"""

from __future__ import annotations

import json
from itertools import chain, groupby, islice, repeat
from json.encoder import c_make_encoder, encode_basestring
from operator import itemgetter

from .colors import Color, make_color
from .core import MultipleSet
from .errors import NonPositiveEntry, NotStrictlyIncreasing, ParseError
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
    """A table as its runs, one ``(color, direction, count)`` per run of
    records that share a color and direction, then one sequence per key cell
    and per value field.  ``directed`` says whether the table has a direction
    field; the direction is ``None`` in a table without one."""

    def __init__(self, directed: bool = False, fields=()):
        super().__init__(fields)
        self.directed = directed


def _columns(table: str, runs) -> _Columns:
    """``table`` as columns, from its runs ``(color, direction, keys, value
    tables)`` in canonical order: the direction is ``None`` in a table
    without one, and each value table is read with ``get``."""
    direction, nkeys, nvalues, _ = _TABLES[table]
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
        if not (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {2}):
            raise TypeError(f"{table} keys must be pairs of cells")
        keys = zip(*keys)
    else:
        keys = [keys]
    return _Columns(bool(direction), [counted, *keys, *values])


def _keyed(table: str, tabs: dict) -> _Columns:
    """The columns of ``tabs``, ``{(color, direction) or color: {key: value}}``."""
    if _TABLES[table][0]:
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
        body = {
            "magma": _magma_body(obj.magma),
            "cat": _magma_body(obj.cat),
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
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
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


# The types json renders as scalars.  Equal values of different types can
# render apart (True == 1 == 1.0 hash alike but render as true, 1 and 1.0),
# so a memo keyed by value takes only types whose equal values render alike.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_MEMO_TYPES = frozenset((str, int, type(None)))
# json's C encoder for scalars and for flat sequences of them, whose items it
# separates by ",\n"; a value json cannot render raises TypeError.  It keeps
# no state between calls, so every writer shares it.
_ENCODER = c_make_encoder(None, json.JSONEncoder().default, encode_basestring, None, ": ", ",\n",
                          True, False, True)


def _scalars(v) -> str:
    """The JSON text of a scalar, or of a bracketed sequence of them."""
    return "".join(_ENCODER(v, 0))


def _each(values) -> list[str]:
    """The JSON text of each scalar of a sequence, from one encoder call: no
    text holds a raw newline, so ",\n" separates them exactly."""
    return _scalars(values)[1:-1].split(",\n")


class _Memo(dict):
    """The JSON text of each ``str``, ``int`` or ``None`` written so far, made
    on its first lookup.  A column is read in one pass, with no pass first
    to find its new values, and the texts of new names are made in column
    order, so the texts a table joins lie in memory in the order it reads
    them."""

    def __missing__(self, value) -> str:
        text = self[value] = encode_basestring(value) if type(value) is str else _scalars(value)
        return text


class _Writer:
    """Renders ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
    of a ``_document``.

    json's C encoder takes no indent, so the writer lays out the containers
    itself and takes the text of each scalar from the C encoder.

    A table arrives as ``_Columns`` and is written a column at a time, with
    no pass over its records by width: one text iterator per key and value
    column, zipped into one string per record behind its run's head, the
    text of the run's color and direction, rendered once per indent level
    and repeated over the run.  A column,
    or a plain list of scalars such as a color or its cell ids, whose values
    are all ``str``, ``int`` or ``None`` takes its texts from one memo per
    document, so each distinct scalar is encoded once (a cell name recurs in
    cells, faces, comp, pi and stage_of); any other is encoded in one
    encoder call.

    One string per record, not one per table or document: a long document's
    text joined from one list of all its pieces, or from a few long strings,
    leaves that memory in the allocator under the text (the benchmark's
    weak-build peak resident memory rose from 99 to 112 MB).
    """

    def __init__(self):
        self._heads: dict = {}
        self._memo = _Memo()

    def _texts(self, values):
        """An iterator over the JSON text of each scalar of a non-empty sequence."""
        types = set(map(type, values))
        if types <= _MEMO_TYPES:
            return map(self._memo.__getitem__, values)
        if not types <= _SCALAR_TYPES:  # a container would split into several texts
            bad = min(t.__name__ for t in types - _SCALAR_TYPES)
            raise TypeError(f"table fields must be scalars, not {bad}")
        return iter(_each(values))

    def _table(self, cols: _Columns, level: int, out: list[str]):
        """Lay out a non-empty table at indent ``level``, one string per record:
        each run's cached head, its color and direction, repeated over its records."""
        inner = "\n" + "  " * (level + 1)
        mid = ",\n" + "  " * (level + 2)
        between = inner + "]," + inner
        heads = self._heads.setdefault(level, {})
        runs, *fields = cols
        repeats = []
        for c, d, n in runs:
            # True == 1, but the two render apart: a head is keyed by the types
            # of its color's entries and of its direction too
            key = (cols.directed, c, tuple(map(type, c)), type(d), d)
            head = heads.get(key)
            if head is None:
                text: list[str] = []
                self._write(c, level + 2, text)
                if cols.directed:
                    if type(d) not in _SCALAR_TYPES:
                        raise TypeError(f"table fields must be scalars, not {type(d).__name__}")
                    text += mid, _scalars(d)
                head = heads[key] = f"{between}[{mid[1:]}{''.join(text)}"
            repeats.append(repeat(head, n))
        first = len(out)
        out += map(mid.join, zip(chain.from_iterable(repeats), *map(self._texts, fields)))
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
                x = v[k]
                if type(x) in _SCALAR_TYPES:
                    out.append(f"{sep}{encode_basestring(k)}: {_scalars(x)}")
                else:
                    out.append(f"{sep}{encode_basestring(k)}: ")
                    self._write(x, level + 1, out)
                sep = "," + inner
            out.append(close + "}")
        elif not isinstance(v, (list, tuple)):
            out.append(_scalars(v))
        elif not v:
            out.append("[]")
        elif type(v) is _Columns:
            self._table(v, level, out)
        elif set(map(type, v)) <= _SCALAR_TYPES:  # a color, a color's cell ids
            out.append(f"[{inner}{(',' + inner).join(self._texts(v))}{close}]")
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


def _colors():
    """A color reader for one document: each distinct entry list is checked
    and built once, and a malformed color is a parse error.

    Entry types are checked on every call: ``[true]`` and ``[1.0]`` hash
    as ``[1]`` does, so the memo alone would let them through.
    """
    memo: dict = {}

    def color(raw) -> Color:
        if type(raw) not in (list, tuple):  # to_document's documents hold tuples
            raise ParseError(f"bad color {raw!r}: must be an array")
        key = tuple(raw)
        for e in key:
            if type(e) is not int:
                raise ParseError(f"bad color {raw!r}: entries must be integers")
        c = memo.get(key)
        if c is None:
            try:
                c = memo[key] = make_color(key)
            except (NotStrictlyIncreasing, NonPositiveEntry) as exc:
                raise ParseError(f"bad color {raw!r}: {exc}") from exc
        return c

    return color


def _int(value, field: str, least: int | None = None) -> int:
    """An integer field: a JSON integer (not a bool, float or string), and
    at least ``least`` when that is given."""
    if type(value) is not int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ParseError(f"{field} must be an integer{bound}, got {value!r}")
    return value


def _stage_log(raw) -> list[dict]:
    """A stage log: a list of objects that map counter names to integers."""
    if not isinstance(raw, list) or not all(
        isinstance(entry, dict)
        and all(isinstance(k, str) and type(v) is int for k, v in entry.items())
        for entry in raw
    ):
        raise ParseError("stage_log must be a list of objects that map names to integers")
    return raw


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


# table -> (direction field, key cells, value fields, value types).  Every
# table follows one rule: a record is an array of the table's width, its
# color is well formed, its direction an integer, its cells strings (a face
# may be null), its stage an integer >= 0, and its key, the fields before its
# values, is no earlier record's.
_TABLES = {
    "faces": ("face direction", 1, 2, {str, type(None)}),
    "refl": ("degeneracy direction", 1, 1, {str}),
    "comp": ("composition direction", 2, 1, {str}),
    "pi": (None, 1, 1, {str}),
    "brackets": ("bracket direction", 2, 1, {str}),
    "stage_of": (None, 1, 1, {int}),
}


def _read_table(records, table: str, color) -> list[dict]:
    """One dict per value field of a keyed table, ``{(color, direction) or
    color: {cell or (cell, cell): value}}``.

    Each field is type-checked a column at a time; a column that fails its
    check is read again value by value, to name the first bad one.  The
    records are then stored in one pass per value field, which reads each
    color and direction once per run of records that share them.
    """
    direction, nkeys, nvalues, types = _TABLES[table]
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
            color(raw)
        for d in cols[1]:
            _int(d, direction)
    values = cols[first + nkeys:]
    if int in types and not (set(map(type, values[0])) <= {int}
                             and min(values[0], default=0) >= 0):
        for s in values[0]:
            _int(s, f"{table} value", 0)
    if not (set(map(type, chain(*cols[first:first + nkeys]))) <= {str}
            and set(map(type, chain(*values))) <= types):
        raise ParseError(f"cells named in {table} records must be strings")
    dirs = cols[1] if direction else repeat(None)
    cells = cols[first] if nkeys == 1 else list(zip(*cols[first:first + nkeys]))
    tabs = []
    for col in values:
        tab, raw, d = {}, None, None
        for r, e, cell, value in zip(cols[0], dirs, cells, col):
            if r != raw or e != d:
                raw, d = r, e
                dst = tab.setdefault((color(r), e) if direction else color(r), {})
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


def _parse_ms(doc: dict, color) -> MultipleSet:
    try:
        ms = MultipleSet(
            _int(_require(doc, "universe_bound"), "universe_bound"),
            _int(_require(doc, "dim_bound"), "dim_bound"),
        )
        ids_at: dict = {}
        for entry in _array(_require(doc, "cells"), "cells"):
            color_raw, ids = entry
            c = color(color_raw)
            if c in ms.cells:
                raise ParseError(f"color {list(c)} listed twice in cells")
            # by length and largest entry: listing colors_within would grow
            # as C(universe_bound, dim_bound)
            if len(c) > ms.dim_bound or (c and c[-1] > ms.universe_bound):
                raise ParseError(
                    f"color {list(c)} outside universe_bound {ms.universe_bound}"
                    f" and dim_bound {ms.dim_bound}"
                )
            ms.cells[c] = list(_array(ids, f"cell ids at color {list(c)}"))
            if not set(map(type, ms.cells[c])) <= {str}:
                raise ParseError(f"cell ids at color {list(c)} must be strings")
            ids_at[c] = set(ms.cells[c])
            if len(ids_at[c]) != len(ms.cells[c]):
                raise ParseError(f"cell id repeated at color {list(c)}")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed multiple-set body: {exc}") from exc
    ms.src, ms.tgt = _read_table(_require(doc, "faces"), "faces", color)
    # a record the model cannot hold would be lost on the next write
    for (c, d), tab in ms.src.items():
        if d not in c:
            raise ParseError(f"faces record at color {list(c)} has direction {d},"
                             " which is not an entry of the color")
        _only_cells(tab, ids_at.get(c, set()), "faces", c)
    # read a null face back as undefined
    for tabs in (ms.src, ms.tgt):
        for key, tab in tabs.items():
            if None in tab.values():
                tabs[key] = {x: y for x, y in tab.items() if y is not None}
    return ms


def _only_cells(tab: dict, ids: set, table: str, c):
    """Reject a record of ``table`` at color ``c`` keyed by a cell not in ``ids``."""
    if not tab.keys() <= ids:
        raise ParseError(f"{table} record names {min(tab.keys() - ids)!r},"
                         f" which is not a cell at color {list(c)}")


def _parse_magma(doc: dict, color, cls=MagmaStructure) -> MagmaStructure:
    base = _parse_ms(doc, color)
    refl = None
    if "refl" in doc:
        refl = ReflexiveStructure(base, _read_table(doc["refl"], "refl", color)[0])
    return cls(base=base, comp=_read_table(doc.get("comp", []), "comp", color)[0], refl=refl)


def from_document(doc: dict):
    """Rebuild the structure named by the document's ``kind``."""
    version = _require(doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    _fields(doc, _FIELDS[kind], f"a {kind} document")
    color = _colors()
    if kind == "multiple-set":
        return _parse_ms(doc, color)
    if kind == "reflexive":
        base = _parse_ms(doc, color)
        return ReflexiveStructure(base, _read_table(doc.get("refl", []), "refl", color)[0])
    if kind in ("magma", "strict"):
        return _parse_magma(doc, color, StrictCategory if kind == "strict" else MagmaStructure)
    if kind == "reversors":
        base = _parse_ms(doc, color)
        try:
            chains = []
            for color_raw, entries, levels in _array(doc.get("chains", []), "chains"):
                levels = [[_array(pair, "chain map pair") for pair in _array(level, "chain map")]
                          for level in _array(levels, "chain maps")]
                maps = [dict(level) for level in levels]
                if any(len(m) != len(level) for m, level in zip(maps, levels)):
                    raise ParseError("a chain map sends one cell twice")
                if any(not type(x) is type(y) is str for lv in maps for x, y in lv.items()):
                    raise ParseError("cells named in chains records must be strings")
                entries = [_int(e, "chain entry") for e in _array(entries, "chain entries")]
                chains.append(make_chain(color(color_raw), entries, maps))
            rev_kind = _require(doc, "reversor_kind")
            if type(rev_kind) is not str or rev_kind not in REVERSOR_KINDS:
                raise ParseError(f"unknown reversor_kind {rev_kind!r}")
            return ReversorStructure(
                base=base, m=_int(_require(doc, "m"), "m", 0), kind=rev_kind, chains=chains,
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed reversor chains: {exc}") from exc
    # stretching
    magma = _parse_magma(_fields(_require(doc, "magma"), _MAGMA_FIELDS, "the magma body"), color)
    cat = _parse_magma(_fields(_require(doc, "cat"), _MAGMA_FIELDS, "the cat body"), color,
                       StrictCategory)
    # pi and stage_of are keyed by M's cells, and a record of another would
    # be kept through a round trip unchecked
    members = {c: set(xs) for c, xs in magma.base.cells.items()}
    pi = _read_table(_require(doc, "pi"), "pi", color)[0]
    for c, tab in pi.items():
        _only_cells(tab, members.get(c, set()), "pi", c)
    brackets = _read_table(doc.get("brackets", []), "brackets", color)[0]
    if ("stage" in doc) != ("stage_of" in doc):
        given, missing = ("stage", "stage_of") if "stage" in doc else ("stage_of", "stage")
        raise ParseError(f"stretching document has {given!r} without {missing!r}")
    stage_of = None
    if "stage_of" in doc:
        stages = _read_table(doc["stage_of"], "stage_of", color)[0]
        for c, tab in stages.items():
            _only_cells(tab, members.get(c, set()), "stage_of", c)
        stage_of = {(c, x): s for c, tab in stages.items() for x, s in tab.items()}
    return Stretching(
        magma=magma, cat=cat, pi=pi, brackets=brackets,
        m=_int(doc["m"], "m", 0) if "m" in doc else None,
        stage_of=stage_of, stage=_int(doc.get("stage", 0), "stage", 0),
        stage_log=_stage_log(doc["stage_log"]) if "stage_log" in doc else None,
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
