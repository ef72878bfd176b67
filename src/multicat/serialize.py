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

import functools
import json
from itertools import chain, groupby, repeat
from json.encoder import c_make_encoder, encode_basestring

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


def _ms_body(ms: MultipleSet) -> dict:
    cells, faces = [], []
    for c in sorted(ms.cells, key=_color_key):
        xs = sorted(ms.cells[c])
        if xs:
            cells.append([list(c), xs])
        for d in c:
            stab = ms.src.get((c, d), {})
            ttab = ms.tgt.get((c, d), {})
            faces += zip(repeat(c), repeat(d), xs, map(stab.get, xs), map(ttab.get, xs))
    return {
        "universe_bound": ms.universe_bound,
        "dim_bound": ms.dim_bound,
        "cells": cells,
        "faces": faces,
    }


def _cell_records(tabs: dict) -> list:
    """The records ``(c, x, tabs[c][x])`` of per-color tables, in canonical order."""
    out = []
    for c in sorted(tabs, key=_color_key):
        tab = tabs[c]
        xs = sorted(tab)
        out += zip(repeat(c), xs, map(tab.__getitem__, xs))
    return out


def _keyed_records(tabs: dict) -> list:
    """The records ``(c, e, *key, value)`` of tables keyed by (color, entry),
    in canonical order; a table's key is a cell or a pair of cells."""
    out = []
    for c, e in sorted(tabs, key=lambda k: (_color_key(k[0]), k[1])):
        for k, v in sorted(tabs[(c, e)].items()):
            out.append((c, e, *k, v) if type(k) is tuple else (c, e, k, v))
    return out


def _magma_body(m: MagmaStructure) -> dict:
    body = _ms_body(m.base)
    body["comp"] = _keyed_records(m.comp)
    if m.refl is not None:
        body["refl"] = _keyed_records(m.refl.refl)
    return body


def to_document(obj, kind: str | None = None) -> dict:
    """Build the plain-dict document for any supported structure.

    Each table record (``faces``, ``refl``, ``comp``, ``pi``, ``brackets``,
    ``stage_of``) is a tuple headed by its color tuple; json renders tuples
    as arrays.
    """
    if isinstance(obj, MultipleSet):
        kind = kind or "multiple-set"
        body = _ms_body(obj)
    elif isinstance(obj, ReflexiveStructure):
        kind = kind or "reflexive"
        body = _ms_body(obj.base)
        body["refl"] = _keyed_records(obj.refl)
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
            "pi": _cell_records(obj.pi),
            "brackets": _keyed_records(obj.brackets),
        }
        if obj.m is not None:
            body["m"] = obj.m
        if obj.stage_log is not None:
            body["stage_log"] = obj.stage_log
        if obj.stage_of is not None:
            body["stage"] = obj.stage
            stages: dict = {}
            for (c, x), s in obj.stage_of.items():
                stages.setdefault(c, {})[x] = s
            body["stage_of"] = _cell_records(stages)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    return {"format_version": FORMAT_VERSION, "kind": kind, **body}


# The types json renders as scalars.  Equal values of different types can
# render apart (True == 1 == 1.0 hash alike but render as true, 1 and 1.0),
# so a memo keyed by value takes only types whose equal values render alike.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_MEMO_TYPES = frozenset((str, int, type(None)))
# the encoders' fallback for a value json cannot render: it raises TypeError
_DEFAULT = json.JSONEncoder().default


@functools.cache
def _encoder(level: int):
    """json's C encoder for scalars, separating items at ``level``; it keeps
    no state between calls, so every writer shares one per level."""
    return c_make_encoder(
        None, _DEFAULT, encode_basestring, None, ": ", ",\n" + "  " * level, True, False, True,
    )


def _scalars(v, level: int) -> str:
    """A scalar, or a bracketed sequence of them separated at ``level``."""
    return "".join(_encoder(level)(v, 0))


def _each(values: list) -> list[str]:
    """The JSON text of each scalar of a non-empty list, from one encoder call."""
    # an encoded scalar holds no raw newline, so ",\n" separates them exactly
    return _scalars(values, 0)[1:-1].split(",\n")


class _Writer:
    """Renders ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``.

    json's C encoder takes no indent, so the writer lays out the containers
    itself and hands scalars to the C encoder, with one shared encoder per
    indent whose item separator carries that indent.

    A list whose first item is a tuple is a table: each item is a record, a
    color tuple and then at least one scalar.  Each run of records of one
    width is written in one pass, one string per record: the color's cached
    head, then each scalar's text from one memo per document, which encodes
    each distinct scalar once (a cell name recurs in faces, comp, pi and
    stage_of).  A run holding a scalar that is not a ``str``, an ``int`` or
    ``None`` bypasses the memo and is encoded in one encoder call.

    One string per record, not one per table or document: a long document's
    text joined from one list of all its pieces, or from a few long strings,
    leaves that memory in the allocator under the text (the benchmark's
    weak-build peak resident memory rose from 99 to 112 MB).
    """

    def __init__(self):
        self._heads: dict = {}
        self._memo: dict = {}

    def _table(self, records, level: int, out: list[str]):
        """Lay out a non-empty table at indent ``level``, one string per record."""
        inner = "\n" + "  " * (level + 1)
        mid = ",\n" + "  " * (level + 2)
        between = inner + "]," + inner
        heads = self._heads.setdefault(level, {})
        memo = self._memo
        first = len(out)
        for width, run in groupby(records, len):
            scalars = list(chain.from_iterable(run))
            colors = scalars[::width]
            del scalars[::width]
            for c in set(colors).difference(heads):
                color: list[str] = []
                self._write(c, level + 2, color)
                heads[c] = f"{between}[{mid[1:]}{''.join(color)}"
            if set(map(type, scalars)) <= _MEMO_TYPES:
                new = list(set(scalars).difference(memo))
                if new:
                    memo.update(zip(new, _each(new)))
                texts = map(memo.__getitem__, scalars)
            else:
                texts = iter(_each(scalars))
            # one shared iterator hands each record its width - 1 texts
            out += map(mid.join, zip(map(heads.__getitem__, colors), *[texts] * (width - 1)))
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
                    out.append(f"{sep}{encode_basestring(k)}: {_scalars(x, level + 1)}")
                else:
                    out.append(f"{sep}{encode_basestring(k)}: ")
                    self._write(x, level + 1, out)
                sep = "," + inner
            out.append(close + "}")
        elif not isinstance(v, (list, tuple)):
            out.append(_scalars(v, level))
        elif not v:
            out.append("[]")
        elif type(v[0]) is tuple:
            self._table(v, level, out)
        elif set(map(type, v)) <= _SCALAR_TYPES:
            out.append(f"[{inner}{_scalars(v, level + 1)[1:-1]}{close}]")
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
    _Writer()._write(to_document(obj, kind), 0, out)
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


def _not_strings(table: str) -> ParseError:
    """The error for a ``table`` record naming a cell by a non-string.  The
    readers test ids inline, in the loop over records: a second pass over
    each column (``set(map(type, ...))``) costs more on small documents."""
    return ParseError(f"cells named in {table} records must be strings")


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


def _reject_repeats(table: str, records, filled: int, width: int):
    """Reject two records that share a key: the color and the next
    ``width - 1`` fields.

    ``filled`` is the number of entries the records left in their table;
    keys are searched only when it falls short of the record count, that
    is, when a record overwrote an earlier one.
    """
    if filled == len(records):
        return
    seen = set()
    for rec in records:
        key = (tuple(rec[0]), *rec[1:width])
        if key in seen:
            break
        seen.add(key)
    # the readers have checked every field's type: name the key as the document writes it
    shown = json.dumps([list(key[0]), *key[1:]], ensure_ascii=False)
    raise ParseError(f"repeated {table} record for {shown}")


def _parse_ms(doc: dict, color) -> MultipleSet:
    try:
        ms = MultipleSet(
            _int(_require(doc, "universe_bound"), "universe_bound"),
            _int(_require(doc, "dim_bound"), "dim_bound"),
        )
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
            if len(set(ms.cells[c])) != len(ms.cells[c]):
                raise ParseError(f"cell id repeated at color {list(c)}")
        faces = _array(_require(doc, "faces"), "faces")
        for color_raw, d, x, s, t in faces:
            if (type(x) is not str or (type(s) is not str and s is not None)
                    or (type(t) is not str and t is not None)):
                raise _not_strings("faces")
            key = (color(color_raw), _int(d, "face direction"))
            ms.src.setdefault(key, {})[x] = s
            ms.tgt.setdefault(key, {})[x] = t
        _reject_repeats("faces", faces, sum(map(len, ms.src.values())), 3)
        # the writer renders an undefined face as null: read it back as undefined
        for tabs in (ms.src, ms.tgt):
            for key, tab in tabs.items():
                if None in tab.values():
                    tabs[key] = {x: y for x, y in tab.items() if y is not None}
        return ms
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed multiple-set body: {exc}") from exc


def _parse_refl(doc: dict, base: MultipleSet, color) -> ReflexiveStructure:
    refl = ReflexiveStructure(base=base)
    try:
        records = _array(doc.get("refl", []), "refl")
        for color_raw, l, x, dx in records:
            if not type(x) is type(dx) is str:
                raise _not_strings("refl")
            key = (color(color_raw), _int(l, "degeneracy direction"))
            refl.refl.setdefault(key, {})[x] = dx
        _reject_repeats("refl", records, sum(map(len, refl.refl.values())), 3)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed reflexive table: {exc}") from exc
    return refl


def _parse_magma(doc: dict, color) -> MagmaStructure:
    base = _parse_ms(doc, color)
    m = MagmaStructure(base=base)
    if "refl" in doc:
        m.refl = _parse_refl(doc, base, color)
    try:
        records = _array(doc.get("comp", []), "comp")
        for color_raw, d, a, b, r in records:
            if not type(a) is type(b) is type(r) is str:
                raise _not_strings("comp")
            key = (color(color_raw), _int(d, "composition direction"))
            m.comp.setdefault(key, {})[(a, b)] = r
        _reject_repeats("comp", records, sum(map(len, m.comp.values())), 4)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed composition table: {exc}") from exc
    return m


def _parse_strict(doc: dict, color) -> StrictCategory:
    m = _parse_magma(doc, color)
    return StrictCategory(base=m.base, comp=m.comp, refl=m.refl)


def from_document(doc: dict):
    """Rebuild the structure named by the document's ``kind``."""
    version = _require(doc, "format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    color = _colors()
    if kind == "multiple-set":
        return _parse_ms(doc, color)
    if kind == "reflexive":
        return _parse_refl(doc, _parse_ms(doc, color), color)
    if kind == "magma":
        return _parse_magma(doc, color)
    if kind == "strict":
        return _parse_strict(doc, color)
    if kind == "reversors":
        base = _parse_ms(doc, color)
        try:
            chains = []
            for color_raw, entries, levels in _array(doc.get("chains", []), "chains"):
                maps = [
                    dict(_array(pair, "chain map pair") for pair in _array(level, "chain map"))
                    for level in _array(levels, "chain maps")
                ]
                if any(not type(x) is type(y) is str for lv in maps for x, y in lv.items()):
                    raise _not_strings("chains")
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
    try:
        magma = _parse_magma(_require(doc, "magma"), color)
        cat = _parse_strict(_require(doc, "cat"), color)
        pi: dict = {}
        records = _array(_require(doc, "pi"), "pi")
        for color_raw, x, px in records:
            if not type(x) is type(px) is str:
                raise _not_strings("pi")
            pi.setdefault(color(color_raw), {})[x] = px
        _reject_repeats("pi", records, sum(map(len, pi.values())), 2)
        brackets: dict = {}
        records = _array(doc.get("brackets", []), "brackets")
        for color_raw, r, a, b, cell in records:
            if not type(a) is type(b) is type(cell) is str:
                raise _not_strings("brackets")
            key = (color(color_raw), _int(r, "bracket direction"))
            brackets.setdefault(key, {})[(a, b)] = cell
        _reject_repeats("brackets", records, sum(map(len, brackets.values())), 4)
        stage_of = None
        if "stage_of" in doc:
            stage_of = {}
            for color_raw, x, s in _array(doc["stage_of"], "stage_of"):
                if type(x) is not str:
                    raise _not_strings("stage_of")
                stage_of[(color(color_raw), x)] = _int(s, "stage_of value", 0)
            _reject_repeats("stage_of", doc["stage_of"], len(stage_of), 2)
        return Stretching(
            magma=magma, cat=cat, pi=pi, brackets=brackets,
            m=_int(doc["m"], "m", 0) if "m" in doc else None,
            stage_of=stage_of, stage=_int(doc.get("stage", 0), "stage", 0),
            stage_log=_stage_log(doc["stage_log"]) if "stage_log" in doc else None,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed stretching body: {exc}") from exc


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


def dump(obj, path: str, kind: str | None = None):
    # rendered first: a structure that cannot be written leaves the file as it was
    text = serialize(obj, kind)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
