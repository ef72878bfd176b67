"""Canonical document format shared by the CLI and the golden tests.

One self-describing JSON layout for every structure kind; the ``kind``
field dispatches.  Colors render as sorted integer arrays, tables as
sorted record lists, and the byte rendering is canonical: sorted keys,
two-space indent, trailing newline.  ``serialize(parse(text))`` is the
identity on canonical documents.
"""

from __future__ import annotations

import json

from .colors import Color, make_color
from .core import MultipleSet
from .errors import NonPositiveEntry, NotStrictlyIncreasing, ParseError
from .magma import MagmaStructure
from .reflexive import ReflexiveStructure
from .reversors import ReversorStructure, make_chain
from .stretching import Stretching

FORMAT_VERSION = 1

KINDS = ("multiple-set", "reflexive", "magma", "strict", "reversors", "stretching")


def _color_key(c: Color):
    return (len(c), c)


def _ms_body(ms: MultipleSet) -> dict:
    body = {
        "universe_bound": ms.universe_bound,
        "dim_bound": ms.dim_bound,
        "cells": [
            [list(c), sorted(ms.cells[c])]
            for c in sorted(ms.cells, key=_color_key)
            if ms.cells[c]
        ],
        "faces": [],
    }
    for c in sorted(ms.cells, key=_color_key):
        for d in c:
            stab = ms.src.get((c, d), {})
            ttab = ms.tgt.get((c, d), {})
            for x in sorted(ms.cells[c]):
                body["faces"].append([list(c), d, x, stab.get(x), ttab.get(x)])
    return body


def _refl_records(refl: ReflexiveStructure) -> list:
    out = []
    for (c, l) in sorted(refl.refl, key=lambda k: (_color_key(k[0]), k[1])):
        for x, dx in sorted(refl.refl[(c, l)].items()):
            out.append([list(c), l, x, dx])
    return out


def _comp_records(m: MagmaStructure) -> list:
    out = []
    for (c, d) in sorted(m.comp, key=lambda k: (_color_key(k[0]), k[1])):
        for (a, b), r in sorted(m.comp[(c, d)].items()):
            out.append([list(c), d, a, b, r])
    return out


def _magma_body(m: MagmaStructure) -> dict:
    body = _ms_body(m.base)
    body["comp"] = _comp_records(m)
    if m.refl is not None:
        body["refl"] = _refl_records(m.refl)
    return body


def to_document(obj, kind: str | None = None) -> dict:
    """Build the plain-dict document for any supported structure."""
    if isinstance(obj, MultipleSet):
        kind = kind or "multiple-set"
        body = _ms_body(obj)
    elif isinstance(obj, ReflexiveStructure):
        kind = kind or "reflexive"
        body = _ms_body(obj.base)
        body["refl"] = _refl_records(obj)
    elif isinstance(obj, MagmaStructure):
        kind = kind or "magma"
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
            "pi": [
                [list(c), x, obj.pi[c][x]]
                for c in sorted(obj.pi, key=_color_key)
                for x in sorted(obj.pi[c])
            ],
            "brackets": [
                [list(c), r, a, b, cell]
                for (c, r) in sorted(obj.brackets, key=lambda k: (_color_key(k[0]), k[1]))
                for (a, b), cell in sorted(obj.brackets[(c, r)].items())
            ],
        }
        if obj.m is not None:
            body["m"] = obj.m
        if obj.stage_log is not None:
            body["stage_log"] = obj.stage_log
        if obj.stage_of is not None:
            body["stage"] = obj.stage
            body["stage_of"] = [
                [list(c), x, s]
                for (c, x), s in sorted(
                    obj.stage_of.items(), key=lambda kv: (_color_key(kv[0][0]), kv[0][1])
                )
            ]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind not in KINDS:
        raise ValueError(f"unknown document kind {kind!r}")
    return {"format_version": FORMAT_VERSION, "kind": kind, **body}


def serialize(obj, kind: str | None = None) -> str:
    doc = to_document(obj, kind)
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _color(raw) -> Color:
    """A color read from a document; a malformed one is a parse error."""
    try:
        return make_color(raw)
    except (NotStrictlyIncreasing, NonPositiveEntry) as exc:
        raise ParseError(f"bad color {raw!r}: {exc}") from exc


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
        key = (_color(rec[0]), *map(str, rec[1:width]))
        if key in seen:
            break
        seen.add(key)
    raise ParseError(f"repeated {table} record for {[list(key[0]), *key[1:]]}")


def _parse_ms(doc: dict) -> MultipleSet:
    try:
        ms = MultipleSet(int(_require(doc, "universe_bound")), int(_require(doc, "dim_bound")))
        for entry in _require(doc, "cells"):
            color_raw, ids = entry
            c = _color(color_raw)
            if c in ms.cells:
                raise ParseError(f"color {list(c)} listed twice in cells")
            # by length and largest entry: listing colors_within would grow
            # as C(universe_bound, dim_bound)
            if len(c) > ms.dim_bound or (c and c[-1] > ms.universe_bound):
                raise ParseError(
                    f"color {list(c)} outside universe_bound {ms.universe_bound}"
                    f" and dim_bound {ms.dim_bound}"
                )
            ms.cells[c] = [str(x) for x in ids]
            if len(set(ms.cells[c])) != len(ms.cells[c]):
                raise ParseError(f"cell id repeated at color {list(c)}")
        faces = _require(doc, "faces")
        for color_raw, d, x, s, t in faces:
            c = _color(color_raw)
            ms.src.setdefault((c, int(d)), {})[str(x)] = s
            ms.tgt.setdefault((c, int(d)), {})[str(x)] = t
        _reject_repeats("faces", faces, sum(map(len, ms.src.values())), 3)
        # the writer renders an undefined face as null: read it back as undefined
        for tabs in (ms.src, ms.tgt):
            for key, tab in tabs.items():
                if None in tab.values():
                    tabs[key] = {x: y for x, y in tab.items() if y is not None}
        return ms
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed multiple-set body: {exc}") from exc


def _parse_refl(doc: dict, base: MultipleSet) -> ReflexiveStructure:
    refl = ReflexiveStructure(base=base)
    try:
        records = doc.get("refl", [])
        for color_raw, l, x, dx in records:
            refl.refl.setdefault((_color(color_raw), int(l)), {})[str(x)] = str(dx)
        _reject_repeats("refl", records, sum(map(len, refl.refl.values())), 3)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed reflexive table: {exc}") from exc
    return refl


def _parse_magma(doc: dict) -> MagmaStructure:
    base = _parse_ms(doc)
    m = MagmaStructure(base=base)
    if "refl" in doc:
        m.refl = _parse_refl(doc, base)
    try:
        records = doc.get("comp", [])
        for color_raw, d, a, b, r in records:
            m.comp.setdefault((_color(color_raw), int(d)), {})[(str(a), str(b))] = str(r)
        _reject_repeats("comp", records, sum(map(len, m.comp.values())), 4)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed composition table: {exc}") from exc
    return m


def from_document(doc: dict):
    """Rebuild the structure named by the document's ``kind``."""
    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    if kind == "multiple-set":
        return _parse_ms(doc)
    if kind == "reflexive":
        return _parse_refl(doc, _parse_ms(doc))
    if kind in ("magma", "strict"):
        return _parse_magma(doc)
    if kind == "reversors":
        base = _parse_ms(doc)
        try:
            chains = [
                make_chain(
                    _color(color_raw),
                    [int(e) for e in entries],
                    [dict((str(x), str(y)) for x, y in level) for level in levels],
                )
                for color_raw, entries, levels in doc.get("chains", [])
            ]
            return ReversorStructure(
                base=base,
                m=int(_require(doc, "m")),
                kind=str(_require(doc, "reversor_kind")),
                chains=chains,
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed reversor chains: {exc}") from exc
    # stretching
    try:
        magma = _parse_magma(_require(doc, "magma"))
        cat = _parse_magma(_require(doc, "cat"))
        pi: dict = {}
        records = _require(doc, "pi")
        for color_raw, x, px in records:
            pi.setdefault(_color(color_raw), {})[str(x)] = str(px)
        _reject_repeats("pi", records, sum(map(len, pi.values())), 2)
        brackets: dict = {}
        records = doc.get("brackets", [])
        for color_raw, r, a, b, cell in records:
            brackets.setdefault((_color(color_raw), int(r)), {})[
                (str(a), str(b))
            ] = str(cell)
        _reject_repeats("brackets", records, sum(map(len, brackets.values())), 4)
        stage_of = None
        if "stage_of" in doc:
            stage_of = {
                (_color(color_raw), str(x)): int(s)
                for color_raw, x, s in doc["stage_of"]
            }
            _reject_repeats("stage_of", doc["stage_of"], len(stage_of), 2)
        return Stretching(
            magma=magma, cat=cat, pi=pi, brackets=brackets, m=doc.get("m"),
            stage_of=stage_of, stage=int(doc.get("stage", 0)),
            stage_log=doc.get("stage_log"),
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(obj, kind))
