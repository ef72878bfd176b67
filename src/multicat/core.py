"""Finite multiple sets: tabulated cell complexes with source/target maps.

Cells live in per-color sets; a cell at a color of dimension n has one
source and one target face for every entry of its color, landing one
dimension lower.  Validity means the three face-commutation squares hold
for every cell and every pair of distinct entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Callable, NamedTuple

from .colors import Color, add, colors_within, make_color, minus
from .errors import EntryAbsent, NonPositiveEntry, NotStrictlyIncreasing, UnknownCell
from .report import ValidationReport

CellId = str

SOURCE = "source"
TARGET = "target"

# a table's ``get`` default that equals nothing a table holds, so one
# comparison catches an undefined entry and a wrong one
_MISSING = object()


@dataclass
class MultipleSet:
    universe_bound: int
    dim_bound: int
    # color -> sorted list of cell ids, each a str listed once at its color
    # (validate_multiple_set reports any other list as SHAPE)
    cells: dict[Color, list[CellId]] = field(default_factory=dict)
    # (color, entry) -> cell -> face cell at minus(color, entry)
    src: dict[tuple[Color, int], dict[CellId, CellId]] = field(default_factory=dict)
    tgt: dict[tuple[Color, int], dict[CellId, CellId]] = field(default_factory=dict)

    def colors(self) -> list[Color]:
        return sorted((c for c in self.cells if self.cells[c]), key=lambda c: (len(c), c))

    def cells_at(self, c: Color) -> list[CellId]:
        return self.cells.get(c, [])

    def has_cell(self, c: Color, x: CellId) -> bool:
        return x in self.cells.get(c, ())

    def table(self, polarity: str, c: Color, d: int) -> dict[CellId, CellId]:
        tabs = self.src if polarity == SOURCE else self.tgt
        return tabs.get((c, d), {})


# -- the document rule ------------------------------------------------------
#
# What a model may hold is what a document can: the parser raises ParseError
# with each message below, and the validators report it as SHAPE, once per
# color.  Each check returns its message, or None when the value passes;
# ``check`` runs them before any scan, so every scan may assume the rule.


def int_problem(value, field: str, least: int | None = None) -> str | None:
    """An integer (not a bool, float or string), at least ``least`` when that is given."""
    if type(value) is int and (least is None or value >= least):
        return None
    bound = "" if least is None else f" >= {least}"
    return f"{field} must be an integer{bound}, got {value!r}"


def color_problem(raw) -> str | None:
    """A color: an array of integers >= 1 in strictly increasing order."""
    if type(raw) not in (list, tuple):
        return f"bad color {raw!r}: must be an array"
    last = 0
    for e in raw:
        if type(e) is not int or e <= last:
            break
        last = e
    else:
        return None
    if not set(map(type, raw)) <= {int}:
        return f"bad color {list(raw)}: entries must be integers"
    try:
        make_color(raw)
    except (NotStrictlyIncreasing, NonPositiveEntry) as exc:  # it names the entry
        return f"bad color {list(raw)}: {exc}"


def bounds_problem(c: Color, universe_bound: int, dim_bound: int) -> str | None:
    """A color within the bounds, judged by its length and largest entry: listing
    ``colors_within`` would grow as C(universe_bound, dim_bound)."""
    if len(c) > dim_bound or (c and c[-1] > universe_bound):
        return f"color {list(c)} outside universe_bound {universe_bound} and dim_bound {dim_bound}"
    return None


def cell_ids_problem(c: Color, ids) -> str | None:
    """The cell ids at color ``c``: strings."""
    if not set(map(type, ids)) <= {str}:
        return f"cell ids at color {list(c)} must be strings"
    return None


def repeat_problem(c: Color, ids, distinct: set) -> str | None:
    """Each cell id at color ``c`` listed once; ``distinct`` is the set of ``ids``."""
    return f"cell id repeated at color {list(c)}" if len(distinct) != len(ids) else None


def names_problem(table: str, names, allowed=frozenset((str,))) -> str | None:
    """The cells named in ``table``'s records: strings, or values of the
    ``allowed`` types where the table holds those."""
    if not set(map(type, names)) <= allowed:
        return f"cells named in {table} records must be strings"
    return None


# the direction field of each table that has one, as the document names it
DIRECTIONS = {"faces": "face direction", "refl": "degeneracy direction",
              "comp": "composition direction", "brackets": "bracket direction"}


# what a key of each table keyed by pairs holds after its color
_PAIRED = {**dict.fromkeys(DIRECTIONS, "direction"), "stage_of": "cell"}


def key_problem(table: str, key) -> tuple[Color, str] | None:
    """Where and how a key of ``table`` breaks the document rule: a key is a
    color, or a pair of a color and an integer direction where the table has
    a direction field (of a color and a cell in ``stage_of``).  A key that
    is not a pair, and a color that is not one, are reported at the empty
    color."""
    if table in _PAIRED and not (type(key) is tuple and len(key) == 2):
        return (), f"{table} key {key!r} is not a (color, {_PAIRED[table]}) pair"
    c = key[0] if table in _PAIRED else key
    if (problem := color_problem(c)) is not None:
        return (), problem
    if table in DIRECTIONS and (problem := int_problem(key[1], DIRECTIONS[table])) is not None:
        return c, problem
    return None


def entry_problem(c: Color, d: int) -> str | None:
    """A face record's direction, an entry of its color ``c``."""
    if d in c:
        return None
    return f"faces record at color {list(c)} has direction {d}, which is not an entry of the color"


def pairs_problem(table: str, keys) -> str | None:
    """The keys of the records of ``table`` (``comp``, ``brackets``): pairs
    of cells.  Whether each names a cell is checked where it is looked up."""
    for key in keys:
        if not (type(key) is tuple and len(key) == 2):
            return f"{table} keys must be pairs of cells"
    return None


# the tables whose records are keyed by a pair of cells
_PAIR_KEYED = ("comp", "brackets")


def broken_keys(report: ValidationReport, tables: dict[str, dict]) -> bool:
    """Report each key of ``tables`` that breaks the document rule
    (``key_problem``), each ``comp`` or ``brackets`` table whose records are
    not keyed by pairs of strings, and each ``refl`` table whose records are
    not keyed by strings, as SHAPE; whether there was one."""
    before = len(report.violations)
    for table, tabs in tables.items():
        for key in tabs:
            if (broken := key_problem(table, key)) is not None:
                report.add("SHAPE", broken[0], (), broken[1])
            elif table in _PAIR_KEYED and (
                    problem := pairs_problem(table, tabs[key])
                    or names_problem(table, chain.from_iterable(tabs[key]))):
                report.add("SHAPE", key[0], (), problem)
            elif table == "refl" and (problem := names_problem(table, tabs[key])):
                report.add("SHAPE", key[0], (), problem)
    return len(report.violations) > before


def record_problem(table: str, c: Color, keys, ids: set) -> str | None:
    """The records of ``table`` at color ``c``, keyed by ``keys``, each name
    a cell of ``ids``: the model has no place for another."""
    if not keys <= ids:
        return (f"{table} record names {min(keys - ids, key=str)!r},"
                f" which is not a cell at color {list(c)}")
    return None


def chain_map_problem(pairs) -> str | None:
    """A chain map, as its (cell, image) pairs, sends each cell once."""
    return "a chain map sends one cell twice" if len(dict(pairs)) != len(pairs) else None


def choice_problem(value, choices, field: str) -> str | None:
    """One of ``choices``."""
    return None if value in choices else f"unknown {field} {value!r}"


def stage_log_problem(raw) -> str | None:
    """A list of objects that map counter names to integers."""
    if isinstance(raw, list) and all(
        isinstance(entry, dict) and all(type(k) is str and type(v) is int for k, v in entry.items())
        for entry in raw
    ):
        return None
    return "stage_log must be a list of objects that map names to integers"


def _rule_problems(ms: MultipleSet) -> tuple[list[tuple[Color, str]], dict[Color, set[CellId]]]:
    """(color, message) for each part of ``ms`` that breaks the document
    rule, and the set of cell ids at each color.  Bounds, colors and cell
    ids come first; only when they keep it are the sets built, and then the
    repeated ids and the face tables' keys and records checked.  A bound, or
    a color or key that is not one, is reported at the empty color."""
    problems = [((), p) for p in (int_problem(ms.universe_bound, "universe_bound", 0),
                                  int_problem(ms.dim_bound, "dim_bound", 0)) if p]
    for c, ids in ms.cells.items():
        if (p := color_problem(c)) is not None:
            problems.append(((), p))
        elif (p := cell_ids_problem(c, ids)) is not None:
            problems.append((c, p))
    if problems:
        return problems, {}
    members = {c: set(xs) for c, xs in ms.cells.items()}
    problems = [(c, p) for c, xs in ms.cells.items()
                if (p := repeat_problem(c, xs, members[c])) is not None]
    for tabs in (ms.src, ms.tgt):
        for key, tab in tabs.items():
            if (broken := key_problem("faces", key)) is not None:
                problems.append(broken)
                continue
            c, d = key
            here = members.get(c, set())
            # a table with no more records than its color has cells names
            # only cells or misses one, which the shape check reports
            if (p := entry_problem(c, d) or (len(tab) > len(here) and
                                             record_problem("faces", c, tab.keys(), here))):
                problems.append((c, p))
    return problems, members


def face(ms: MultipleSet, c: Color, x: CellId, d: int, polarity: str) -> CellId:
    """Tabulated face of ``x`` (a cell at color ``c``) in direction ``d``."""
    if d not in c:
        raise EntryAbsent(c, d)
    if not ms.has_cell(c, x):
        raise UnknownCell(c, x)
    tab = ms.table(polarity, c, d)
    if x not in tab:
        raise UnknownCell(c, x)
    return tab[x]


def iterated_face(ms: MultipleSet, c: Color, x: CellId, ds) -> tuple[Color, CellId]:
    """Composite face along a list of (entry, polarity) steps.

    Order-independent on validated structures; returns the final color too,
    since the cell id alone does not locate a cell.
    """
    for d, pol in ds:
        x = face(ms, c, x, d, pol)
        c = minus(c, d)
    return c, x


def faces_total(ms: MultipleSet) -> bool:
    """Whether every cell has a source and a target in each entry of its color.

    Then a scan may read ``ms.src[(c, d)][x]`` for a cell ``x`` at ``c``
    directly, even where the face read is not itself a cell.
    """
    return all(
        x in tab
        for c in ms.colors() for d in c
        for tab in (ms.src.get((c, d), {}), ms.tgt.get((c, d), {}))
        for x in ms.cells[c]
    )


def _shape_check(ms: MultipleSet, report: ValidationReport,
                 members: dict[Color, set[CellId]]) -> bool:
    """Check that colors are in bounds and face tables exist, are total and land in cells."""
    ok = True
    for c in ms.colors():
        if (p := bounds_problem(c, ms.universe_bound, ms.dim_bound)) is not None:
            report.add("SHAPE", c, (), p)
            ok = False
            continue
        xs = ms.cells[c]
        for d in c:
            lower = minus(c, d)
            below = members.get(lower, ())
            for tabs, name in ((ms.src, "src"), (ms.tgt, "tgt")):
                tab = tabs.get((c, d))
                if tab is None:
                    report.add("SHAPE", c, (), f"missing {name} table for entry {d}")
                    ok = False
                    continue
                get = tab.get
                for x in [x for x in xs if get(x, _MISSING) not in below]:
                    ok = False
                    if x not in tab:
                        report.add("SHAPE", c, (x,), f"{name} undefined for entry {d}")
                    else:
                        report.add("SHAPE", c, (x,),
                                   f"{name}[{d}] lands outside cells{list(lower)}")
    return ok


def validate_multiple_set(ms: MultipleSet) -> ValidationReport:
    """The document rule, then the shape checks, then the SS, TT and ST
    face-commutation axioms; each stage runs only when the one before passed.

    The report's ``cells`` holds the set of cell ids at each color, which
    the shape checks and the scans of the layers above read; it is ``None``
    when the set breaks the document rule.  ``MultipleSet`` caches no such
    index: an in-place edit of ``cells`` would leave it stale.
    """
    report = ValidationReport()
    problems, members = _rule_problems(ms)
    for c, p in problems:
        report.add("SHAPE", c, (), p)
    if problems:
        return report.sorted()
    report.cells = members
    if not _shape_check(ms, report, members):
        return report.sorted()
    src, tgt = ms.src, ms.tgt
    for c in ms.colors():
        if len(c) < 2:
            continue
        xs = ms.cells[c]
        for j, k in combinations(c, 2):
            cj, ck = minus(c, j), minus(c, k)
            sj, tj, sk, tk = src[(c, j)], tgt[(c, j)], src[(c, k)], tgt[(c, k)]
            # faces of faces: (j then k) and (k then j)
            sjk, tjk = src[(cj, k)], tgt[(cj, k)]
            skj, tkj = src[(ck, j)], tgt[(ck, j)]
            # ST is not symmetric in (j, k): check both orders
            for x in [x for x in xs if sjk[sj[x]] != skj[sk[x]] or tjk[tj[x]] != tkj[tk[x]]
                      or tjk[sj[x]] != skj[tk[x]] or tkj[sk[x]] != sjk[tj[x]]]:
                if sjk[sj[x]] != skj[sk[x]]:
                    report.add("SS", c, (x,), f"entries=({j},{k})")
                if tjk[tj[x]] != tkj[tk[x]]:
                    report.add("TT", c, (x,), f"entries=({j},{k})")
                if tjk[sj[x]] != skj[tk[x]]:
                    report.add("ST", c, (x,), f"entries=(s{j},t{k})")
                if tkj[sk[x]] != sjk[tj[x]]:
                    report.add("ST", c, (x,), f"entries=(s{k},t{j})")
    return report.sorted()


# -- the layer table --------------------------------------------------------


class Layer(NamedTuple):
    """One axiom family; a kind is the tuple of the rows it stacks, which
    read a structure's ``base``, ``comp`` and ``refl`` as a magma's.
    ``scan(s, report, faces_ok)`` adds its violations (``faces_ok``: every
    cell of the base has its faces), only on a valid base where ``faces``.
    ``tables(s)`` are its tables for the key pass, and ``rule(s, report)``
    checks the rest of its part of the document rule."""
    scan: Callable
    faces: bool
    tables: Callable = lambda s: {}
    rule: Callable = lambda s, report: None


def check(s, rows) -> ValidationReport:
    """``s`` validated by ``rows``: its base once, one key pass over their
    tables, each rule, then, unless a part breaks the rule, each scan once."""
    report = validate_multiple_set(s.base)
    base_ok, before = report.ok, len(report.violations)
    tables = {k: v for row in rows for k, v in row.tables(s).items()}
    if report.cells is not None and not broken_keys(report, tables):
        for row in rows:
            row.rule(s, report)
        if len(report.violations) == before:
            faces_ok = base_ok or faces_total(s.base)
            for row in rows:
                if base_ok or not row.faces:
                    row.scan(s, report, faces_ok)
    return report.sorted()


@dataclass
class MsMorphism:
    source: MultipleSet
    target: MultipleSet
    maps: dict[Color, dict[CellId, CellId]]


def identity_morphism(ms: MultipleSet) -> MsMorphism:
    return MsMorphism(ms, ms, {c: {x: x for x in ms.cells_at(c)} for c in ms.colors()})


def validate_morphism(f: MsMorphism) -> ValidationReport:
    """Totality plus the face-compatibility squares."""
    report = ValidationReport()
    for c in f.source.colors():
        fmap = f.maps.get(c)
        if fmap is None:
            report.add("MOR-TOTAL", c, (), "no component at this color")
            continue
        get, images = fmap.get, set(f.target.cells_at(c))
        xs = f.source.cells_at(c)
        outside = [x for x in xs if get(x, _MISSING) not in images]
        for x in outside:
            if x not in fmap:
                report.add("MOR-TOTAL", c, (x,), "unmapped cell")
            else:
                report.add("MOR-TOTAL", c, (x,), f"image {fmap[x]!r} not a cell")
        if outside:
            xs = [x for x in xs if get(x, _MISSING) in images]
        for d in c:
            lower = f.maps.get(minus(c, d), {}).get
            for pol, axiom in ((SOURCE, "MOR-S"), (TARGET, "MOR-T")):
                # neither multiple set is validated: a face may be missing
                x_face = f.source.table(pol, c, d).get
                fx_face = f.target.table(pol, c, d).get
                for x in [x for x in xs
                          if (y := fx_face(fmap[x])) is None or lower(x_face(x)) != y]:
                    if fx_face(fmap[x]) is None or x_face(x) is None:
                        side = "source" if x_face(x) is None else "target"
                        report.add("SHAPE", c, (x,), f"{pol}[{d}] undefined in the {side}")
                    else:
                        report.add(axiom, c, (x,), f"entry={d} polarity={pol}")
    return report.sorted()


def compose_morphisms(g: MsMorphism, f: MsMorphism) -> MsMorphism:
    """g after f."""
    maps = {}
    for c, fmap in f.maps.items():
        gmap = g.maps.get(c, {})
        maps[c] = {x: gmap[y] for x, y in fmap.items()}
    return MsMorphism(f.source, g.target, maps)


def morphisms_equal(f: MsMorphism, g: MsMorphism) -> bool:
    cols = set(f.maps) | set(g.maps)
    return all(f.maps.get(c, {}) == g.maps.get(c, {}) for c in cols)


def terminal_multiple_set(universe_bound: int, dim_bound: int) -> MultipleSet:
    """One cell per color; every face is the unique lower cell."""
    ms = MultipleSet(universe_bound, dim_bound)
    for c in colors_within(universe_bound, dim_bound):
        ms.cells[c] = ["*"]
        for d in c:
            ms.src[(c, d)] = {"*": "*"}
            ms.tgt[(c, d)] = {"*": "*"}
    return ms


def _grid_cell_id(base: str, assignment: tuple) -> CellId:
    if not assignment:
        return base
    parts = [f"{'s' if pol == SOURCE else 't'}{d}" for d, pol in assignment]
    return base + "." + "".join(parts)


def random_multiple_set(
    universe_bound: int,
    dim_bound: int,
    sizes: int = 1,
    seed: int = 0,
    glue_prob: float = 0.3,
) -> MultipleSet:
    """A valid multiple set, deterministic in ``seed``.

    Each generator spawns its own grid of faces indexed by which entries have
    been collapsed to a polarity; commutation holds by construction.  Object
    cells (dimension 0) carry no faces, so gluing them pairwise afterwards
    preserves validity while varying the shape with the seed.
    """
    rng = random.Random(seed)
    ms = MultipleSet(universe_bound, dim_bound)
    cells: dict[Color, set[CellId]] = {c: set() for c in colors_within(universe_bound, dim_bound)}
    src: dict[tuple[Color, int], dict[CellId, CellId]] = {}
    tgt: dict[tuple[Color, int], dict[CellId, CellId]] = {}

    for c in colors_within(universe_bound, dim_bound):
        for idx in range(sizes):
            base = f"g{''.join(map(str, c))}n{idx}"
            # all partial polarity assignments, as sorted tuples of (entry, pol)
            stack = [((), c)]
            seen = set()
            while stack:
                assignment, col = stack.pop()
                if assignment in seen:
                    continue
                seen.add(assignment)
                cid = _grid_cell_id(base, assignment)
                cells[col].add(cid)
                for d in col:
                    for pol, tabs in ((SOURCE, src), (TARGET, tgt)):
                        nxt = tuple(sorted(assignment + ((d, pol),)))
                        tabs.setdefault((col, d), {})[cid] = _grid_cell_id(base, nxt)
                        stack.append((nxt, minus(col, d)))

    # glue some vertices: map later vertices onto earlier ones
    verts = sorted(cells.get((), set()))
    rename = {}
    for i, v in enumerate(verts):
        if i > 0 and rng.random() < glue_prob:
            rename[v] = verts[rng.randrange(i)]
    if rename:
        cells[()] = {v for v in cells[()] if v not in rename}
        for key, tab in list(src.items()) + list(tgt.items()):
            if len(key[0]) == 1:
                for x, y in tab.items():
                    while y in rename:
                        y = rename[y]
                    tab[x] = y

    ms.cells = {c: sorted(xs) for c, xs in cells.items() if xs}
    ms.src = src
    ms.tgt = tgt
    return ms
