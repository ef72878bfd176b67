"""Reversor chains: the inverse-like structures above a cutoff dimension m.

A chain at a k-color applies one map per chain entry, each acting one
dimension lower than the previous.  Non-terminal maps intertwine sources
and targets; the terminal map swaps them in its own direction.  Kinds:

* minimal — one single-map chain per (color, entry), for every dimension
  above m;
* maximal — one chain per (color, subcolor of maximal admissible length);
* general — at least one chain of some admissible length per (color, first
  entry).

At dimension m+1 every kind degenerates to single swap maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .colors import Color, colors_within, k_colors, minus
from .core import (
    SOURCE,
    TARGET,
    CellId,
    MsMorphism,
    MultipleSet,
    cell_sets,
    validate_multiple_set,
)
from .errors import UnknownCell
from .magma import MagmaStructure
from .report import ValidationReport
from .terms import Budget, as_budget

KINDS = ("minimal", "maximal", "general")
PHASE = "reversor search"


@dataclass(frozen=True)
class Chain:
    color: Color
    entries: tuple[int, ...]
    # maps[r] acts at color minus entries[:r], in direction entries[r]
    maps: tuple[tuple[tuple[CellId, CellId], ...], ...]

    def map_at(self, r: int) -> dict[CellId, CellId]:
        return dict(self.maps[r])


def make_chain(color: Color, entries, maps) -> Chain:
    frozen = tuple(tuple(sorted(m.items())) for m in maps)
    return Chain(tuple(color), tuple(entries), frozen)


@dataclass
class ReversorStructure:
    base: MultipleSet
    m: int
    kind: str
    chains: list[Chain] = field(default_factory=list)


def _q_max(k: int, m: int) -> int:
    return max(1, k - m - 1)


def required_slots(ms: MultipleSet, m: int, kind: str) -> list[tuple[Color, tuple]]:
    """Coverage obligations: (color, key) pairs a structure must satisfy.

    For minimal the key is the single entry; for maximal the full subcolor;
    for general the first entry (any admissible chain length witnesses it).
    """
    slots = []
    for c in colors_within(ms.universe_bound, ms.dim_bound):
        k = len(c)
        if k <= m or not ms.cells_at(c):
            continue
        if kind == "maximal":
            slots.extend((c, sub) for sub in sorted(k_colors(c, min(_q_max(k, m), k))))
        else:
            slots.extend((c, (e,)) for e in c)
    return slots


def _chain_fault(ch: Chain) -> str | None:
    """Why ``ch`` cannot be scanned: an entry that leaves its level's color,
    or fewer maps than entries; None when it can be."""
    level = ch.color
    for e in ch.entries:
        if e not in level:
            return f"entry {e} not in color {list(level)}"
        level = minus(level, e)
    if len(ch.maps) < len(ch.entries):
        return f"{len(ch.maps)} maps for entries {ch.entries}"
    return None


def _validate_chain(ms: MultipleSet, ch: Chain, report: ValidationReport,
                    members: dict[Color, set[CellId]]):
    """One chain's scans; the base must be valid, and ``members`` is its
    ``cell_sets``.  A chain with a ``_chain_fault`` is one COVER violation
    and is not scanned."""
    fault = _chain_fault(ch)
    if fault is not None:
        report.add("COVER", ch.color, (), fault)
        return
    q = len(ch.entries)
    levels = list(itertools.accumulate(ch.entries, minus, initial=ch.color))
    maps = [ch.map_at(r) for r in range(q)]
    for r, (level_color, e) in enumerate(zip(levels, ch.entries)):
        tab = maps[r]
        here = members.get(level_color, set())
        stab, ttab = ms.table(SOURCE, level_color, e), ms.table(TARGET, level_color, e)
        for x in ms.cells_at(level_color):
            if x not in tab or tab[x] not in here:
                report.add("COVER", level_color, (x,), f"chain map {r} not total")
                continue
            jx = tab[x]
            if r == q - 1:
                if stab[jx] != ttab[x]:
                    report.add("SWAP-END", level_color, (x,), f"entry={e} polarity={SOURCE}")
                if ttab[jx] != stab[x]:
                    report.add("SWAP-END", level_color, (x,), f"entry={e} polarity={TARGET}")
            else:
                nxt = maps[r + 1]
                for tabs, pol in ((stab, SOURCE), (ttab, TARGET)):
                    if tabs[jx] != nxt.get(tabs[x]):
                        report.add("SERIAL", level_color, (x,), f"entry={e} polarity={pol}")


def validate_reversors(r: ReversorStructure) -> ValidationReport:
    report = ValidationReport()
    base_report = validate_multiple_set(r.base)
    if not base_report.ok:
        return base_report
    # a general slot is keyed by its first entry and takes any admissible length
    general = r.kind == "general"
    covered = {
        (ch.color, ch.entries[:1] if general else ch.entries)
        for ch in r.chains
        if not general or 1 <= len(ch.entries) <= _q_max(len(ch.color), r.m)
    }
    for c, key in required_slots(r.base, r.m, r.kind):
        if (c, key) not in covered:
            report.add("COVER", c, (), f"no chain for {key}")
    members = cell_sets(r.base)
    for ch in r.chains:
        _validate_chain(r.base, ch, report, members)
    return report.sorted()


def validate_reversor_morphism(
    f: MsMorphism, r: ReversorStructure, rp: ReversorStructure
) -> ValidationReport:
    """f intertwines every corresponding chain map: f(j(x)) == j'(f(x)).

    A pair of chains either of which has a ``_chain_fault`` is one COVER
    violation and is not scanned.
    """
    report = ValidationReport()
    # where two chains share (color, entries), the first one counts
    targets = {(ch.color, ch.entries): ch for ch in reversed(rp.chains)}
    for ch in r.chains:
        other = targets.get((ch.color, ch.entries))
        if other is None:
            report.add("COVER", ch.color, (), f"target lacks chain {ch.entries}")
            continue
        fault = _chain_fault(ch) or _chain_fault(other)
        if fault is not None:
            report.add("COVER", ch.color, (), fault)
            continue
        level_color = ch.color
        for rr in range(len(ch.entries)):
            tab, tab2 = ch.map_at(rr), other.map_at(rr)
            fmap = f.maps.get(level_color, {})
            for x, jx in tab.items():
                if fmap.get(jx) != tab2.get(fmap.get(x)):
                    report.add(
                        "EQUIVAR", level_color, (x,),
                        f"entries={ch.entries} level={rr}",
                    )
            level_color = minus(level_color, ch.entries[rr])
    return report.sorted()


def _face_buckets(ms: MultipleSet, color: Color, e: int):
    """Each cell's (source, target) pair in direction ``e``, in cell order,
    and the cells at ``color`` bucketed by that pair."""
    cells = ms.cells_at(color)
    stab, ttab = ms.table(SOURCE, color, e), ms.table(TARGET, color, e)
    try:
        pairs = [(stab[x], ttab[x]) for x in cells]
    except KeyError as exc:
        raise UnknownCell(color, exc.args[0]) from None
    buckets: dict[tuple, list[CellId]] = {}
    for x, p in zip(cells, pairs):
        buckets.setdefault(p, []).append(x)
    return pairs, buckets


def _map_candidates(cells: list[CellId], images: list[list[CellId]], budget: Budget) -> list[tuple]:
    """Every map sending ``cells[i]`` into ``images[i]``, as tuples of
    (cell, image) pairs sorted by cell; the maps share one pair per cell and
    image.  The product is paid for before it is built."""
    budget.spend(max(1, math.prod(map(len, images))), PHASE)
    maps = list(itertools.product(*[[(x, y) for y in ys] for x, ys in zip(cells, images)]))
    # parsed documents may list a color's cells out of order
    return maps if cells == sorted(cells) else [tuple(sorted(m)) for m in maps]


def _chain_candidates(ms: MultipleSet, color: Color, entries, budget: Budget) -> list[Chain]:
    """Every chain at ``color`` along ``entries``, built from the terminal map up.

    The terminal map swaps each cell's faces; each map above it sends the
    faces of a cell's image to the next map's images of the cell's faces.
    """
    levels = [color]
    for e in entries[:-1]:
        levels.append(minus(levels[-1], e))
    pairs, buckets = _face_buckets(ms, levels[-1], entries[-1])
    images = [buckets.get((t, s), []) for s, t in pairs]
    suffixes = [(m,) for m in _map_candidates(ms.cells_at(levels[-1]), images, budget)]
    for lc, e in zip(levels[-2::-1], entries[-2::-1]):
        if not suffixes:
            break
        pairs, buckets = _face_buckets(ms, lc, e)
        out = []
        for suffix in suffixes:
            nxt = dict(suffix[0])
            images = [buckets.get((nxt.get(s), nxt.get(t)), []) for s, t in pairs]
            out.extend((m,) + suffix for m in _map_candidates(ms.cells_at(lc), images, budget))
        suffixes = out
    entries = tuple(entries)
    return [Chain(color, entries, maps) for maps in suffixes]


def search_reversors(
    cat: MagmaStructure | MultipleSet,
    m: int,
    kind: str = "minimal",
    budget: int | Budget | None = None,
) -> list[ReversorStructure]:
    """Exhaustive backtracking search for all reversor structures.

    Uniqueness on strict fixtures is a claim to test, not assume: every
    satisfying assignment is returned.  Each candidate map and each
    combination spends one unit of ``budget`` (an int, a ``Budget`` shared
    with other phases, or ``None`` for ``MULTICAT_BUDGET``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    ms = cat.base if isinstance(cat, MagmaStructure) else cat
    return list(_structures(ms, m, kind, as_budget(budget)))


def _structures(ms: MultipleSet, m: int, kind: str, b: Budget):
    """The structures of ``search_reversors``, in its order, one at a time.

    Every candidate chain is built (and paid for) before the first
    structure; each combination is paid for when it is reached, and each
    structure is made by one positional constructor call.  A slot's chains
    all carry its (color, key), so distinct combinations give distinct
    structures, and ordering a combination's chains by slot sorts them by
    (color, entries); when the slots already come in that order, a
    combination's chains are listed as they come.
    """
    slots = required_slots(ms, m, kind)
    slot_options: list[list[Chain]] = []
    for c, key in slots:
        subs = [key]
        if kind == "general":
            subs = [sub for q in range(1, _q_max(len(c), m) + 1)
                    for sub in sorted(k_colors(c, q)) if sub[0] == key[0]]
        options = [ch for sub in subs for ch in _chain_candidates(ms, c, sub, b)]
        if not options:
            return
        slot_options.append(options)
    order = sorted(range(len(slots)), key=slots.__getitem__)
    in_order = order == list(range(len(slots)))
    spend = b.spend
    for combo in itertools.product(*slot_options):
        spend(1, PHASE)
        yield ReversorStructure(ms, m, kind, list(combo) if in_order else [combo[i] for i in order])
