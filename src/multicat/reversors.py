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
    face,
    validate_multiple_set,
)
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

    def chain_for(self, color: Color, entries: tuple[int, ...]) -> Chain | None:
        for ch in self.chains:
            if ch.color == color and ch.entries == entries:
                return ch
        return None


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
        if kind == "minimal":
            slots.extend((c, (e,)) for e in c)
        elif kind == "maximal":
            q = min(_q_max(k, m), k)
            slots.extend((c, sub) for sub in sorted(k_colors(c, q)))
        else:
            slots.extend((c, (e,)) for e in c)
    return slots


def _validate_chain(ms: MultipleSet, ch: Chain, report: ValidationReport,
                    members: dict[Color, set[CellId]]):
    """One chain's scans; the base must be valid, and ``members`` is its
    ``cell_sets``."""
    q = len(ch.entries)
    level_color = ch.color
    maps = [ch.map_at(r) for r in range(q)]
    for r in range(q):
        e = ch.entries[r]
        lower = minus(level_color, e)  # raises EntryAbsent before any face read
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
        level_color = lower


def validate_reversors(r: ReversorStructure) -> ValidationReport:
    report = ValidationReport()
    base_report = validate_multiple_set(r.base)
    if not base_report.ok:
        return base_report
    for c, key in required_slots(r.base, r.m, r.kind):
        if r.kind == "general":
            found = any(
                ch.color == c and ch.entries and ch.entries[0] == key[0]
                and 1 <= len(ch.entries) <= _q_max(len(c), r.m)
                for ch in r.chains
            )
        else:
            found = r.chain_for(c, key) is not None
        if not found:
            report.add("COVER", c, (), f"no chain for {key}")
    members = cell_sets(r.base)
    for ch in r.chains:
        _validate_chain(r.base, ch, report, members)
    return report.sorted()


def validate_reversor_morphism(
    f: MsMorphism, r: ReversorStructure, rp: ReversorStructure
) -> ValidationReport:
    """f intertwines every corresponding chain map: f(j(x)) == j'(f(x))."""
    report = ValidationReport()
    for ch in r.chains:
        other = rp.chain_for(ch.color, ch.entries)
        if other is None:
            report.add("COVER", ch.color, (), f"target lacks chain {ch.entries}")
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


def _map_candidates(ms, color, constraint, budget: Budget) -> list[dict]:
    """All total maps at ``color`` whose images satisfy ``constraint(x, y)``.

    The product is paid for before it is built.
    """
    cells = ms.cells_at(color)
    per_cell = [[y for y in cells if constraint(x, y)] for x in cells]
    budget.spend(max(1, math.prod(map(len, per_cell))), PHASE)
    return [dict(zip(cells, combo)) for combo in itertools.product(*per_cell)]


def _chain_candidates(ms: MultipleSet, color: Color, entries, budget: Budget) -> list[Chain]:
    q = len(entries)
    levels = [color]
    for e in entries[:-1]:
        levels.append(minus(levels[-1], e))

    def extend(r: int, below: list[dict]) -> list[list[dict]]:
        e = entries[r]
        lc = levels[r]
        if r == q - 1:
            def swap_ok(x, y):
                return (
                    face(ms, lc, y, e, SOURCE) == face(ms, lc, x, e, TARGET)
                    and face(ms, lc, y, e, TARGET) == face(ms, lc, x, e, SOURCE)
                )
            return [[m] for m in _map_candidates(ms, lc, swap_ok, budget)]
        suffixes = extend(r + 1, below)
        out = []
        for suffix in suffixes:
            nxt = suffix[0]

            def serial_ok(x, y, nxt=nxt, lc=lc, e=e):
                return (
                    face(ms, lc, y, e, SOURCE) == nxt.get(face(ms, lc, x, e, SOURCE))
                    and face(ms, lc, y, e, TARGET) == nxt.get(face(ms, lc, x, e, TARGET))
                )

            out.extend([m] + suffix for m in _map_candidates(ms, lc, serial_ok, budget))
        return out

    return [make_chain(color, entries, maps) for maps in extend(0, [])]


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
    structure; each combination is paid for when it is reached.
    """
    slot_options: list[list[list[Chain]]] = []
    for c, key in required_slots(ms, m, kind):
        if kind == "general":
            options: list[list[Chain]] = []
            for q in range(1, _q_max(len(c), m) + 1):
                for sub in sorted(k_colors(c, q)):
                    if sub and sub[0] == key[0]:
                        options.extend([ch] for ch in _chain_candidates(ms, c, sub, b))
        else:
            options = [[ch] for ch in _chain_candidates(ms, c, key, b)]
        if not options:
            return
        slot_options.append(options)

    # distinct combos can collapse to the same chain set
    seen = set()
    for combo in itertools.product(*slot_options):
        b.spend(1, PHASE)
        chains = sorted(
            {ch for group in combo for ch in group},
            key=lambda ch: (ch.color, ch.entries, ch.maps),
        )
        key = tuple((ch.color, ch.entries, ch.maps) for ch in chains)
        if key not in seen:
            seen.add(key)
            yield ReversorStructure(base=ms, m=m, kind=kind, chains=chains)
