"""Reversor chains: the inverse-like structures above a cutoff dimension m.

A chain at a k-color applies one map per chain entry, each acting one
dimension lower than the previous.  Non-terminal maps intertwine sources
and targets; the terminal map swaps them in its own direction.  Kinds:

* minimal — one single-map chain per (color, entry), for every dimension
  above m;
* maximal — one chain per (color, subcolor of maximal admissible length);
* general — at least one chain of some admissible length per (color, first
  entry).

At dimension m+1 every kind degenerates to single swap maps.  A chain whose
entries leave its color, or that has fewer maps than entries, is one COVER
violation, in ``validate_reversors`` and, on either side, in
``validate_reversor_morphism``.

``search_reversors`` lists structures in one order: slots in
``itertools.product`` order, the last slot (by dimension, color, key)
fastest; within a slot, entry sequences by length, then lexicographically;
within one, the terminal map first, each map in product order over its
color's cells as listed.  Each structure's chains are in (color, entries)
order.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .colors import Color, colors_within, k_colors, minus
from .core import (
    SOURCE,
    TARGET,
    CellId,
    MsMorphism,
    MultipleSet,
    cell_sets,
    chain_map_problem,
    choice_problem,
    color_problem,
    int_problem,
    names_problem,
    validate_multiple_set,
)
from .errors import InvalidBase, UnknownCell
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


def _chain_problem(ch: Chain) -> str | None:
    """The part of the document rule a chain can break, past its color: its
    entries are integers, and its maps name cells by strings, each once."""
    for e in ch.entries:
        if (problem := int_problem(e, "chain entry")) is not None:
            return problem
    for level in ch.maps:
        if (problem := chain_map_problem(level)) is not None:
            return problem
    return names_problem("chains", [x for level in ch.maps for pair in level for x in pair])


def validate_reversors(r: ReversorStructure) -> ValidationReport:
    """The document rule (the base's, then ``m``, the kind and each chain's,
    reported at the chain's color), then coverage and each chain's scans."""
    report = validate_multiple_set(r.base)
    if not report.ok:
        return report
    for problem in (int_problem(r.m, "m", 0), choice_problem(r.kind, KINDS, "reversor_kind")):
        if problem is not None:
            report.add("SHAPE", (), (), problem)
    for ch in r.chains:
        if (problem := color_problem(ch.color)) is not None:
            report.add("SHAPE", (), (), problem)
        elif (problem := _chain_problem(ch)) is not None:
            report.add("SHAPE", ch.color, (), problem)
    if not report.ok:
        return report.sorted()
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
    """f intertwines every corresponding chain map: f(j(x)) is defined and
    equals j'(f(x)).

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
                # where f is undefined on j(x), f(j(x)) agrees with nothing
                fjx = fmap.get(jx)
                if fjx is None or fjx != tab2.get(fmap.get(x)):
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


class _Maps:
    """The chains at ``color`` along ``entries`` whose maps after the first
    are ``below``: one per first map sending the ``i``-th cell at ``color``
    into ``images[i]``, each chain made when asked for.

    First maps come in product order over the cells as listed, the last cell
    fastest, each a tuple of (cell, image) pairs sorted by cell; the maps
    share one pair per cell and image.  ``count`` is paid for before any
    chain is made.
    """

    def __init__(self, ms: MultipleSet, color: Color, entries: tuple[int, ...], below: tuple,
                 images: list[list[CellId]], budget: Budget):
        self.count = math.prod(map(len, images))
        budget.spend(max(1, self.count), PHASE)
        self.color, self.entries, self.below = color, entries, below
        cells = ms.cells_at(color)
        self.pairs = [[(x, y) for y in ys] for x, ys in zip(cells, images)]
        # parsed documents may list a color's cells out of order
        self.order = None if cells == sorted(cells) else sorted(range(len(cells)), key=cells.__getitem__)

    def _sorted(self, picked) -> tuple:
        return tuple(picked) if self.order is None else tuple([picked[k] for k in self.order])

    def __iter__(self):
        color, entries, below = self.color, self.entries, self.below
        maps = itertools.product(*self.pairs)
        if self.order is not None:
            maps = map(self._sorted, maps)
        return (Chain(color, entries, (mp,) + below) for mp in maps)

    def __getitem__(self, i: int) -> Chain:
        """The ``i``-th chain, for ``0 <= i < count``, by mixed-radix decoding."""
        picked = []
        for pairs in reversed(self.pairs):
            i, r = divmod(i, len(pairs))
            picked.append(pairs[r])
        picked.reverse()
        return Chain(self.color, self.entries, (self._sorted(picked),) + self.below)


def _chain_options(ms: MultipleSet, color: Color, entries: tuple[int, ...],
                   budget: Budget) -> list[_Maps]:
    """The chains at ``color`` along ``entries``, one ``_Maps`` per choice of
    the maps below the top one.

    Chains are built from the terminal map up, each level's as the chains at
    its own color along the entries from it on.  The terminal map swaps each
    cell's faces; each map above it sends the faces of a cell's image to the
    next map's images of the cell's faces, so its images depend on that map.
    Each level below the top is made in full, because the level above reads
    its maps; only the top level's chains wait until they are reached.
    """
    levels = list(itertools.accumulate(entries[:-1], minus, initial=color))
    pairs, buckets = _face_buckets(ms, levels[-1], entries[-1])
    tops = [_Maps(ms, levels[-1], entries[-1:], (),
                  [buckets.get((t, s), []) for s, t in pairs], budget)]
    for r in range(len(entries) - 2, -1, -1):
        pairs, buckets = _face_buckets(ms, levels[r], entries[r])
        above = []
        for below in itertools.chain.from_iterable(tops):
            nxt = dict(below.maps[0])
            images = [buckets.get((nxt.get(s), nxt.get(t)), []) for s, t in pairs]
            above.append(_Maps(ms, levels[r], entries[r:], below.maps, images, budget))
        tops = above
    return tops


class ReversorSpace:
    """The reversor structures on ``base``: the product, over its coverage
    slots, of each slot's chains, in ``itertools.product`` order (the last
    slot fastest).

    ``len`` is a product of sums, ``[i]`` decodes ``i`` digit by digit and
    makes one structure, and iteration makes each structure when it is
    reached; only the maps below a chain's top map are built with the space.
    Each structure is one positional constructor call with its chains in
    (color, entries) order.  A space equals a list or space with equal
    structures in the same order.
    """

    def __init__(self, ms: MultipleSet, m: int, kind: str, budget: Budget):
        """Every slot's candidate maps are paid for, slot by slot, before
        any is made; the first slot without a chain leaves the space empty
        and later slots unpaid for."""
        self.base, self.m, self.kind = ms, m, kind
        slots = required_slots(ms, m, kind)
        # per slot: its chain count and its chains, one _Maps per choice of
        # the maps below the top one
        self._slots: list[tuple[int, list[_Maps]]] = []
        for c, key in slots:
            subs = [key]
            if kind == "general":
                subs = [sub for q in range(1, _q_max(len(c), m) + 1)
                        for sub in sorted(k_colors(c, q)) if sub[0] == key[0]]
            tops = [top for sub in subs for top in _chain_options(ms, c, tuple(sub), budget)]
            total = sum(top.count for top in tops)
            self._slots.append((total, tops))
            if not total:
                break
        self.count = math.prod(total for total, _ in self._slots)
        # a slot's chains all carry its (color, key), so ordering a
        # combination's chains by slot sorts them by (color, entries)
        order = sorted(range(len(slots)), key=slots.__getitem__)
        self._order = None if order == list(range(len(slots))) else order

    def __len__(self) -> int:
        return self.count

    def _make(self, combo: list[Chain]) -> ReversorStructure:
        chains = combo if self._order is None else [combo[k] for k in self._order]
        return ReversorStructure(self.base, self.m, self.kind, chains)

    def __getitem__(self, i: int) -> ReversorStructure:
        i = operator.index(i)
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError("reversor structure index out of range")
        combo = []
        for total, tops in reversed(self._slots):
            i, r = divmod(i, total)
            for top in tops:
                if r < top.count:
                    combo.append(top[r])
                    break
                r -= top.count
        combo.reverse()
        return self._make(combo)

    def __iter__(self):
        if self.count:
            yield from self._from(0, [])

    def _from(self, k: int, combo: list[Chain]):
        """The structures that extend ``combo``, a chain for each slot
        before ``k``, in order."""
        if k == len(self._slots):
            yield self._make(combo)
            return
        for top in self._slots[k][1]:
            for chain in top:
                yield from self._from(k + 1, combo + [chain])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ReversorSpace)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def search_reversors(
    cat: MagmaStructure | MultipleSet,
    m: int,
    kind: str = "minimal",
    budget: int | Budget | None = None,
) -> ReversorSpace:
    """Every reversor structure, as a ``ReversorSpace``.

    Uniqueness on strict fixtures is a claim to test, not assume: the space
    holds every satisfying assignment.  ``budget`` (an int, a ``Budget``
    shared with other phases, or ``None`` for ``MULTICAT_BUDGET``) pays one
    unit per candidate map, each map level before it is made, and one unit
    per structure, charged as ``len`` before the space is returned.  An
    unknown ``kind``, or an ``m`` that is not an integer >= 0, is a
    ValueError, and a base that does not validate is InvalidBase.
    """
    for problem in (choice_problem(kind, KINDS, "kind"), int_problem(m, "m", 0)):
        if problem is not None:
            raise ValueError(problem)
    ms = cat.base if isinstance(cat, MagmaStructure) else cat
    if not validate_multiple_set(ms).ok:
        raise InvalidBase("base multiple set does not validate")
    b = as_budget(budget)
    space = ReversorSpace(ms, m, kind, b)
    b.spend(space.count, PHASE)
    return space

