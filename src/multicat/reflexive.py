"""Reflexive structures (degeneracies) and the free reflexive multiple set.

A reflexive structure adds, for every cell and every insertable direction,
a degenerate cell one dimension up.  The free construction interns the
generators and their degeneracies in a term graph, ``ReflexiveTerms``, which
the weak completion extends.  Stacked degeneracies are kept in one entry
order, so the degeneracy-exchange law holds structurally and each cell has
one term.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from types import SimpleNamespace

from .colors import Color, add, addable_entries, colors_within, minus
from .core import (
    _MISSING,
    SOURCE,
    TARGET,
    CellId,
    Layer,
    MsMorphism,
    MultipleSet,
    check,
    int_problem,
    validate_multiple_set,
)
from .errors import BoundMismatch, InvalidBase
from .report import ValidationReport
from .terms import Budget, TermGraph, as_budget

PHASE = "free reflexive"


@dataclass
class ReflexiveStructure:
    base: MultipleSet
    # (color c, entry l with l not in c) -> cell at c -> cell at add(c, l)
    refl: dict[tuple[Color, int], dict[CellId, CellId]] = field(default_factory=dict)


def admissible_refl_keys(ms: MultipleSet) -> list[tuple[Color, int]]:
    """(color, entry) pairs whose degeneracy map must exist within bounds."""
    out = []
    for c in colors_within(ms.universe_bound, ms.dim_bound):
        if not ms.cells_at(c) or len(c) + 1 > ms.dim_bound:
            continue
        for l in addable_entries(c, ms.universe_bound):
            out.append((c, l))
    return out


def validate_reflexive(r: ReflexiveStructure) -> ValidationReport:
    """Face/degeneracy compatibility, the section law, exchange and totality.

    The section law REFL-SECT (the face of a degenerate cell in its own
    added direction gives the cell back) is always checked; the other
    diagrams only constrain distinct directions.
    """
    return check(SimpleNamespace(base=r.base, refl=r), REFLEXIVE)


def _exchange(s, report: ValidationReport, faces_ok: bool, unset=None):
    """REFL-EXCH where 1_k 1_l x and 1_l 1_k x differ (l < k), a side read
    as ``unset`` where undefined (a stage-bounded result leaves a square
    missing both open), on the squares that fit within ``dim_bound``: past
    it no side exists or is admissible."""
    r, members = s.refl, report.cells
    if r is None:
        return
    by_color: dict[Color, list[tuple[int, dict]]] = {}
    for (c, k), tab in r.refl.items():
        by_color.setdefault(c, []).append((k, tab))
    for (c, l), tab in r.refl.items():
        if l in c or l < 1 or len(c) + 2 > r.base.dim_bound:
            continue
        up = add(c, l)
        here, above = members.get(c, ()), members.get(up, ())
        for k, tab2 in by_color[c]:
            if k <= l or k in c:
                continue
            via_l = r.refl.get((up, k), {}).get
            via_k = r.refl.get((add(c, k), l), {}).get
            for x in [x for x, dx in tab.items() if x in tab2 and x in here and dx in above
                      and via_l(dx, unset) != via_k(tab2[x])]:
                report.add("REFL-EXCH", c, (x,), f"added=({l},{k})")


def _scan_reflexive(s, report: ValidationReport, faces_ok: bool):
    """The degeneracy scans of the reflexive structure attached to ``s``, if any."""
    r = s.refl
    if r is None:
        return
    ms, members = r.base, report.cells
    for (c, l), tab in r.refl.items():
        if l in c or l < 1:
            for x in tab:
                report.add("TOTAL", c, (x,), f"entry {l} cannot be added to {list(c)}")
            continue
        up = add(c, l)
        here, above = members.get(c, ()), members.get(up, ())
        outside = [x for x, dx in tab.items() if not (x in here and dx in above)]
        if outside:
            tab = dict(tab)  # the other scans read the other entries
            for x in outside:
                dx = tab.pop(x)
                if x not in here:
                    report.add("TOTAL", c, (x,), f"degeneracy of {x!r}, not a cell at {list(c)}")
                else:
                    report.add("TOTAL", c, (x,), f"degenerate image {dx!r} not at {list(up)}")
        if not tab:
            continue
        for tabs, pol in ((ms.src, SOURCE), (ms.tgt, TARGET)):
            section = tabs[(up, l)]
            for x in [x for x, dx in tab.items() if section[dx] != x]:
                report.add("REFL-SECT", c, (x,), f"entry={l} polarity={pol}")
        for k in c:
            lower = r.refl.get((minus(c, k), l), {}).get
            for tabs, axiom in ((ms.src, "REFL-S"), (ms.tgt, "REFL-T")):
                up_k, c_k = tabs[(up, k)], tabs[(c, k)]
                for x in [x for x, dx in tab.items() if up_k[dx] != lower(c_k[x])]:
                    report.add(axiom, c, (x,), f"added={l} entry={k}")


def _total_reflexive(s, report: ValidationReport, faces_ok: bool):
    """A degeneracy of each cell in each admissible direction; exchange, missing sides counted."""
    r = s.refl
    if r is None:
        return
    for c, l in admissible_refl_keys(r.base):
        tab = r.refl.get((c, l))
        if tab is None:
            report.add("TOTAL", c, (), f"missing degeneracy table for entry {l}")
            continue
        for x in [x for x in r.base.cells_at(c) if x not in tab]:
            report.add("TOTAL", c, (x,), f"degeneracy undefined for entry {l}")
    _exchange(s, report, faces_ok, _MISSING)


DEGENERACIES = Layer(_scan_reflexive, True, lambda s: {"refl": s.refl.refl} if s.refl else {})
DEGENERACIES_TOTAL = Layer(_total_reflexive, True)
EXCHANGE = Layer(_exchange, True)  # a stage-bounded result's, with its totality
REFLEXIVE = (DEGENERACIES, DEGENERACIES_TOTAL)


class _Sealed(Exception):
    """A sealed term graph was asked for a term it never built."""


class ReflexiveTerms(TermGraph):
    """The generators, interned when the graph is made, and their degeneracies
    below ``dim_bound``.  ``refl`` keeps stacked degeneracies in increasing
    entry order from the inside out, so the exchange law holds structurally
    and each cell has one term, named ``1[l,...,k]x`` after its generator x
    and its added entries.  Names are rendered in batches, by ``cells_by_color``."""

    def __init__(self, generators: MultipleSet, dim_bound: int, budget: Budget, phase: str):
        super().__init__(generators, budget, phase)
        self.dim_bound = dim_bound
        self.name: list[CellId] = []
        # color -> the names its cells have so far
        self.taken: defaultdict[Color, set[CellId]] = defaultdict(set)
        # color -> the ids of its named nodes, in id order
        self.groups: dict[Color, list[int]] = {}
        self.sealed = False
        for c in generators.colors():
            for x in generators.cells_at(c):
                self.gen(c, x)

    def refl(self, l: int, t: int) -> int:
        node = self.nodes[t]
        if node[0] == "refl" and node[1] > l:
            return super().refl(node[1], self.refl(l, node[2]))
        return super().refl(l, t)

    def _name(self, node: tuple) -> CellId:
        if node[0] == "gen":
            return node[2]
        inner = self.name[node[2]]
        if self.nodes[node[2]][0] == "refl":  # the largest entry ends the prefix
            return inner.replace("]", f",{node[1]}]", 1)
        return f"1[{node[1]}]{inner}"

    def addable(self, c: Color) -> list[int]:
        """The entries a cell at ``c`` takes degeneracies in, below ``dim_bound``."""
        return addable_entries(c, self.generators.universe_bound) if len(c) < self.dim_bound else []

    def cells_by_color(self) -> dict[Color, list[int]]:
        """Each color's node ids, once the nodes made since the last call are
        named and indexed; later calls extend the same index.  A name that an
        earlier cell of its color has -- a generator named like a built term,
        as the cells of a free reflexive structure are when it generates the
        next one -- takes a prime until it is free."""
        name, render, taken, groups = self.name, self._name, self.taken, self.groups
        nodes, color = self.nodes, self.color
        for t in range(len(name), len(nodes)):
            c = color[t]
            x = render(nodes[t])
            here = taken[c]
            while x in here:
                x += "'"
            here.add(x)
            name.append(x)
            ids = groups.get(c)
            if ids is None:
                groups[c] = [t]
            else:
                ids.append(t)
        return groups

    def tabulate(self) -> tuple[ReflexiveStructure, dict[Color, list[int]]]:
        """The cells, faces and built degeneracies, and each color's node ids.
        The graph is sealed first: a subclass that stops short of the closure
        (the weak completion) then raises ``_Sealed`` for a new term, so a
        degeneracy that would need one is left out of its table."""
        self.sealed = True
        groups = self.cells_by_color()
        self.taken.clear()  # sealed: no cell is named after this
        name, refl = self.name, self.refl
        base = MultipleSet(self.generators.universe_bound, self.dim_bound)
        out = ReflexiveStructure(base=base)
        for c, ids in groups.items():
            base.cells[c] = sorted(name[t] for t in ids)
            for d in c:
                S, T = self.src[d], self.tgt[d]
                base.src[(c, d)] = {name[t]: name[S[t]] for t in ids}
                base.tgt[(c, d)] = {name[t]: name[T[t]] for t in ids}
            for l in self.addable(c):
                tab = {}
                for t in ids:
                    with suppress(_Sealed):
                        tab[name[t]] = name[refl(l, t)]
                if tab:
                    out.refl[(c, l)] = tab
        return out, groups


@dataclass
class FreeReflexive(ReflexiveStructure):
    generators: MultipleSet = None
    unit: MsMorphism = None
    # (color, cell id) -> (generator color, generator id, added set)
    origin: dict[tuple[Color, CellId], tuple[Color, CellId, frozenset]] = field(
        default_factory=dict
    )
    # inverse of origin
    cell_of: dict[tuple[Color, CellId, frozenset], tuple[Color, CellId]] = field(
        default_factory=dict
    )


def free_reflexive(
    ms: MultipleSet,
    dim_bound: int,
    budget: int | Budget | None = None,
) -> FreeReflexive:
    """Left adjoint to forgetting degeneracies, truncated at ``dim_bound``.

    The cells are the generators and their stacked degeneracies, interned in
    ``ReflexiveTerms``: a cell at color c is a generator x at a subcolor c0
    with the entries c \\ c0 added.  Each cell spends one unit of ``budget``
    (an int, a ``Budget`` shared with other phases, or ``None`` for
    ``MULTICAT_BUDGET``) when it is interned.  A ``dim_bound`` that is not an
    integer >= 0 is a ValueError.
    """
    if not validate_multiple_set(ms).ok:
        raise InvalidBase("base multiple set does not validate")
    if (problem := int_problem(dim_bound, "dim_bound", 0)) is not None:
        raise ValueError(problem)
    if dim_bound < ms.dim_bound:
        raise InvalidBase(f"dim bound {dim_bound} below base bound {ms.dim_bound}")

    g = ReflexiveTerms(ms, dim_bound, as_budget(budget), PHASE)
    # the list grows as degeneracies are made, and each new one is closed too
    for t, c in enumerate(g.color):
        for l in g.addable(c):
            g.refl(l, t)
    refl, _ = g.tabulate()
    out = FreeReflexive(base=refl.base, refl=refl.refl, generators=ms)
    for t, c in enumerate(g.color):
        added, node = set(), g.nodes[t]
        while node[0] == "refl":
            added.add(node[1])
            node = g.nodes[node[2]]
        out.origin[(c, g.name[t])] = key = (node[1], node[2], frozenset(added))
        out.cell_of[key] = (c, g.name[t])
    out.unit = MsMorphism(ms, refl.base, {c: {x: x for x in ms.cells_at(c)} for c in ms.colors()})
    return out


def reflexive_monad_multiply(outer: FreeReflexive, inner: FreeReflexive) -> MsMorphism:
    """Flattening map for the free construction applied twice.

    ``inner`` is free on some generators; ``outer`` is free on ``inner``'s
    underlying multiple set.  Nested added sets merge into one.
    """
    if outer.generators is not inner.base:
        raise BoundMismatch("outer layer was not built on the inner layer's result")
    if outer.base.dim_bound != inner.base.dim_bound:
        raise BoundMismatch("layers built at different dimension bounds")
    maps: dict[Color, dict[CellId, CellId]] = {}
    for (c, cid), (c1, mid, added_outer) in outer.origin.items():
        c0, x, added_inner = inner.origin[(c1, mid)]
        _, flat = inner.cell_of[(c0, x, added_inner | added_outer)]
        maps.setdefault(c, {})[cid] = flat
    return MsMorphism(outer.base, inner.base, maps)
