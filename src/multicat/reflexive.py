"""Reflexive structures (degeneracies) and the free reflexive multiple set.

A reflexive structure adds, for every cell and every insertable direction,
a degenerate cell one dimension up.  The free construction represents the
degenerate cells as (generator, added-entry-set) pairs: keeping the added
entries as a set builds the degeneracy-exchange law into the representation,
so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colors import Color, add, addable_entries, colors_within, k_colors, minus
from .core import (
    _MISSING,
    SOURCE,
    TARGET,
    CellId,
    MsMorphism,
    MultipleSet,
    cell_sets,
    face,
    validate_multiple_set,
)
from .errors import BoundMismatch, InvalidBase
from .report import ValidationReport
from .terms import Budget, as_budget

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
    """Face/degeneracy compatibility, the section law, and exchange.

    The section law REFL-SECT (the face of a degenerate cell in its own
    added direction gives the cell back) is always checked; the other
    diagrams only constrain distinct directions.
    """
    report = validate_multiple_set(r.base)
    if report.ok:
        _scan_reflexive(r, report, cell_sets(r.base), True)
    return report.sorted()


def _scan_reflexive(r: ReflexiveStructure, report: ValidationReport,
                    members: dict[Color, set[CellId]], require_total: bool):
    """The degeneracy scans, appended to ``report``; the base must be valid,
    and ``members`` is its ``cell_sets``."""
    ms = r.base
    if require_total:
        for c, l in admissible_refl_keys(ms):
            tab = r.refl.get((c, l))
            if tab is None:
                report.add("TOTAL", c, (), f"missing degeneracy table for entry {l}")
                continue
            for x in [x for x in ms.cells_at(c) if x not in tab]:
                report.add("TOTAL", c, (x,), f"degeneracy undefined for entry {l}")

    # the other degeneracy tables at each color, for the exchange scan
    by_color: dict[Color, list[tuple[int, dict]]] = {}
    for (c, k), tab in r.refl.items():
        by_color.setdefault(c, []).append((k, tab))
    # an exchange square missing both composites fails only under totality
    unset = _MISSING if require_total else None
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
        # exchange with every other degeneracy defined at this color
        for k, tab2 in by_color[c]:
            if k <= l or k in c:
                continue
            via_l = r.refl.get((up, k), {}).get
            via_k = r.refl.get((add(c, k), l), {}).get
            for x in [x for x, dx in tab.items()
                      if x in tab2 and via_l(dx, unset) != via_k(tab2[x])]:
                report.add("REFL-EXCH", c, (x,), f"added=({l},{k})")


def _free_cell_id(x: CellId, added: frozenset[int]) -> CellId:
    if not added:
        return x
    return "1[" + ",".join(str(l) for l in sorted(added)) + "]" + x


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

    Cells at color c are pairs (generator x at a subcolor c0, added set
    c \\ c0); faces follow the reflexivity axioms, with the section law for
    faces in added directions.  Each cell spends one unit of ``budget`` (an
    int, a ``Budget`` shared with other phases, or ``None`` for
    ``MULTICAT_BUDGET``), paid before its color's cells are built.
    """
    if dim_bound < ms.dim_bound:
        raise InvalidBase(f"dim bound {dim_bound} below base bound {ms.dim_bound}")
    if not validate_multiple_set(ms).ok:
        raise InvalidBase("base multiple set does not validate")

    budget = as_budget(budget)
    D = ms.universe_bound
    base = MultipleSet(D, dim_bound)
    out = FreeReflexive(base=base, generators=ms)

    for c in colors_within(D, dim_bound):
        ids = []
        subcolors = sorted({sub for n in range(len(c) + 1) for sub in k_colors(c, n)})
        budget.spend(sum(len(ms.cells_at(c0)) for c0 in subcolors), PHASE)
        for c0 in subcolors:
            added = frozenset(set(c) - set(c0))
            for x in ms.cells_at(c0):
                cid = _free_cell_id(x, added)
                ids.append(cid)
                out.origin[(c, cid)] = (c0, x, added)
                out.cell_of[(c0, x, added)] = (c, cid)
        if ids:
            base.cells[c] = sorted(ids)

    def face_of(c: Color, cid: CellId, d: int, pol: str) -> CellId:
        c0, x, added = out.origin[(c, cid)]
        if d in added:
            return _free_cell_id(x, added - {d})
        return _free_cell_id(face(ms, c0, x, d, pol), added)

    for c in base.colors():
        for d in c:
            base.src[(c, d)] = {x: face_of(c, x, d, SOURCE) for x in base.cells_at(c)}
            base.tgt[(c, d)] = {x: face_of(c, x, d, TARGET) for x in base.cells_at(c)}

    for c, l in admissible_refl_keys(base):
        tab = {}
        for cid in base.cells_at(c):
            c0, x, added = out.origin[(c, cid)]
            tab[cid] = _free_cell_id(x, added | {l})
        out.refl[(c, l)] = tab

    out.unit = MsMorphism(
        ms, base, {c: {x: x for x in ms.cells_at(c)} for c in ms.colors()}
    )
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
