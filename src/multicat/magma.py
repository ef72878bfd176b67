"""Partial composition over pullbacks and the positional axioms.

Composition ``a *_d b`` is defined exactly when the d-source of ``a`` equals
the d-target of ``b`` ("a after b").  Tables are keyed by the operand pair;
validation demands the key set equal the full pullback, since the operation
is defined on the whole pullback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colors import Color, add, addable_entries, minus
from .core import _MISSING
from .core import (
    SOURCE,
    TARGET,
    CellId,
    MultipleSet,
    cell_sets,
    face,
    key_problem,
    validate_multiple_set,
    well_formed,
)
from .errors import NotComposable, UnknownCell
from .reflexive import ReflexiveStructure, _scan_reflexive
from .report import ValidationReport


@dataclass
class MagmaStructure:
    base: MultipleSet
    # (color, direction) -> (a, b) -> composite, with s_d(a) == t_d(b)
    comp: dict[tuple[Color, int], dict[tuple[CellId, CellId], CellId]] = field(
        default_factory=dict
    )
    refl: ReflexiveStructure | None = None


def composable_pairs(ms: MultipleSet, c: Color, d: int) -> list[tuple[CellId, CellId]]:
    """The pullback: pairs (a, b) with s_d(a) == t_d(b)."""
    return list(_pullback(ms, c, d))


def _pullback(ms: MultipleSet, c: Color, d: int, cells=None):
    """The pairs of ``composable_pairs``, in the same order, one at a time;
    ``cells`` restricts both operands to those cells at ``c``."""
    stab = ms.table(SOURCE, c, d)
    ttab = ms.table(TARGET, c, d)
    if cells is None:
        cells = ms.cells_at(c)
    by_target: dict[CellId, list[CellId]] = {}
    for b in cells:
        by_target.setdefault(ttab[b], []).append(b)
    for a in cells:
        for b in by_target.get(stab[a], ()):
            yield a, b


def compose(m: MagmaStructure, c: Color, a: CellId, b: CellId, d: int) -> CellId:
    ms = m.base
    for x in (a, b):
        if not ms.has_cell(c, x):
            raise UnknownCell(c, x)
    sa = face(ms, c, a, d, SOURCE)
    tb = face(ms, c, b, d, TARGET)
    if sa != tb:
        raise NotComposable(c, d, a, b, sa, tb)
    return m.comp[(c, d)][(a, b)]


def validate_magma(m: MagmaStructure) -> ValidationReport:
    """Totality on the pullback, POS1 and POS2."""
    report = validate_multiple_set(m.base)
    if report.ok:
        _scan_magma(m, report, cell_sets(m.base), True)
    return report.sorted()


def _scan_magma(m: MagmaStructure, report: ValidationReport,
                members: dict[Color, set[CellId]], require_total: bool):
    """The composition scans, appended to ``report``; the base must be valid,
    and ``members`` is its ``cell_sets``."""
    ms = m.base
    if require_total:
        for c in ms.colors():
            for d in c:
                tab = m.comp.get((c, d), {})
                for pair in [pair for pair in _pullback(ms, c, d) if pair not in tab]:
                    report.add("TOTAL", c, pair, f"composite undefined for direction {d}")

    src, tgt = ms.src, ms.tgt
    for (c, d), tab in m.comp.items():
        if (broken := key_problem("comp", (c, d))) is not None:
            report.add("SHAPE", broken[0], (), broken[1])
            continue
        if d not in c:
            for pair in tab:
                report.add("TOTAL", c, pair, f"direction {d} not an entry of {list(c)}")
            continue
        here = members.get(c, ())
        if here:  # the faces of a valid base's cells are defined
            sd, td = src[(c, d)], tgt[(c, d)]
            for pair in [(a, b) for a, b in tab if a in here and b in here and sd[a] != td[b]]:
                report.add("TOTAL", c, pair, f"operands not composable in direction {d}")
        outside = [(a, b) for (a, b), r in tab.items()
                   if not (a in here and b in here and r in here)]
        if outside:
            tab = dict(tab)  # the positional scans read the other entries
            for a, b in outside:
                r = tab.pop((a, b))
                if not (a in here and b in here):
                    report.add("TOTAL", c, (a, b), f"operand not a cell at {list(c)}")
                else:
                    report.add("TOTAL", c, (a, b), f"composite {r!r} not a cell at {list(c)}")
        if not tab:
            continue
        for pair in [(a, b) for (a, b), r in tab.items() if sd[r] != sd[b]]:
            report.add("POS1", c, pair, f"direction={d} polarity={SOURCE}")
        for pair in [(a, b) for (a, b), r in tab.items() if td[r] != td[a]]:
            report.add("POS1", c, pair, f"direction={d} polarity={TARGET}")
        for k in c:
            if k == d:
                continue
            lower_tab = m.comp.get((minus(c, k), d), {})
            lower = lower_tab.get
            for tabs, pol in ((src, SOURCE), (tgt, TARGET)):
                tab_k = tabs[(c, k)]
                for a, b in [(a, b) for (a, b), r in tab.items()
                             if lower((tab_k[a], tab_k[b]), _MISSING) != tab_k[r]]:
                    detail = f"direction={d} entry={k} polarity={pol}"
                    if (tab_k[a], tab_k[b]) not in lower_tab:
                        detail += " face composite undefined"
                    report.add("POS2", c, (a, b), detail)


def validate_reflexive_magma(m: MagmaStructure) -> ValidationReport:
    """Degeneracies distribute over composition (the DIST law), on top of
    the lower layers, each checked once."""
    report = validate_multiple_set(m.base)
    if well_formed(m.base, report):
        _scan_reflexive_magma(m, report, report.ok, cell_sets(m.base))
    if m.refl is None:
        report.add("TOTAL", (), (), "no reflexive structure attached")
    return report.sorted()


def _scan_reflexive_magma(m: MagmaStructure, report: ValidationReport, base_ok: bool,
                          members: dict[Color, set[CellId]], require_total: bool = True):
    """The magma, reflexive and DIST scans over a base validated once, whose
    ``cell_sets`` are ``members``; DIST is pure table lookup, so it stays
    meaningful (and safe) on a failed base."""
    if base_ok:
        _scan_magma(m, report, members, require_total)
        if m.refl is not None:
            _scan_reflexive(m.refl, report, members, require_total)
    if m.refl is None:
        return
    for (c, d), tab in m.comp.items():
        if len(c) + 1 > m.base.dim_bound:
            continue
        for l in addable_entries(c, m.base.universe_bound):
            refl_tab = m.refl.refl.get((c, l))
            if refl_tab is None:
                continue
            dg = refl_tab.get
            up = m.comp.get((add(c, l), d), {}).get
            # a pair is checked only where all three degeneracies exist
            for pair in [(a, b) for (a, b), r in tab.items()
                         if (dr := dg(r)) is not None and (da := dg(a)) is not None
                         and (db := dg(b)) is not None and up((da, db)) != dr]:
                report.add("DIST", c, pair, f"direction={d} added={l}")
