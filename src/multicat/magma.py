"""Partial composition over pullbacks and the positional axioms.

Composition ``a *_d b`` is defined exactly when the d-source of ``a`` equals
the d-target of ``b`` ("a after b").  Tables are keyed by the operand pair;
validation demands the key set equal the full pullback, since the operation
is defined on the whole pullback.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colors import Color, add, addable_entries, minus
from .core import SOURCE, TARGET, CellId, MultipleSet, face, validate_multiple_set
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


def _pullback(ms: MultipleSet, c: Color, d: int):
    """The pairs of ``composable_pairs``, in the same order, one at a time."""
    stab = ms.table(SOURCE, c, d)
    ttab = ms.table(TARGET, c, d)
    by_target: dict[CellId, list[CellId]] = {}
    for b in ms.cells_at(c):
        by_target.setdefault(ttab[b], []).append(b)
    for a in ms.cells_at(c):
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


def validate_magma(m: MagmaStructure, require_total: bool = True) -> ValidationReport:
    """Totality on the pullback, POS1 and POS2."""
    report = validate_multiple_set(m.base)
    if report.ok:
        _scan_magma(m, report, require_total)
    return report.sorted()


def _scan_magma(m: MagmaStructure, report: ValidationReport, require_total: bool):
    """The composition scans, appended to ``report``; the base must be valid."""
    ms = m.base
    if require_total:
        for c in ms.colors():
            for d in c:
                tab = m.comp.get((c, d), {})
                for pair in composable_pairs(ms, c, d):
                    if pair not in tab:
                        report.add("TOTAL", c, pair, f"composite undefined for direction {d}")

    for (c, d), tab in m.comp.items():
        for (a, b), r in tab.items():
            if d not in c:
                report.add("TOTAL", c, (a, b), f"direction {d} not an entry of {list(c)}")
                continue
            if not (ms.has_cell(c, a) and ms.has_cell(c, b)):
                report.add("TOTAL", c, (a, b), f"operand not a cell at {list(c)}")
                continue
            if not ms.has_cell(c, r):
                report.add("TOTAL", c, (a, b), f"composite {r!r} not a cell at {list(c)}")
                continue
            if face(ms, c, r, d, SOURCE) != face(ms, c, b, d, SOURCE):
                report.add("POS1", c, (a, b), f"direction={d} polarity={SOURCE}")
            if face(ms, c, r, d, TARGET) != face(ms, c, a, d, TARGET):
                report.add("POS1", c, (a, b), f"direction={d} polarity={TARGET}")
            for k in c:
                if k == d:
                    continue
                lower = minus(c, k)
                lower_tab = m.comp.get((lower, d), {})
                for pol in (SOURCE, TARGET):
                    fa = face(ms, c, a, k, pol)
                    fb = face(ms, c, b, k, pol)
                    if (fa, fb) not in lower_tab:
                        report.add(
                            "POS2", c, (a, b),
                            f"direction={d} entry={k} polarity={pol} face composite undefined",
                        )
                    elif lower_tab[(fa, fb)] != face(ms, c, r, k, pol):
                        report.add("POS2", c, (a, b), f"direction={d} entry={k} polarity={pol}")


def validate_reflexive_magma(m: MagmaStructure) -> ValidationReport:
    """Degeneracies distribute over composition (the DIST law)."""
    if m.refl is None:
        report = ValidationReport()
        report.add("TOTAL", (), (), "no reflexive structure attached")
        return report
    report = validate_multiple_set(m.base)
    _scan_reflexive_magma(m, report, report.ok)
    return report.sorted()


def _scan_reflexive_magma(m: MagmaStructure, report: ValidationReport, base_ok: bool,
                          require_total: bool = True):
    """The magma, reflexive and DIST scans over a base validated once; DIST is
    pure table lookup, so it stays meaningful (and safe) on a failed base."""
    if base_ok:
        _scan_magma(m, report, require_total)
        if m.refl is not None:
            _scan_reflexive(m.refl, report, True, require_total)
    if m.refl is None:
        return
    for (c, d), tab in m.comp.items():
        for l in addable_entries(c, m.base.universe_bound):
            if len(c) + 1 > m.base.dim_bound:
                continue
            refl_tab = m.refl.refl.get((c, l))
            up_tab = m.comp.get((add(c, l), d), {})
            if refl_tab is None:
                continue
            for (a, b), r in tab.items():
                da, db, dr = refl_tab.get(a), refl_tab.get(b), refl_tab.get(r)
                if None in (da, db, dr):
                    continue
                if up_tab.get((da, db)) != dr:
                    report.add("DIST", c, (a, b), f"direction={d} added={l}")
