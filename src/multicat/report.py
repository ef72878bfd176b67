"""Machine-readable validation reports.

Validators never raise on axiom failures; every finding becomes a
:class:`Violation` so callers (and the CLI) can show all failures at once.
Reports are canonically sorted, so output does not depend on the order in
which checks ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Violation:
    axiom: str
    color: tuple
    cells: tuple
    detail: str = ""

    def render(self) -> str:
        cells = ",".join(str(c) for c in self.cells)
        out = f"{self.axiom} color={list(self.color)} cells={cells}"
        if self.detail:
            out += f" {self.detail}"
        return out


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    # color -> set of cell ids of the multiple set whose validation began the
    # report, built there once for the scans of the layers above; None where
    # a type in it breaks the document rule, so that no scan may read it
    cells: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom, color, cells, detail=""):
        self.violations.append(Violation(axiom, tuple(color), tuple(cells), detail))

    def sorted(self) -> "ValidationReport":
        found = set(self.violations)
        try:
            ordered = sorted(found)
        except TypeError:  # a table built in code names a cell by a non-string
            ordered = sorted(found, key=lambda v: (v.axiom, v.color, tuple(map(repr, v.cells)),
                                                   v.detail))
        report = ValidationReport(ordered)
        report.cells = self.cells
        return report

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}

    def render(self) -> str:
        return "\n".join(v.render() for v in self.sorted().violations)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {
                    "axiom": v.axiom,
                    "color": list(v.color),
                    "cells": [str(c) for c in v.cells],
                    "detail": v.detail,
                }
                for v in self.sorted().violations
            ],
        }
