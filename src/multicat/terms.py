"""One hash-consed term graph for the strict and weak engines, and the work budget.

A node is a tuple whose children are integer ids, and equal nodes share one
id (hash-consing, Filliâtre & Conchon, ML 2006).  Each id keeps its color,
its size and its face ids, worked out once when the node is made; the face
rules of generators, degeneracies and composites are written here only.
Every new node spends one unit of the construction's ``Budget``.
"""

from __future__ import annotations

import os

from .colors import Color, add, minus
from .core import SOURCE, TARGET, CellId, MultipleSet, face
from .errors import BudgetExceeded


def default_budget() -> int:
    return int(os.environ.get("MULTICAT_BUDGET", "200000"))


class Budget:
    """Units of work shared by every phase of one construction."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int, phase: str):
        """Spend ``n`` units, or raise before spending them when they do not fit."""
        if self.used + n > self.limit:
            raise BudgetExceeded(phase, self.used, n, self.limit)
        self.used += n


def as_budget(budget: int | Budget | None) -> Budget:
    """The budget to spend: a shared one as is, else a fresh one of that limit."""
    if isinstance(budget, Budget):
        return budget
    return Budget(default_budget() if budget is None else budget)


class TermGraph:
    """Interned terms over ``generators``; ``phase`` names them in budget errors.

    node = ("gen", color, id) | ("refl", l, child) | ("comp", d, left, right)
    """

    def __init__(self, generators: MultipleSet, budget: Budget, phase: str):
        self.generators = generators
        self.budget = budget
        self.phase = phase
        self.nodes: list[tuple] = []
        self.memo: dict[tuple, int] = {}
        self.color: list[Color] = []
        self.size: list[int] = []
        self.faces: dict[tuple[int, int, str], int] = {}

    def _new(self, node: tuple, color: Color, size: int) -> int:
        self.budget.spend(1, self.phase)
        nid = len(self.nodes)
        self.nodes.append(node)
        self.color.append(color)
        self.size.append(size)
        self.memo[node] = nid
        return nid

    def gen(self, c: Color, x: CellId) -> int:
        node = ("gen", c, x)
        nid = self.memo.get(node)
        if nid is None:
            nid = self._new(node, c, 1)
            for d in c:
                for pol in (SOURCE, TARGET):
                    fx = face(self.generators, c, x, d, pol)
                    self.faces[(nid, d, pol)] = self.gen(minus(c, d), fx)
        return nid

    def refl(self, l: int, child: int) -> int:
        nid = self.memo.get(("refl", l, child))
        if nid is None:
            nid = self._made(("refl", l, child), add(self.color[child], l),
                             self.size[child] + 1, child, child, self.refl)
        return nid

    def comp(self, d: int, a: int, b: int) -> int:
        nid = self.memo.get(("comp", d, a, b))
        if nid is None:
            nid = self._made(("comp", d, a, b), self.color[a], self.size[a] + self.size[b] + 1,
                             self.faces[(b, d, SOURCE)], self.faces[(a, d, TARGET)], self.comp)
        return nid

    def _made(self, node: tuple, color: Color, size: int, src: int, tgt: int, make) -> int:
        """A new node (kind, entry, *children) whose faces in its entry are
        ``src`` and ``tgt``; in each other direction, ``make`` applied to the
        entry and the children's faces there."""
        nid = self._new(node, color, size)
        entry, children, faces = node[1], node[2:], self.faces
        faces[(nid, entry, SOURCE)] = src
        faces[(nid, entry, TARGET)] = tgt
        for d in color:
            if d != entry:
                for pol in (SOURCE, TARGET):
                    faces[(nid, d, pol)] = make(entry, *[faces[(ch, d, pol)] for ch in children])
        return nid
