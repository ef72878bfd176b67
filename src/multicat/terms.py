"""One hash-consed term graph for the strict and weak engines, and the work budget.

A node is a tuple whose children are integer ids, and equal nodes share one
id (hash-consing, Filliâtre & Conchon, ML 2006).  Each id keeps its color
and its size, and its faces sit in columns: per direction d, one list of
source ids and one of target ids, indexed by node id, with ``None`` where d
is not in the node's color.  A new node is made by one constructor,
``_made``, which spends its unit of the construction's ``Budget``, appends
the node to every column and works out its faces: the face rules of
generators, degeneracies, composites, brackets and reversor cells are
written here only.  An engine adds its own work per node in one hook,
``_admit``, which the constructor calls before anything else.
"""

from __future__ import annotations

import os

from .colors import Color, add, minus
from .core import SOURCE, CellId, MultipleSet
from .errors import BudgetExceeded

BUDGET_VARIABLE = "MULTICAT_BUDGET"


def default_budget() -> int:
    """The limit ``MULTICAT_BUDGET`` names, 200000 when it is unset."""
    raw = os.environ.get(BUDGET_VARIABLE, "200000")
    try:
        if (value := int(raw)) >= 0:
            return value
    except ValueError:
        pass
    raise ValueError(f"{BUDGET_VARIABLE} must be an integer >= 0, got {raw!r}")


class Budget:
    """Units of work shared by every phase of one construction."""

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"budget must be an integer >= 0, got {limit}")
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
         | ("br", r, left, right) | ("rev", e, child)

    ``src[d][t]`` and ``tgt[d][t]`` are node t's faces in direction d.
    """

    def __init__(self, generators: MultipleSet, budget: Budget, phase: str):
        self.generators = generators
        self.budget = budget
        self.phase = phase
        self.nodes: list[tuple] = []
        self.memo: dict[tuple, int] = {}
        self.color: list[Color] = []
        self.size: list[int] = []
        directions = range(1, generators.universe_bound + 1)
        self.src: dict[int, list[int | None]] = {d: [] for d in directions}
        self.tgt: dict[int, list[int | None]] = {d: [] for d in directions}
        self._columns = [*self.src.values(), *self.tgt.values()]

    def face(self, nid: int, d: int, pol: str) -> int | None:
        """Node ``nid``'s face in direction ``d``, ``None`` off its color."""
        return (self.src if pol == SOURCE else self.tgt)[d][nid]

    def _admit(self, node: tuple, color: Color, size: int, nid: int):
        """The engine's own work for a new node, before its unit is spent."""

    def gen(self, c: Color, x: CellId) -> int:
        node = ("gen", c, x)
        nid = self.memo.get(node)
        if nid is None:
            nid = self._made(node, c, 1, None, None, self.gen)
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
                             self.src[d][b], self.tgt[d][a], self.comp)
        return nid

    def br(self, r: int, a: int, b: int) -> int:
        nid = self.memo.get(("br", r, a, b))
        if nid is None:
            nid = self._made(("br", r, a, b), add(self.color[a], r),
                             self.size[a] + self.size[b] + 1, a, b, self.br)
        return nid

    def rev(self, e: int, t: int) -> int:
        nid = self.memo.get(("rev", e, t))
        if nid is None:
            nid = self._made(("rev", e, t), self.color[t], self.size[t] + 1,
                             self.tgt[e][t], self.src[e][t], self.rev)
        return nid

    def _made(self, node: tuple, color: Color, size: int, src: int | None, tgt: int | None,
              make) -> int:
        """A new node (kind, entry, *children) whose faces in its entry are
        ``src`` and ``tgt``; in each other direction, ``make`` applied to the
        entry and the children's faces there.  A generator's faces are the
        generators its face tables name.

        The engine hook runs first, so its checks come before the budget
        unit; a construction that runs out of budget is abandoned."""
        nodes = self.nodes
        nid = len(nodes)
        self._admit(node, color, size, nid)
        budget = self.budget
        if budget.used >= budget.limit:
            budget.spend(1, self.phase)  # raises BudgetExceeded
        budget.used += 1
        nodes.append(node)
        self.color.append(color)
        self.size.append(size)
        self.memo[node] = nid
        for column in self._columns:
            column.append(None)
        S, T = self.src, self.tgt
        if node[0] == "gen":
            gens = self.generators
            for d in color:
                below = minus(color, d)
                S[d][nid] = make(below, gens.src[(color, d)][node[2]])
                T[d][nid] = make(below, gens.tgt[(color, d)][node[2]])
            return nid
        entry, a = node[1], node[2]
        S[entry][nid] = src
        T[entry][nid] = tgt
        if len(node) == 3:
            for d in color:
                if d != entry:
                    S[d][nid] = make(entry, S[d][a])
                    T[d][nid] = make(entry, T[d][a])
        else:
            b = node[3]
            for d in color:
                if d != entry:
                    S[d][nid] = make(entry, S[d][a], S[d][b])
                    T[d][nid] = make(entry, T[d][a], T[d][b])
        return nid
