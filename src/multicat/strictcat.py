"""Strict multiple categories and their free construction.

Validation covers associativity, the unit equations and middle-four
interchange on top of the magma and reflexive layers.  The free strict
category on a multiple set is presented by a term algebra (generators,
degeneracies, composites) modulo the congruence the axioms generate.
Equality is decided by congruence closure over all terms materialized
within a node-count bound; completeness is relative to that bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .colors import Color, add, addable_entries, minus
from .core import SOURCE, TARGET, CellId, MultipleSet, face, validate_multiple_set
from .errors import BoundsTooSmall, BudgetExceeded, InvalidBase, TermNotMaterialized
from .magma import MagmaStructure, _scan_reflexive_magma, composable_pairs
from .reflexive import ReflexiveStructure, admissible_refl_keys
from .report import ValidationReport

# a strict category is a magma over a reflexive structure whose tables
# satisfy associativity, units and interchange; there is no separate class
StrictCategory = MagmaStructure


def default_budget() -> int:
    return int(os.environ.get("MULTICAT_BUDGET", "200000"))


def validate_strict(m: StrictCategory) -> ValidationReport:
    """ASSOC, UNIT and MFI on top of the lower layers, each checked once."""
    report = validate_multiple_set(m.base)
    base_ok = report.ok
    _scan_reflexive_magma(m, report, base_ok)
    if m.refl is None:
        report.add("TOTAL", (), (), "no reflexive structure attached")
    elif base_ok:
        _scan_strict(m, report)
    return report.sorted()


def _scan_strict(m: StrictCategory, report: ValidationReport):
    """The strictness scans, appended to ``report``; the base must be valid."""
    ms = m.base
    for (c, d), tab in m.comp.items():
        # ASSOC: (a*b)*e == a*(b*e) whenever all composites are defined
        for (a, b), ab in tab.items():
            for (x, e), xe in tab.items():
                if x != b:
                    continue
                left = tab.get((ab, e))
                right = tab.get((a, xe))
                if left is not None and right is not None and left != right:
                    report.add("ASSOC", c, (a, b, e), f"direction={d}")
        # UNIT: a * 1(s(a)) == a and 1(t(a)) * a == a
        refl_tab = m.refl.refl.get((minus(c, d), d), {})
        for a in ms.cells_at(c):
            us = refl_tab.get(face(ms, c, a, d, SOURCE))
            ut = refl_tab.get(face(ms, c, a, d, TARGET))
            if us is not None and tab.get((a, us)) != a:
                report.add("UNIT", c, (a,), f"direction={d} side=right")
            if ut is not None and tab.get((ut, a)) != a:
                report.add("UNIT", c, (a,), f"direction={d} side=left")

    # MFI: (a *_j b) *_k (p *_j q) == (a *_k p) *_j (b *_k q)
    for (c, j), jtab in m.comp.items():
        for k in c:
            if k == j:
                continue
            ktab = m.comp.get((c, k), {})
            for (a, b), ab in jtab.items():
                for (p, q), pq in jtab.items():
                    lhs = ktab.get((ab, pq))
                    if lhs is None:
                        continue
                    ap = ktab.get((a, p))
                    bq = ktab.get((b, q))
                    if ap is None or bq is None:
                        continue
                    rhs = jtab.get((ap, bq))
                    if rhs is not None and lhs != rhs:
                        report.add("MFI", c, (a, b, p, q), f"directions=({j},{k})")


class _UnionFind:
    def __init__(self):
        self.parent: list[int] = []

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass
class StrictPresentation:
    generators: MultipleSet
    dim_bound: int
    size_bound: int
    budget: int
    # interned term graph; node = ("gen", color, id) | ("refl", l, child)
    # | ("comp", d, left, right) with children as node indices
    nodes: list[tuple] = field(default_factory=list)
    color: list[Color] = field(default_factory=list)
    size: list[int] = field(default_factory=list)
    memo: dict[tuple, int] = field(default_factory=dict)
    faces: dict[tuple[int, int, str], int] = field(default_factory=dict)
    uf: _UnionFind = field(default_factory=_UnionFind)

    # -- interning ---------------------------------------------------------

    def _new(self, node: tuple, color: Color, size: int) -> int:
        if len(self.nodes) >= self.budget:
            raise BudgetExceeded(f"presentation exceeded {self.budget} nodes")
        nid = self.uf.make()
        self.nodes.append(node)
        self.color.append(color)
        self.size.append(size)
        self.memo[node] = nid
        return nid

    def intern_gen(self, c: Color, x: CellId) -> int:
        node = ("gen", c, x)
        if node in self.memo:
            return self.memo[node]
        nid = self._new(node, c, 1)
        for d in c:
            for pol in (SOURCE, TARGET):
                fx = face(self.generators, c, x, d, pol)
                self.faces[(nid, d, pol)] = self.intern_gen(minus(c, d), fx)
        return nid

    def intern_refl(self, l: int, child: int) -> int:
        node = ("refl", l, child)
        if node in self.memo:
            return self.memo[node]
        c = add(self.color[child], l)
        nid = self._new(node, c, self.size[child] + 1)
        for d in c:
            if d == l:
                self.faces[(nid, d, SOURCE)] = child
                self.faces[(nid, d, TARGET)] = child
            else:
                for pol in (SOURCE, TARGET):
                    self.faces[(nid, d, pol)] = self.intern_refl(
                        l, self.faces[(child, d, pol)]
                    )
        return nid

    def intern_comp(self, d: int, a: int, b: int) -> int:
        node = ("comp", d, a, b)
        if node in self.memo:
            return self.memo[node]
        c = self.color[a]
        nid = self._new(node, c, self.size[a] + self.size[b] + 1)
        self.faces[(nid, d, SOURCE)] = self.faces[(b, d, SOURCE)]
        self.faces[(nid, d, TARGET)] = self.faces[(a, d, TARGET)]
        for e in c:
            if e == d:
                continue
            for pol in (SOURCE, TARGET):
                self.faces[(nid, e, pol)] = self.intern_comp(
                    d, self.faces[(a, e, pol)], self.faces[(b, e, pol)]
                )
        return nid

    # -- classes -----------------------------------------------------------

    def class_members(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for nid in range(len(self.nodes)):
            out.setdefault(self.uf.find(nid), []).append(nid)
        return out

    def render(self, nid: int) -> str:
        node = self.nodes[nid]
        if node[0] == "gen":
            return node[2]
        if node[0] == "refl":
            return f"1[{node[1]}]({self.render(node[2])})"
        return f"({self.render(node[2])} *{node[1]} {self.render(node[3])})"

    def rep_of(self, members: list[int]) -> int:
        return min(members, key=lambda n: (self.size[n], self.render(n)))

    def class_face(self, nid: int, d: int, pol: str) -> int:
        return self.uf.find(self.faces[(nid, d, pol)])

    def _indexes(self):
        """Signature indexes over current classes (roots as values)."""
        refl_by: dict[tuple[int, int], int] = {}
        comp_by: dict[tuple[int, int, int], int] = {}
        for nid, node in enumerate(self.nodes):
            if node[0] == "refl":
                refl_by[(node[1], self.uf.find(node[2]))] = self.uf.find(nid)
            elif node[0] == "comp":
                key = (node[1], self.uf.find(node[2]), self.uf.find(node[3]))
                comp_by[key] = self.uf.find(nid)
        return refl_by, comp_by

    # -- saturation --------------------------------------------------------

    def _saturate_round(self) -> bool:
        changed = False
        members = self.class_members()

        # face congruence: equal cells have equal faces
        for root, mems in members.items():
            c = self.color[mems[0]]
            for d in c:
                for pol in (SOURCE, TARGET):
                    roots = {self.class_face(n, d, pol) for n in mems}
                    first = next(iter(roots))
                    for r in roots:
                        changed |= self.uf.union(first, r)

        # signature congruence
        sig: dict[tuple, int] = {}
        for nid, node in enumerate(self.nodes):
            if node[0] == "gen":
                key = node
            elif node[0] == "refl":
                key = ("refl", node[1], self.uf.find(node[2]))
            else:
                key = ("comp", node[1], self.uf.find(node[2]), self.uf.find(node[3]))
            if key in sig:
                changed |= self.uf.union(sig[key], nid)
            else:
                sig[key] = nid

        refl_by, comp_by = self._indexes()
        comp_members: dict[int, list[tuple]] = {}
        refl_members: dict[int, list[tuple]] = {}
        comp_by_colordir: dict[tuple[Color, int], list[int]] = {}
        for nid, node in enumerate(self.nodes):
            if node[0] == "comp":
                comp_members.setdefault(self.uf.find(nid), []).append(node)
                comp_by_colordir.setdefault((self.color[nid], node[1]), []).append(nid)
            elif node[0] == "refl":
                refl_members.setdefault(self.uf.find(nid), []).append(node)

        find = self.uf.find
        for nid, node in enumerate(self.nodes):
            if node[0] == "comp":
                _, d, a, b = node
                # UNIT
                sd = self.class_face(a, d, SOURCE)
                if find(b) == refl_by.get((d, sd), -1):
                    changed |= self.uf.union(nid, a)
                td = self.class_face(b, d, TARGET)
                if find(a) == refl_by.get((d, td), -1):
                    changed |= self.uf.union(nid, b)
                # ASSOC: a ~ (x *_d y)  =>  (a*b) ~ x*(y*b)
                for mem in comp_members.get(find(a), ()):
                    if mem[1] != d:
                        continue
                    inner = comp_by.get((d, find(mem[3]), find(b)))
                    if inner is None:
                        continue
                    outer = comp_by.get((d, find(mem[2]), inner))
                    if outer is not None:
                        changed |= self.uf.union(nid, outer)
                # MFI: nid = (a *_j b); pair with (p *_j q) along k
                j = d
                for k in self.color[nid]:
                    if k == j:
                        continue
                    for other in comp_by_colordir.get((self.color[nid], j), ()):
                        onode = self.nodes[other]
                        lhs = comp_by.get((k, find(nid), find(other)))
                        if lhs is None:
                            continue
                        ap = comp_by.get((k, find(a), find(onode[2])))
                        bq = comp_by.get((k, find(b), find(onode[3])))
                        if ap is None or bq is None:
                            continue
                        rhs = comp_by.get((j, ap, bq))
                        if rhs is not None:
                            changed |= self.uf.union(lhs, rhs)
            elif node[0] == "refl":
                _, l, ch = node
                # DIST: 1_l(x *_d y) ~ 1_l(x) *_d 1_l(y)
                for mem in comp_members.get(find(ch), ()):
                    rx = refl_by.get((l, find(mem[2])))
                    ry = refl_by.get((l, find(mem[3])))
                    if rx is None or ry is None:
                        continue
                    c2 = comp_by.get((mem[1], rx, ry))
                    if c2 is not None:
                        changed |= self.uf.union(nid, c2)
                # EXCH: 1_l(1_k(x)) ~ 1_k(1_l(x))
                for mem in refl_members.get(find(ch), ()):
                    inner = refl_by.get((l, find(mem[2])))
                    if inner is None:
                        continue
                    other = refl_by.get((mem[1], inner))
                    if other is not None:
                        changed |= self.uf.union(nid, other)
        return changed

    def saturate(self):
        while self._saturate_round():
            pass

    def _materialize_round(self) -> bool:
        before = len(self.nodes)
        members = self.class_members()
        reps = {root: self.rep_of(mems) for root, mems in members.items()}
        by_color: dict[Color, list[int]] = {}
        for root, rep in reps.items():
            by_color.setdefault(self.color[rep], []).append(rep)

        D = self.generators.universe_bound
        for c, rep_list in sorted(by_color.items(), key=lambda kv: (len(kv[0]), kv[0])):
            for rep in rep_list:
                if len(c) + 1 <= self.dim_bound and self.size[rep] + 1 <= self.size_bound:
                    for l in addable_entries(c, D):
                        self.intern_refl(l, rep)
            for d in c:
                for a in rep_list:
                    for b in rep_list:
                        if self.size[a] + self.size[b] + 1 > self.size_bound:
                            continue
                        if self.class_face(a, d, SOURCE) == self.class_face(b, d, TARGET):
                            self.intern_comp(d, a, b)
        return len(self.nodes) > before

    # -- queries -----------------------------------------------------------

    def class_of_term(self, term) -> int:
        """Class root for a term given as nested ('gen'|'refl'|'comp', ...) tuples."""
        refl_by, comp_by = self._indexes()
        return self._class_of(term, refl_by, comp_by)

    def _class_of(self, term, refl_by, comp_by) -> int:
        kind = term[0]
        if kind == "gen":
            node = ("gen", tuple(term[1]), term[2])
            if node not in self.memo:
                raise TermNotMaterialized(f"generator {term!r} not in presentation")
            return self.uf.find(self.memo[node])
        if kind == "refl":
            child = self._class_of(term[2], refl_by, comp_by)
            got = refl_by.get((term[1], child))
        else:
            a = self._class_of(term[2], refl_by, comp_by)
            b = self._class_of(term[3], refl_by, comp_by)
            got = comp_by.get((term[1], a, b))
        if got is None:
            raise TermNotMaterialized(f"term {term!r} not materialized")
        return self.uf.find(got)

    def class_counts(self) -> dict[Color, int]:
        out: dict[Color, int] = {}
        for root in self.class_members():
            c = self.color[root]
            out[c] = out.get(c, 0) + 1
        return out


def term_equal(p: StrictPresentation, t1, t2) -> bool:
    return p.class_of_term(t1) == p.class_of_term(t2)


def free_strict(
    ms: MultipleSet,
    dim_bound: int,
    size_bound: int,
    budget: int | None = None,
) -> StrictPresentation:
    """Free strict category on ``ms``, truncated by dimension and term size."""
    if not validate_multiple_set(ms).ok:
        raise InvalidBase("generating multiple set does not validate")
    if dim_bound < ms.dim_bound:
        raise InvalidBase(f"dim bound {dim_bound} below base bound {ms.dim_bound}")
    p = StrictPresentation(
        generators=ms,
        dim_bound=dim_bound,
        size_bound=size_bound,
        budget=budget if budget is not None else default_budget(),
    )
    for c in ms.colors():
        for x in ms.cells_at(c):
            p.intern_gen(c, x)
    while True:
        p.saturate()
        if not p._materialize_round():
            break
    return p


def unit_map(p: StrictPresentation) -> dict[tuple[Color, CellId], str]:
    """The generator embedding, as (color, generator) -> class representative."""
    members = p.class_members()
    reps = {root: p.render(p.rep_of(mems)) for root, mems in members.items()}
    out = {}
    for c in p.generators.colors():
        for x in p.generators.cells_at(c):
            out[(c, x)] = reps[p.uf.find(p.memo[("gen", c, x)])]
    return out


def quotient_to_category(p: StrictPresentation) -> StrictCategory:
    """Tabulate the classes as a strict category.

    Raises BoundsTooSmall when a composable class pair has no materialized
    composite or a degeneracy was never built.
    """
    members = p.class_members()
    reps = {root: p.rep_of(mems) for root, mems in members.items()}
    names = {root: p.render(rep) for root, rep in reps.items()}

    base = MultipleSet(p.generators.universe_bound, p.dim_bound)
    by_color: dict[Color, list[int]] = {}
    for root, rep in reps.items():
        by_color.setdefault(p.color[rep], []).append(root)
    for c, roots in by_color.items():
        base.cells[c] = sorted(names[r] for r in roots)

    root_of_name = {names[r]: r for r in reps}
    for c, roots in by_color.items():
        for d in c:
            stab, ttab = {}, {}
            for r in roots:
                rep = reps[r]
                stab[names[r]] = names[p.class_face(rep, d, SOURCE)]
                ttab[names[r]] = names[p.class_face(rep, d, TARGET)]
            base.src[(c, d)] = stab
            base.tgt[(c, d)] = ttab

    refl_by, comp_by = p._indexes()
    refl = ReflexiveStructure(base=base)
    for c, l in admissible_refl_keys(base):
        tab = {}
        for name in base.cells_at(c):
            got = refl_by.get((l, root_of_name[name]))
            if got is None:
                raise BoundsTooSmall(
                    f"degeneracy 1[{l}] of {name!r} at {list(c)} not materialized"
                )
            tab[name] = names[p.uf.find(got)]
        refl.refl[(c, l)] = tab

    cat = MagmaStructure(base=base, refl=refl)
    for c in base.colors():
        for d in c:
            tab = {}
            for a, b in composable_pairs(base, c, d):
                got = comp_by.get((d, root_of_name[a], root_of_name[b]))
                if got is None:
                    raise BoundsTooSmall(
                        f"composite of ({a!r}, {b!r}) in direction {d} at {list(c)}"
                        " not materialized; raise the size bound"
                    )
                tab[(a, b)] = names[p.uf.find(got)]
            cat.comp[(c, d)] = tab
    return cat
