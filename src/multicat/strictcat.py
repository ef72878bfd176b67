"""Strict multiple categories and their free construction.

Validation covers associativity, the unit equations and middle-four
interchange on top of the magma and reflexive layers.  The free strict
category on a multiple set is presented by a term algebra (generators,
degeneracies, composites) modulo the congruence the axioms generate.
Equality is decided by congruence closure over all terms materialized
within a node-count bound; completeness is relative to that bound.

Terms live in the term graph of ``multicat.terms``: one constructor per new
node spends its budget unit and writes its faces into per-direction
columns, and the presentation's one hook on it, ``_admit``, puts the node
in its class.  The matcher, the rebuild and the materialization read the
face columns directly.  The closure is an e-graph in the style of egg
(Willsey et al., POPL 2021): each class keeps its deduplicated canonical
e-nodes -- a term node with class roots as children -- and the e-nodes that
use it as a child.  The hash-cons maps every e-node to its class root at all
times: a union points the absorbed class's e-nodes at the surviving root as
it moves them, so a lookup needs no ``find`` on its result.  Unions go on a
worklist, and a rebuild re-keys only the users of merged classes (signature
congruence) and unions the faces of merged classes (face congruence).  UNIT,
ASSOC, MFI, DIST and EXCH match over canonical e-nodes and are not matched
again until an e-node is added or two classes merge.  A match returns only
the instances whose two classes differ: classes only merge, so the others
could never merge anything.
``StrictPresentation.matched`` counts the instances of each rule a match
returned, and ``StrictPresentation.unions`` the successful unions of each
rule.  Materialization composes class representatives that fit the size
bound and whose faces meet, found by sorting them by size and bucketing them
by face.  Each round asks only for what no earlier round made: degeneracies
of new representatives, and pairs with at least one operand that is new or
whose face class in its role has changed since the last round.

Nodes are made only while the classes are closed under congruence: the
generators before any union, everything else after ``saturate``.  So a new
node congruent to an e-node joins that e-node's class in place, in the hook
(a signature union that allocates nothing and queues no rebuild): its faces
already lie in the classes of the e-node's faces.

A term's name depends only on its node.  The presentation keeps the names
of representatives and of their subterms, each rendered once, in one cache
that representatives, ``unit_map`` and ``quotient_to_category`` share; a
member that loses a tie for representative is spelled from its children's
kept names, and its name is dropped.
"""

from __future__ import annotations

from .colors import Color, addable_entries, minus
from .core import SOURCE, TARGET, CellId, Layer, MultipleSet, check, int_problem, validate_multiple_set
from .errors import BoundsTooSmall, InvalidBase, TermNotMaterialized
from .magma import REFLEXIVE_MAGMA, MagmaStructure, _pullback
from .reflexive import ReflexiveStructure, admissible_refl_keys
from .report import ValidationReport
from .terms import Budget, TermGraph, as_budget

class StrictCategory(MagmaStructure):
    """A magma over a reflexive structure that is meant to satisfy
    associativity, units and interchange: ``validate_strict`` checks them.
    It adds no fields; the type carries the document kind ``strict``."""


def validate_strict(m: StrictCategory) -> ValidationReport:
    """ASSOC, UNIT and MFI on top of the lower layers, each checked once; a
    layer that breaks the document rule is reported alone."""
    return check(m, STRICT)


def _scan_strict(m: StrictCategory, report: ValidationReport, faces_ok: bool):
    """The strictness scans over a valid base; UNIT only where degeneracies
    are attached.

    ASSOC pairs each entry with the entries whose left operand is its right
    operand; MFI pairs the j-entries whose composites are the operands of a
    k-entry.  These are exactly the pairs of the full quadratic scans that
    can report anything.
    """
    ms, refl = m.base, m.refl.refl if m.refl is not None else {}
    for (c, d), tab in m.comp.items():
        # ASSOC: (a*b)*e == a*(b*e) whenever all composites are defined
        by_left: dict[CellId, list[tuple[CellId, CellId]]] = {}
        for (x, e), xe in tab.items():
            by_left.setdefault(x, []).append((e, xe))
        get, right_of = tab.get, by_left.get
        for triple in [(a, b, e) for (a, b), ab in tab.items() for e, be in right_of(b, ())
                       if (left := get((ab, e))) is not None and get((a, be), left) != left]:
            report.add("ASSOC", c, triple, f"direction={d}")
        # UNIT: a * 1(s(a)) == a and 1(t(a)) * a == a; the magma scan
        # reports a table keyed by a direction outside its color
        refl_tab = refl.get((minus(c, d), d)) if d in c else None
        if not refl_tab:
            continue
        unit = refl_tab.get
        stab, ttab = ms.table(SOURCE, c, d), ms.table(TARGET, c, d)
        cells = ms.cells_at(c)
        for a in [a for a in cells if (u := unit(stab[a])) is not None and get((a, u)) != a]:
            report.add("UNIT", c, (a,), f"direction={d} side=right")
        for a in [a for a in cells if (u := unit(ttab[a])) is not None and get((u, a)) != a]:
            report.add("UNIT", c, (a,), f"direction={d} side=left")

    # MFI: (a *_j b) *_k (p *_j q) == (a *_k p) *_j (b *_k q)
    for (c, j), jtab in m.comp.items():
        by_composite: dict[CellId, list[tuple[CellId, CellId]]] = {}
        for pair, ab in jtab.items():
            by_composite.setdefault(ab, []).append(pair)
        for k in c:
            if k == j:
                continue
            ktab = m.comp.get((c, k), {})
            for (ab, pq), lhs in ktab.items():
                for a, b in by_composite.get(ab, ()):
                    for p, q in by_composite.get(pq, ()):
                        ap = ktab.get((a, p))
                        bq = ktab.get((b, q))
                        if ap is None or bq is None:
                            continue
                        rhs = jtab.get((ap, bq))
                        if rhs is not None and lhs != rhs:
                            report.add("MFI", c, (a, b, p, q), f"directions=({j},{k})")


STRICT = REFLEXIVE_MAGMA + (Layer(_scan_strict, True),)


class _UnionFind:
    def __init__(self):
        # node id -> its parent; a new node is its own root or, when it is
        # congruent to an e-node, a child of that e-node's root
        self.parent: list[int] = []

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x


RULES = ("face", "signature", "UNIT", "ASSOC", "MFI", "DIST", "EXCH")


class StrictPresentation(TermGraph):
    """The term graph of a free strict category and the e-graph over its classes.

    An e-node is a node tuple whose children are class roots.  After a
    rebuild the keys of ``hashcons`` are exactly the e-nodes.  Every key is
    mapped to its class root, also between rebuilds.  Per class root: its
    e-nodes, the (e-node, class) pairs that use it as a child, and its
    members of least size.  New nodes may be made only while no union waits
    for a rebuild.
    """

    def __init__(self, generators: MultipleSet, dim_bound: int, size_bound: int,
                 budget: Budget):
        super().__init__(generators, budget, "strict closure")
        self.dim_bound = dim_bound
        self.size_bound = size_bound
        self.uf = _UnionFind()
        self.hashcons: dict[tuple, int] = {}
        self.enodes: dict[int, list[tuple]] = {}
        self.uses: dict[int, list[tuple[tuple, int]]] = {}
        self.smallest: dict[int, list[int]] = {}
        # a term's name depends only on its node; kept only for
        # representatives and their subterms, each rendered once
        self.names: dict[int, str] = {}
        # successful unions per rule; they sum to len(nodes) minus the classes
        self.unions: dict[str, int] = dict.fromkeys(RULES, 0)
        # the instances of each axiom rule that ``_match`` returned
        self.matched: dict[str, int] = dict.fromkeys(RULES[2:], 0)
        # each representative of the last materialization round -> its face
        # class roots then, (source, target) per direction of its color
        self.rep_faces: dict[int, tuple[int, ...]] = {}
        # the rebuild worklist: classes absorbed, and the roots that took over
        # some absorbed class's uses and so must re-key them
        self.absorbed: list[int] = []
        self.repair: list[int] = []
        # matching again would find nothing: since a match made no union, no
        # e-node was added and no two classes that own e-nodes merged
        self.closed = False

    def _admit(self, node: tuple, color: Color, size: int, nid: int):
        """The class of a new node: it joins the class of an e-node it is
        congruent to, in place, its faces already lying in the classes of
        that e-node's faces; else it is an e-node and a class of its own.
        The children's roots are found inline, by path halving as in
        ``find``; the hash-cons gives the e-node's root itself."""
        parent = self.uf.parent
        kind = node[0]
        if kind == "gen":
            key = node
        else:
            a = node[2]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            if len(node) == 3:
                key = (kind, node[1], a)
            else:
                b = node[3]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                key = (kind, node[1], a, b)
        root = self.hashcons.get(key)
        if root is not None:
            parent.append(root)
            self.unions["signature"] += 1
            have = self.smallest[root]
            least = self.size[have[0]]
            if size < least:
                self.smallest[root] = [nid]
            elif size == least:
                have.append(nid)
            return
        parent.append(nid)
        self.hashcons[key] = nid
        self.enodes[nid] = [key]
        self.uses[nid] = []
        self.smallest[nid] = [nid]
        self.closed = False
        if kind != "gen":
            use = (key, nid)
            self.uses[a].append(use)
            if len(key) == 4 and b != a:
                self.uses[b].append(use)

    # -- classes -----------------------------------------------------------

    def _canon(self, node: tuple) -> tuple:
        find = self.uf.find
        if node[0] == "comp":
            return ("comp", node[1], find(node[2]), find(node[3]))
        if node[0] == "refl":
            return ("refl", node[1], find(node[2]))
        return node

    def union(self, a: int, b: int, rule: str) -> bool:
        ra, rb = self.uf.find(a), self.uf.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.uf.parent[rb] = ra
        self.unions[rule] += 1
        keep, gone = self.enodes[ra], self.enodes.pop(rb)
        if keep and gone:
            self.closed = False
        # the hash-cons maps every e-node to its class root
        hashcons = self.hashcons
        for key in gone:
            hashcons[key] = ra
        if len(keep) < len(gone):
            keep, gone = gone, keep
            self.enodes[ra] = keep
        keep.extend(gone)
        gone = self.uses.pop(rb)
        if gone:
            self.uses[ra].extend(gone)
            self.repair.append(ra)
        self._keep_smallest(ra, self.smallest.pop(rb))
        self.absorbed.append(rb)
        return True

    def _keep_smallest(self, root: int, low: list[int]):
        """Merge ``low``, the members of least size of what joins ``root``'s
        class, into the root's."""
        have = self.smallest[root]
        if self.size[low[0]] < self.size[have[0]]:
            self.smallest[root] = low
        elif self.size[low[0]] == self.size[have[0]]:
            have.extend(low)

    def _render(self, nid: int) -> str:
        """The term's name, rendered once and kept in ``names``, which holds
        the names of representatives and of their subterms."""
        name = self.names.get(nid)
        if name is None:
            name = self.names[nid] = self._spell(nid)
        return name

    def _spell(self, nid: int) -> str:
        """The term's name from its children's kept names; it is not kept."""
        node = self.nodes[nid]
        if node[0] == "gen":
            return node[2]
        if node[0] == "refl":
            return f"1[{node[1]}]({self._render(node[2])})"
        return f"({self._render(node[2])} *{node[1]} {self._render(node[3])})"

    def representatives(self) -> dict[int, int]:
        """Class root -> its member of least size, then least rendered name.

        A tie spells every member it has not kept the name of and keeps
        only the winner's name."""
        reps = {}
        names, spell = self.names, self._spell
        for root, low in self.smallest.items():
            if len(low) > 1:
                spelled = [name if (name := names.get(m)) is not None else spell(m)
                           for m in low]
                least = min(spelled)
                win = low[spelled.index(least)]
                names[win] = least
                # the losers of a tie never win a later one: drop them
                low[:] = [win]
            reps[root] = low[0]
        return reps

    def class_face(self, nid: int, d: int, pol: str) -> int:
        return self.uf.find(self.face(nid, d, pol))

    # -- saturation --------------------------------------------------------

    def _rebuild(self):
        """Close the pending unions under face and signature congruence."""
        find, union, S, T = self.uf.find, self.union, self.src, self.tgt
        rekeyed: set[int] = set()
        while self.absorbed:
            absorbed, self.absorbed = self.absorbed, []
            for rb in absorbed:
                # face congruence: equal cells have equal faces
                ra = find(rb)
                for d in self.color[rb]:
                    union(S[d][rb], S[d][ra], "face")
                    union(T[d][rb], T[d][ra], "face")
            # signature congruence: e-nodes that use a merged class and now
            # have the same children are equal; they are merged once every
            # repair of this batch is done, so the roots stay roots meanwhile
            congruent = []
            for root in {find(r) for r in self.repair}:
                fresh: dict[tuple, int] = {}
                for key, cls in self.uses[root]:
                    canon = self._canon(key)
                    if canon != key:
                        rekeyed.add(cls)
                    if canon in fresh:
                        congruent.append((cls, fresh[canon]))
                    else:
                        fresh[canon] = cls
                self.uses[root] = list(fresh.items())
            self.repair = []
            for a, b in congruent:
                self.union(a, b, "signature")
        # re-key the e-nodes of the classes touched, dropping duplicates
        hashcons = self.hashcons
        for root in {find(r) for r in rekeyed}:
            ens = {}
            for key in self.enodes[root]:
                canon = self._canon(key)
                if canon != key:
                    del hashcons[key]
                ens[canon] = None
                hashcons[canon] = root
            self.enodes[root] = list(ens)

    def _match(self) -> list[tuple[str, int, int]]:
        """Every rule instance over the canonical e-nodes whose two classes
        differ, as unions to make.  Classes only merge, so an instance left
        out would merge nothing later in the batch either.  A hash-cons
        lookup gives a class root, which is compared and combined as it is."""
        find = self.uf.find
        get = self.hashcons.get
        enodes = self.enodes
        S, T = self.src, self.tgt
        out = []
        for root, ens in enodes.items():
            for node in ens:
                if node[0] == "comp":
                    _, d, a, b = node
                    # UNIT: a * 1(s(a)) == a and 1(t(b)) * b == b
                    if a != root and get(("refl", d, find(S[d][a]))) == b:
                        out.append(("UNIT", root, a))
                    if b != root and get(("refl", d, find(T[d][b]))) == a:
                        out.append(("UNIT", root, b))
                    for left in enodes[a]:
                        if left[0] != "comp":
                            continue
                        if left[1] == d:
                            # ASSOC: a ~ (x *_d y)  =>  (a*b) ~ x*(y*b)
                            inner = get(("comp", d, left[3], b))
                            if inner is None:
                                continue
                            outer = get(("comp", d, left[2], inner))
                            if outer is not None and outer != root:
                                out.append(("ASSOC", root, outer))
                            continue
                        # MFI: node = (x *_j y) *_d (p *_j q)
                        _, j, x, y = left
                        for right in enodes[b]:
                            if right[0] != "comp" or right[1] != j:
                                continue
                            xp = get(("comp", d, x, right[2]))
                            yq = get(("comp", d, y, right[3]))
                            if xp is None or yq is None:
                                continue
                            rhs = get(("comp", j, xp, yq))
                            if rhs is not None and rhs != root:
                                out.append(("MFI", root, rhs))
                elif node[0] == "refl":
                    _, l, ch = node
                    for inner in enodes[ch]:
                        if inner[0] == "comp":
                            # DIST: 1_l(x *_d y) ~ 1_l(x) *_d 1_l(y)
                            rx = get(("refl", l, inner[2]))
                            ry = get(("refl", l, inner[3]))
                            if rx is None or ry is None:
                                continue
                            other = get(("comp", inner[1], rx, ry))
                            if other is not None and other != root:
                                out.append(("DIST", root, other))
                        elif inner[0] == "refl":
                            # EXCH: 1_l(1_k(x)) ~ 1_k(1_l(x))
                            lx = get(("refl", l, inner[2]))
                            if lx is None:
                                continue
                            other = get(("refl", inner[1], lx))
                            if other is not None and other != root:
                                out.append(("EXCH", root, other))
        return out

    def saturate(self):
        """Close the classes under the congruence the axioms generate."""
        self._rebuild()
        matched = self.matched
        while not self.closed:
            self.closed = True
            for rule, a, b in self._match():
                matched[rule] += 1
                self.union(a, b, rule)
            self._rebuild()

    def _materialize_round(self) -> bool:
        """Degeneracies and composites of representatives within the bounds.

        What an earlier round made is not asked for again.  A representative
        of the last round already has its degeneracies.  It is *old* as a
        left operand in a direction when its source class there is the same
        as then, and as a right operand when its target class is: a pair of
        two old operands was composed then, so each old left operand walks
        only the new right operands of its bucket.  The nodes made, and
        their order, are those of composing every fitting pair."""
        before = len(self.nodes)
        by_color: dict[Color, list[int]] = {}
        for rep in self.representatives().values():
            by_color.setdefault(self.color[rep], []).append(rep)

        then, now = self.rep_faces, {}
        self.rep_faces = now
        find, size, S, T = self.uf.find, self.size, self.src, self.tgt
        D = self.generators.universe_bound
        for c, rep_list in sorted(by_color.items(), key=lambda kv: (len(kv[0]), kv[0])):
            if len(c) + 1 <= self.dim_bound:
                entries = addable_entries(c, D)
                for rep in rep_list:
                    if rep not in then and size[rep] + 1 <= self.size_bound:
                        for l in entries:
                            self.refl(l, rep)
            # only pairs within the size bound whose faces meet are composed
            ranked = sorted(rep_list, key=size.__getitem__)
            for rep in ranked:
                now[rep] = tuple([find(col[d][rep]) for d in c for col in (S, T)])
            for i, d in enumerate(c):
                s, t = 2 * i, 2 * i + 1
                by_target: dict[int, list[int]] = {}
                new_by_target: dict[int, list[int]] = {}
                for b in ranked:
                    key = now[b][t]
                    by_target.setdefault(key, []).append(b)
                    old = then.get(b)
                    if old is None or old[t] != key:
                        new_by_target.setdefault(key, []).append(b)
                for a in ranked:
                    key = now[a][s]
                    old = then.get(a)
                    bucket = by_target if old is None or old[s] != key else new_by_target
                    room = self.size_bound - size[a] - 1
                    for b in bucket.get(key, ()):
                        if size[b] > room:
                            break
                        self.comp(d, a, b)
        return len(self.nodes) > before

    # -- queries -----------------------------------------------------------

    def class_of_term(self, term) -> int:
        """Class root for a term given as nested ('gen'|'refl'|'comp', ...) tuples."""
        kind = term[0]
        if kind == "gen":
            key = ("gen", tuple(term[1]), term[2])
        elif kind == "refl":
            key = ("refl", term[1], self.class_of_term(term[2]))
        else:
            key = ("comp", term[1], self.class_of_term(term[2]), self.class_of_term(term[3]))
        got = self.hashcons.get(key)
        if got is None:
            raise TermNotMaterialized(f"term {term!r} not materialized")
        return got

    def class_counts(self) -> dict[Color, int]:
        out: dict[Color, int] = {}
        for root in self.enodes:
            c = self.color[root]
            out[c] = out.get(c, 0) + 1
        return out


def term_equal(p: StrictPresentation, t1, t2) -> bool:
    return p.class_of_term(t1) == p.class_of_term(t2)


def free_strict(
    ms: MultipleSet,
    dim_bound: int,
    size_bound: int,
    budget: int | Budget | None = None,
) -> StrictPresentation:
    """Free strict category on ``ms``, truncated by dimension and term size.

    Every interned term spends one unit of ``budget`` (an int, a ``Budget``
    shared with other phases, or ``None`` for ``MULTICAT_BUDGET``).  A bound
    that is not an integer >= 0 is a ValueError.
    """
    if not validate_multiple_set(ms).ok:
        raise InvalidBase("generating multiple set does not validate")
    for arg, value in (("dim_bound", dim_bound), ("size_bound", size_bound)):
        if (problem := int_problem(value, arg, 0)) is not None:
            raise ValueError(problem)
    if dim_bound < ms.dim_bound:
        raise InvalidBase(f"dim bound {dim_bound} below base bound {ms.dim_bound}")
    p = StrictPresentation(ms, dim_bound, size_bound, as_budget(budget))
    for c in ms.colors():
        for x in ms.cells_at(c):
            p.gen(c, x)
    while True:
        p.saturate()
        if not p._materialize_round():
            break
    return p


def unit_map(p: StrictPresentation) -> dict[tuple[Color, CellId], str]:
    """The generator embedding, as (color, generator) -> class representative."""
    reps = p.representatives()
    out = {}
    for c in p.generators.colors():
        for x in p.generators.cells_at(c):
            out[(c, x)] = p._render(reps[p.hashcons[("gen", c, x)]])
    return out


def quotient_to_category(p: StrictPresentation) -> StrictCategory:
    """Tabulate the classes as a strict category.

    Raises BoundsTooSmall when a composable class pair has no materialized
    composite or a degeneracy was never built, and InvalidBase when two
    classes of a color have one name.
    """
    reps = p.representatives()
    names = {root: p._render(rep) for root, rep in reps.items()}

    base = MultipleSet(p.generators.universe_bound, p.dim_bound)
    by_color: dict[Color, list[int]] = {}
    for root, rep in reps.items():
        by_color.setdefault(p.color[rep], []).append(root)
    for c, roots in by_color.items():
        ids = sorted(names[r] for r in roots)
        if len(set(ids)) < len(ids):
            repeated = next(x for x, y in zip(ids, ids[1:]) if x == y)
            raise InvalidBase(f"cell id {repeated!r} repeated at color {list(c)}:"
                              " a generator is named like a composite or a degeneracy")
        base.cells[c] = ids

    # ids are unique only within a color
    root_of_name = {c: {names[r]: r for r in roots} for c, roots in by_color.items()}
    find = p.uf.find
    for c, roots in by_color.items():
        for d in c:
            S, T = p.src[d], p.tgt[d]
            base.src[(c, d)] = {names[r]: names[find(S[reps[r]])] for r in roots}
            base.tgt[(c, d)] = {names[r]: names[find(T[reps[r]])] for r in roots}

    refl = ReflexiveStructure(base=base)
    for c, l in admissible_refl_keys(base):
        tab, root_of = {}, root_of_name[c]
        for name in base.cells_at(c):
            got = p.hashcons.get(("refl", l, root_of[name]))
            if got is None:
                raise BoundsTooSmall(
                    f"degeneracy 1[{l}] of {name!r} at {list(c)} not materialized"
                )
            tab[name] = names[got]
        refl.refl[(c, l)] = tab

    cat = StrictCategory(base=base, refl=refl)
    for c in base.colors():
        root_of = root_of_name[c]
        for d in c:
            tab = {}
            # walked lazily: the first missing composite ends the quotient
            for a, b in _pullback(base, c, d):
                got = p.hashcons.get(("comp", d, root_of[a], root_of[b]))
                if got is None:
                    raise BoundsTooSmall(
                        f"composite of ({a!r}, {b!r}) in direction {d} at {list(c)}"
                        " not materialized; raise the size bound"
                    )
                tab[(a, b)] = names[got]
            cat.comp[(c, d)] = tab
    return cat
