"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles with plain loops
over explicit data, deliberately sharing no logic with the package beyond
the raw table accessors.  Tests compare package output against these.
"""

from __future__ import annotations

from itertools import combinations, product

from multicat.colors import add, addable_entries, colors_within, minus
from multicat.core import SOURCE, TARGET, MultipleSet, face

# ---------------------------------------------------------------------------
# free reflexive: direct (generator, added subset) count


def reflexive_counts(ms: MultipleSet, dim_bound: int) -> dict:
    """Expected per-color cell counts of the free reflexive structure."""
    counts = {}
    for c in colors_within(ms.universe_bound, dim_bound):
        n = 0
        for k in range(len(c) + 1):
            for sub in combinations(c, k):
                n += len(ms.cells_at(tuple(sub)))
        if n:
            counts[c] = n
    return counts


# ---------------------------------------------------------------------------
# free strict: naive congruence closure over explicit term trees


class NaiveFreeStrict:
    """All term trees within the size bound, merged by scanning every rule.

    Terms are nested tuples ("gen", color, id) / ("refl", l, t) /
    ("comp", d, t1, t2); no hash-consing, no representative-based pruning.
    """

    def __init__(self, ms: MultipleSet, dim_bound: int, size_bound: int):
        self.ms = ms
        self.N = dim_bound
        self.S = size_bound
        self.parent: dict = {}
        self.build()

    # term helpers ----------------------------------------------------------

    def color_of(self, t):
        if t[0] == "gen":
            return t[1]
        if t[0] == "refl":
            return add(self.color_of(t[2]), t[1])
        return self.color_of(t[2])

    def size_of(self, t):
        if t[0] == "gen":
            return 1
        if t[0] == "refl":
            return 1 + self.size_of(t[2])
        return 1 + self.size_of(t[2]) + self.size_of(t[3])

    def nface(self, t, d, pol):
        if t[0] == "gen":
            return ("gen", minus(t[1], d), face(self.ms, t[1], t[2], d, pol))
        if t[0] == "refl":
            if d == t[1]:
                return t[2]
            return ("refl", t[1], self.nface(t[2], d, pol))
        if d == t[1]:
            return self.nface(t[3] if pol == SOURCE else t[2], d, pol)
        return ("comp", t[1], self.nface(t[2], d, pol), self.nface(t[3], d, pol))

    # union-find ------------------------------------------------------------

    def find(self, t):
        p = self.parent
        while p[t] != t:
            p[t] = p[p[t]]
            t = p[t]
        return t

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if repr(rb) < repr(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    def add_term(self, t):
        if t in self.parent:
            return
        self.parent[t] = t
        if t[0] == "refl":
            self.add_term(t[2])
        elif t[0] == "comp":
            self.add_term(t[2])
            self.add_term(t[3])
        for d in self.color_of(t):
            for pol in (SOURCE, TARGET):
                self.add_term(self.nface(t, d, pol))

    # closure ---------------------------------------------------------------

    def _indexes(self):
        refl_cls, comp_cls = {}, {}
        comp_members, refl_members = {}, {}
        for t in self.parent:
            if t[0] == "refl":
                refl_cls[(t[1], self.find(t[2]))] = t
                refl_members.setdefault(self.find(t), []).append(t)
            elif t[0] == "comp":
                comp_cls[(t[1], self.find(t[2]), self.find(t[3]))] = t
                comp_members.setdefault(self.find(t), []).append(t)
        return refl_cls, comp_cls, comp_members, refl_members

    def closure_round(self) -> bool:
        changed = False
        # face congruence
        classes: dict = {}
        for t in self.parent:
            classes.setdefault(self.find(t), []).append(t)
        for mems in classes.values():
            c = self.color_of(mems[0])
            for d in c:
                for pol in (SOURCE, TARGET):
                    first = self.nface(mems[0], d, pol)
                    for other in mems[1:]:
                        changed |= self.union(first, self.nface(other, d, pol))
        # operator congruence
        sig: dict = {}
        for t in self.parent:
            if t[0] == "gen":
                key = t
            elif t[0] == "refl":
                key = ("refl", t[1], self.find(t[2]))
            else:
                key = ("comp", t[1], self.find(t[2]), self.find(t[3]))
            if key in sig:
                changed |= self.union(sig[key], t)
            else:
                sig[key] = t

        refl_cls, comp_cls, comp_members, refl_members = self._indexes()
        for t in list(self.parent):
            if t[0] == "comp":
                _, d, a, b = t
                # units
                u = refl_cls.get((d, self.find(self.nface(a, d, SOURCE))))
                if u is not None and self.find(u) == self.find(b):
                    changed |= self.union(t, a)
                u = refl_cls.get((d, self.find(self.nface(b, d, TARGET))))
                if u is not None and self.find(u) == self.find(a):
                    changed |= self.union(t, b)
                # associativity: a ~ x *_d y gives (a*b) ~ x*(y*b)
                for mem in comp_members.get(self.find(a), ()):
                    if mem[1] != d:
                        continue
                    inner = comp_cls.get((d, self.find(mem[3]), self.find(b)))
                    if inner is None:
                        continue
                    outer = comp_cls.get((d, self.find(mem[2]), self.find(inner)))
                    if outer is not None:
                        changed |= self.union(t, outer)
                # interchange: (a*_j b) *_k (p*_j q) ~ (a*_k p) *_j (b*_k q)
                j = d
                for k in self.color_of(t):
                    if k == j:
                        continue
                    for other in list(self.parent):
                        if other[0] != "comp" or other[1] != j:
                            continue
                        if self.color_of(other) != self.color_of(t):
                            continue
                        lhs = comp_cls.get((k, self.find(t), self.find(other)))
                        if lhs is None:
                            continue
                        ap = comp_cls.get((k, self.find(a), self.find(other[2])))
                        bq = comp_cls.get((k, self.find(b), self.find(other[3])))
                        if ap is None or bq is None:
                            continue
                        rhs = comp_cls.get((j, self.find(ap), self.find(bq)))
                        if rhs is not None:
                            changed |= self.union(lhs, rhs)
            elif t[0] == "refl":
                _, l, ch = t
                # distribution over composition
                for mem in comp_members.get(self.find(ch), ()):
                    rx = refl_cls.get((l, self.find(mem[2])))
                    ry = refl_cls.get((l, self.find(mem[3])))
                    if rx is None or ry is None:
                        continue
                    c2 = comp_cls.get((mem[1], self.find(rx), self.find(ry)))
                    if c2 is not None:
                        changed |= self.union(t, c2)
                # exchange of two degeneracies
                for mem in refl_members.get(self.find(ch), ()):
                    inner = refl_cls.get((l, self.find(mem[2])))
                    if inner is None:
                        continue
                    other = refl_cls.get((mem[1], self.find(inner)))
                    if other is not None:
                        changed |= self.union(t, other)
        return changed

    def closure(self):
        while self.closure_round():
            pass

    def grow(self) -> bool:
        before = len(self.parent)
        by_color: dict = {}
        for t in list(self.parent):
            by_color.setdefault(self.color_of(t), []).append(t)
        D = self.ms.universe_bound
        for c, terms in sorted(by_color.items(), key=lambda kv: (len(kv[0]), kv[0])):
            if len(c) + 1 <= self.N:
                for l in addable_entries(c, D):
                    for t in terms:
                        if self.size_of(t) + 1 <= self.S:
                            self.add_term(("refl", l, t))
            for d in c:
                for a in terms:
                    fa = self.find(self.nface(a, d, SOURCE))
                    for b in terms:
                        if self.size_of(a) + self.size_of(b) + 1 > self.S:
                            continue
                        if self.find(self.nface(b, d, TARGET)) == fa:
                            self.add_term(("comp", d, a, b))
        return len(self.parent) > before

    def build(self):
        for c in self.ms.colors():
            for x in self.ms.cells_at(c):
                self.add_term(("gen", c, x))
        while True:
            self.closure()
            if not self.grow():
                break

    def class_counts(self) -> dict:
        roots: dict = {}
        for t in self.parent:
            roots.setdefault(self.find(t), self.color_of(t))
        counts: dict = {}
        for c in roots.values():
            counts[c] = counts.get(c, 0) + 1
        return counts

    def equal(self, t1, t2) -> bool:
        return self.find(t1) == self.find(t2)

    def sample_terms(self) -> list:
        return sorted(self.parent, key=repr)


# ---------------------------------------------------------------------------
# per-axiom checkers: direct transcriptions returning violated axiom ids


def multiple_set_axiom_ids(ms: MultipleSet) -> set:
    # what a document can hold: bounds are integers >= 0, a color is a tuple
    # of integers >= 1 in increasing order, and a color's cell ids are
    # distinct strings; a bool is not an integer
    for bound in (ms.universe_bound, ms.dim_bound):
        if type(bound) is not int or bound < 0:
            return {"SHAPE"}
    for c, ids in ms.cells.items():
        if type(c) is not tuple or any(type(e) is not int or e < 1 for e in c):
            return {"SHAPE"}
        if any(c[i] >= c[i + 1] for i in range(len(c) - 1)):
            return {"SHAPE"}
        if any(type(x) is not str for x in ids) or len(set(ids)) < len(ids):
            return {"SHAPE"}
    found = set()
    for c in ms.colors():
        if len(c) > ms.dim_bound or any(d > ms.universe_bound for d in c):
            found.add("SHAPE")
        for d in c:
            lower = minus(c, d)
            for tabs in (ms.src, ms.tgt):
                tab = tabs.get((c, d), {})
                for x in ms.cells_at(c):
                    if x not in tab or tab[x] not in ms.cells_at(lower):
                        found.add("SHAPE")
    if "SHAPE" in found:
        return found
    for c in ms.colors():
        for x in ms.cells_at(c):
            for j in c:
                for k in c:
                    if j >= k:
                        continue
                    sj, sk = ms.src[(c, j)][x], ms.src[(c, k)][x]
                    tj, tk = ms.tgt[(c, j)][x], ms.tgt[(c, k)][x]
                    if ms.src[(minus(c, j), k)][sj] != ms.src[(minus(c, k), j)][sk]:
                        found.add("SS")
                    if ms.tgt[(minus(c, j), k)][tj] != ms.tgt[(minus(c, k), j)][tk]:
                        found.add("TT")
                    if ms.tgt[(minus(c, j), k)][sj] != ms.src[(minus(c, k), j)][tk]:
                        found.add("ST")
                    if ms.tgt[(minus(c, k), j)][sk] != ms.src[(minus(c, j), k)][tj]:
                        found.add("ST")
    return found


def reflexive_axiom_ids(refl_tables, ms: MultipleSet) -> set:
    found = set()
    for c in colors_within(ms.universe_bound, ms.dim_bound):
        if not ms.cells_at(c) or len(c) + 1 > ms.dim_bound:
            continue
        for l in addable_entries(c, ms.universe_bound):
            tab = refl_tables.get((c, l), {})
            for x in ms.cells_at(c):
                if x not in tab:
                    found.add("TOTAL")
    for (c, l), tab in refl_tables.items():
        up = add(c, l)
        for x, dx in tab.items():
            if dx not in ms.cells_at(up):
                found.add("TOTAL")
                continue
            if ms.src[(up, l)][dx] != x or ms.tgt[(up, l)][dx] != x:
                found.add("REFL-SECT")
            for k in c:
                lower = refl_tables.get((minus(c, k), l), {})
                if ms.src[(up, k)][dx] != lower.get(ms.src[(c, k)][x]):
                    found.add("REFL-S")
                if ms.tgt[(up, k)][dx] != lower.get(ms.tgt[(c, k)][x]):
                    found.add("REFL-T")
            for (c2, k), tab2 in refl_tables.items():
                # past the dim bound neither side of the square can exist
                if c2 != c or k <= l or x not in tab2 or len(c) + 2 > ms.dim_bound:
                    continue
                one = refl_tables.get((up, k), {}).get(dx)
                two = refl_tables.get((add(c, k), l), {}).get(tab2[x])
                if one != two or one is None:
                    found.add("REFL-EXCH")
    return found


def magma_axiom_ids(comp_tables, ms: MultipleSet) -> set:
    found = set()
    for c in ms.colors():
        for d in c:
            tab = comp_tables.get((c, d), {})
            for a in ms.cells_at(c):
                for b in ms.cells_at(c):
                    if ms.src[(c, d)][a] == ms.tgt[(c, d)][b] and (a, b) not in tab:
                        found.add("TOTAL")
    for (c, d), tab in comp_tables.items():
        for (a, b), r in tab.items():
            # a key off the pullback: a after b needs s_d(a) == t_d(b)
            if (d in c and a in ms.cells_at(c) and b in ms.cells_at(c)
                    and ms.src[(c, d)][a] != ms.tgt[(c, d)][b]):
                found.add("TOTAL")
            if r not in ms.cells_at(c):
                found.add("TOTAL")
                continue
            if ms.src[(c, d)][r] != ms.src[(c, d)][b]:
                found.add("POS1")
            if ms.tgt[(c, d)][r] != ms.tgt[(c, d)][a]:
                found.add("POS1")
            for k in c:
                if k == d:
                    continue
                lower = comp_tables.get((minus(c, k), d), {})
                for tabs in (ms.src, ms.tgt):
                    key = (tabs[(c, k)][a], tabs[(c, k)][b])
                    if lower.get(key) != tabs[(c, k)][r]:
                        found.add("POS2")
    return found


def dist_axiom_ids(comp_tables, refl_tables, ms: MultipleSet) -> set:
    found = set()
    for (c, d), tab in comp_tables.items():
        if len(c) + 1 > ms.dim_bound:
            continue
        for l in addable_entries(c, ms.universe_bound):
            rt = refl_tables.get((c, l), {})
            up = comp_tables.get((add(c, l), d), {})
            for (a, b), r in tab.items():
                if a in rt and b in rt and r in rt:
                    if up.get((rt[a], rt[b])) != rt[r]:
                        found.add("DIST")
    return found


def strict_axiom_ids(comp_tables, refl_tables, ms: MultipleSet) -> set:
    found = set()
    for (c, d), tab in comp_tables.items():
        for (a, b), ab in tab.items():
            for (b2, e), be in tab.items():
                if b2 != b:
                    continue
                one, two = tab.get((ab, e)), tab.get((a, be))
                if one is not None and two is not None and one != two:
                    found.add("ASSOC")
        unit_tab = refl_tables.get((minus(c, d), d), {})
        for a in ms.cells_at(c):
            us = unit_tab.get(ms.src[(c, d)][a])
            ut = unit_tab.get(ms.tgt[(c, d)][a])
            if us is not None and tab.get((a, us)) != a:
                found.add("UNIT")
            if ut is not None and tab.get((ut, a)) != a:
                found.add("UNIT")
        for k in c:
            if k == d:
                continue
            ktab = comp_tables.get((c, k), {})
            for (a, b), ab in tab.items():
                for (p, q), pq in tab.items():
                    lhs = ktab.get((ab, pq))
                    ap, bq = ktab.get((a, p)), ktab.get((b, q))
                    if None in (lhs, ap, bq):
                        continue
                    rhs = tab.get((ap, bq))
                    if rhs is not None and lhs != rhs:
                        found.add("MFI")
    return found


def reversor_axiom_ids(rev, ms: MultipleSet) -> set:
    found = set()
    needed = set()
    for c in sorted(ms.cells, key=lambda c: (len(c), c)):
        if len(c) > rev.m and ms.cells_at(c):
            for e in c:
                needed.add((c, e))
    have = set()
    for ch in rev.chains:
        if ch.entries:
            have.add((ch.color, ch.entries[0]) if rev.kind == "general" else (ch.color, ch.entries))
    if rev.kind == "minimal":
        for c, e in needed:
            if not any(ch.color == c and ch.entries == (e,) for ch in rev.chains):
                found.add("COVER")
    for ch in rev.chains:
        lc = ch.color
        for r, e in enumerate(ch.entries):
            tab = ch.map_at(r)
            for x in ms.cells_at(lc):
                if x not in tab or tab[x] not in ms.cells_at(lc):
                    found.add("COVER")
                    continue
                jx = tab[x]
                if r == len(ch.entries) - 1:
                    if ms.src[(lc, e)][jx] != ms.tgt[(lc, e)][x]:
                        found.add("SWAP-END")
                    if ms.tgt[(lc, e)][jx] != ms.src[(lc, e)][x]:
                        found.add("SWAP-END")
                else:
                    nxt = ch.map_at(r + 1)
                    if ms.src[(lc, e)][jx] != nxt.get(ms.src[(lc, e)][x]):
                        found.add("SERIAL")
                    if ms.tgt[(lc, e)][jx] != nxt.get(ms.tgt[(lc, e)][x]):
                        found.add("SERIAL")
            lc = minus(lc, e)
    return found


def brute_force_reversors(ms: MultipleSet, m: int, kind: str) -> list[list[tuple]]:
    """Every reversor structure on ``ms`` above ``m``, by trying every map.

    A structure is its list of (color, entries, maps) chains, sorted by
    (color, entries), each map a tuple of (cell, image) pairs sorted by cell.
    Every map of a level (each cell to any cell of its color, in product
    order over the cells as listed) is tried and kept when it passes
    SWAP-END at the terminal level, or SERIAL against the kept map below it.
    Within an entry sequence, chains come terminal map first; within a slot,
    entry sequences come by length, then lexicographically; structures are
    the product over the slots sorted by (dimension, color, key), the last
    slot fastest.
    """
    def all_maps(c):
        cells = ms.cells_at(c)
        return [dict(zip(cells, images)) for images in product(cells, repeat=len(cells))]

    def chains(c, entries):
        levels = [c]
        for e in entries[:-1]:
            levels.append(minus(levels[-1], e))
        last, e = levels[-1], entries[-1]
        s, t = ms.src[(last, e)], ms.tgt[(last, e)]
        kept = [[j] for j in all_maps(last)
                if all(s[j[x]] == t[x] and t[j[x]] == s[x] for x in ms.cells_at(last))]
        for lc, e in zip(levels[-2::-1], entries[-2::-1]):
            s, t = ms.src[(lc, e)], ms.tgt[(lc, e)]
            kept = [[j] + below for below in kept for j in all_maps(lc)
                    if all(s[j[x]] == below[0][s[x]] and t[j[x]] == below[0][t[x]]
                           for x in ms.cells_at(lc))]
        return [(c, entries, tuple(tuple(sorted(j.items())) for j in maps)) for maps in kept]

    slots = []
    for c in sorted((c for c in ms.cells if ms.cells[c] and len(c) > m), key=lambda c: (len(c), c)):
        q_max = max(1, len(c) - m - 1)
        if kind == "minimal":
            keyed = [[(e,)] for e in c]
        elif kind == "maximal":
            keyed = [[sub] for sub in combinations(c, min(q_max, len(c)))]
        else:
            keyed = [[sub for q in range(1, q_max + 1) for sub in combinations(c, q) if sub[0] == e]
                     for e in c]
        slots.extend([ch for entries in subs for ch in chains(c, entries)] for subs in keyed)
    return [sorted(combo, key=lambda ch: ch[:2]) for combo in product(*slots)]


def bracket_axiom_ids(e) -> set:
    """BR-TOTAL / BR-END / BR-FACE / BR-PI plus the projection law PI."""
    found = set()
    M, C = e.magma.base, e.cat.base
    pi = e.pi
    for c in M.colors():
        pmap = pi.get(c, {})
        for x in M.cells_at(c):
            if x not in pmap or pmap[x] not in C.cells_at(c):
                found.add("PI")
                continue
            for d in c:
                for tabs_m, tabs_c in ((M.src, C.src), (M.tgt, C.tgt)):
                    got = pi.get(minus(c, d), {}).get(tabs_m[(c, d)][x])
                    if got != tabs_c[(c, d)][pmap[x]]:
                        found.add("PI")
    for (c, d), tab in e.magma.comp.items():
        ctab = e.cat.comp.get((c, d), {})
        for (a, b), r in tab.items():
            if pi.get(c, {}).get(r) != ctab.get((pi[c].get(a), pi[c].get(b))):
                found.add("PI")
    if e.magma.refl is not None and e.cat.refl is not None:
        for (c, l), tab in e.magma.refl.refl.items():
            ctab = e.cat.refl.refl.get((c, l), {})
            for x, dx in tab.items():
                if pi.get(add(c, l), {}).get(dx) != ctab.get(pi.get(c, {}).get(x)):
                    found.add("PI")
    for c in M.colors():
        if len(c) + 1 > M.dim_bound:
            continue
        pmap = pi.get(c, {})
        for r in addable_entries(c, M.universe_bound):
            tab = e.brackets.get((c, r), {})
            for a in M.cells_at(c):
                for b in M.cells_at(c):
                    if pmap.get(a) == pmap.get(b) and pmap.get(a) is not None:
                        if (a, b) not in tab:
                            found.add("BR-TOTAL")
    for (c, r), tab in e.brackets.items():
        up = add(c, r)
        for (a, b), x in tab.items():
            if x not in M.cells_at(up):
                found.add("BR-TOTAL")
                continue
            if M.src[(up, r)][x] != a or M.tgt[(up, r)][x] != b:
                found.add("BR-END")
            for s in c:
                lower = e.brackets.get((minus(c, s), r), {})
                for tabs in (M.src, M.tgt):
                    pair = (tabs[(c, s)][a], tabs[(c, s)][b])
                    if lower.get(pair) != tabs[(up, s)][x]:
                        found.add("BR-FACE")
            want = None
            if e.cat.refl is not None:
                want = e.cat.refl.refl.get((c, r), {}).get(pi.get(c, {}).get(a))
            if want is None or pi.get(up, {}).get(x) != want:
                found.add("BR-PI")
    return found


# ---------------------------------------------------------------------------
# free weak: stage simulation of bracket counts


def expected_bracket_counts(stretching) -> dict:
    """Cumulative bracket counts per (color, r) after the last stage.

    A bracket exists for every ordered pair of cells below the final stage
    with equal projections, at every admissible added entry.
    """
    M = stretching.magma.base
    frontier = stretching.stage - 1
    expected: dict = {}
    for c in M.colors():
        if len(c) + 1 > M.dim_bound:
            continue
        pmap = stretching.pi.get(c, {})
        cells = [
            x for x in M.cells_at(c)
            if stretching.stage_of.get((c, x), 0) <= frontier
        ]
        groups: dict = {}
        for x in cells:
            groups.setdefault(pmap[x], []).append(x)
        pairs = sum(len(g) * len(g) for g in groups.values())
        if pairs:
            for r in addable_entries(c, M.universe_bound):
                expected[(c, r)] = pairs
    return expected


def stagewise_bracket_counts(stretching) -> dict:
    """Brackets adjoined at each stage, keyed (stage, color, r).

    A pair is bracketed at the first stage after both members exist, so the
    expected count at stage k is the number of ordered projection-equal
    pairs whose later member appeared at stage k - 1.
    """
    M = stretching.magma.base
    out: dict = {}
    for c in M.colors():
        if len(c) + 1 > M.dim_bound:
            continue
        pmap = stretching.pi.get(c, {})
        groups: dict = {}
        for x in M.cells_at(c):
            groups.setdefault(pmap[x], []).append(x)
        for g in groups.values():
            for a in g:
                for b in g:
                    born = max(
                        stretching.stage_of.get((c, a), 0),
                        stretching.stage_of.get((c, b), 0),
                    ) + 1
                    if born <= stretching.stage:
                        for r in addable_entries(c, M.universe_bound):
                            key = (born, c, r)
                            out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# term graphs: each kind's face rule, applied to explicit term trees


def term_trees(nodes) -> list:
    """Each node of a term graph as a nested tuple: ("gen", color, id), or
    (kind, entry, *child trees); children are made before their parents."""
    trees: list = []
    for node in nodes:
        trees.append(node if node[0] == "gen" else node[:2] + tuple(trees[ch] for ch in node[2:]))
    return trees


def term_faces(nodes, ms: MultipleSet, stacked: bool = False, pushed: bool = False) -> list[dict]:
    """Per node, {(d, polarity): face tree} for each direction d of its color,
    recomputed from the node tuples and the face tables of ``ms``, the
    generators, alone.

    ``stacked``: the graph keeps stacked degeneracies in increasing entry
    order from the inside out; ``pushed``: it pushes a degeneracy inside a
    composite.  Each face is normalized by the same laws.
    """

    def norm(t):
        if t[0] != "refl":
            return t
        l, u = t[1], t[2]
        if pushed and u[0] == "comp":
            return ("comp", u[1], norm(("refl", l, u[2])), norm(("refl", l, u[3])))
        if stacked and u[0] == "refl" and u[1] > l:
            return ("refl", u[1], norm(("refl", l, u[2])))
        return t

    def color_of(t):
        if t[0] == "gen":
            return t[1]
        if t[0] in ("refl", "br"):
            return add(color_of(t[2]), t[1])
        return color_of(t[2])

    def face_of(t, d, pol):
        kind = t[0]
        if kind == "gen":
            # a generator's face is the generator its face table names
            return ("gen", minus(t[1], d), face(ms, t[1], t[2], d, pol))
        entry = t[1]
        if kind == "refl":
            # a degeneracy's faces in its added entry are its cell
            if d == entry:
                return t[2]
            return norm(("refl", entry, face_of(t[2], d, pol)))
        if kind == "comp":
            # a *_e b runs from b's e-source to a's e-target
            if d == entry:
                return face_of(t[3], d, SOURCE) if pol == SOURCE else face_of(t[2], d, TARGET)
            return ("comp", entry, face_of(t[2], d, pol), face_of(t[3], d, pol))
        if kind == "br":
            # a bracket [a; b]^r runs from a to b in entry r
            if d == entry:
                return t[2] if pol == SOURCE else t[3]
            return ("br", entry, face_of(t[2], d, pol), face_of(t[3], d, pol))
        if kind == "rev":
            # a reversor cell j_e(x) swaps x's e-faces
            if d == entry:
                return face_of(t[2], d, TARGET if pol == SOURCE else SOURCE)
            return ("rev", entry, face_of(t[2], d, pol))
        raise ValueError(f"unknown term kind {kind!r}")

    return [{(d, pol): face_of(t, d, pol) for d in color_of(t) for pol in (SOURCE, TARGET)}
            for t in term_trees(nodes)]


# ---------------------------------------------------------------------------
# strict closure: the matcher with a class lookup after every hash-cons hit


def reference_match(p) -> list[tuple[str, int, int]]:
    """The rule instances ``StrictPresentation._match`` must return, in its
    order, over a presentation whose rebuild is done.  Every hash-cons hit
    goes through the union-find, so this matcher holds whether or not the
    hash-cons values are class roots."""
    find, get, enodes = p.uf.find, p.hashcons.get, p.enodes

    def cls(key):
        got = get(key)
        return None if got is None else find(got)

    out = []
    for root, ens in enodes.items():
        for node in ens:
            if node[0] == "comp":
                _, d, a, b = node
                # UNIT: a * 1(s(a)) == a and 1(t(b)) * b == b
                if a != root and cls(("refl", d, find(p.src[d][a]))) == b:
                    out.append(("UNIT", root, a))
                if b != root and cls(("refl", d, find(p.tgt[d][b]))) == a:
                    out.append(("UNIT", root, b))
                for left in enodes[a]:
                    if left[0] != "comp":
                        continue
                    if left[1] == d:
                        # ASSOC: a ~ (x *_d y)  =>  (a*b) ~ x*(y*b)
                        inner = cls(("comp", d, left[3], b))
                        if inner is None:
                            continue
                        outer = cls(("comp", d, left[2], inner))
                        if outer is not None and outer != root:
                            out.append(("ASSOC", root, outer))
                        continue
                    # MFI: node = (x *_j y) *_d (p *_j q)
                    _, j, x, y = left
                    for right in enodes[b]:
                        if right[0] != "comp" or right[1] != j:
                            continue
                        xp = cls(("comp", d, x, right[2]))
                        yq = cls(("comp", d, y, right[3]))
                        if xp is None or yq is None:
                            continue
                        rhs = cls(("comp", j, xp, yq))
                        if rhs is not None and rhs != root:
                            out.append(("MFI", root, rhs))
            elif node[0] == "refl":
                _, l, ch = node
                for inner in enodes[ch]:
                    if inner[0] == "comp":
                        # DIST: 1_l(x *_d y) ~ 1_l(x) *_d 1_l(y)
                        rx = cls(("refl", l, inner[2]))
                        ry = cls(("refl", l, inner[3]))
                        if rx is None or ry is None:
                            continue
                        other = cls(("comp", inner[1], rx, ry))
                        if other is not None and other != root:
                            out.append(("DIST", root, other))
                    elif inner[0] == "refl":
                        # EXCH: 1_l(1_k(x)) ~ 1_k(1_l(x))
                        lx = cls(("refl", l, inner[2]))
                        if lx is None:
                            continue
                        other = cls(("refl", inner[1], lx))
                        if other is not None and other != root:
                            out.append(("EXCH", root, other))
    return out
