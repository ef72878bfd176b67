"""Categorical stretchings and the bounded free weak completion.

A stretching is a reflexive magma M sitting over a strict category C via a
projection, with a bracket cell one dimension up for every pair of M-cells
the projection identifies.  The free construction runs a stage-bounded
completion: each stage adjoins formal composites, degeneracies (and formal
reversor cells when a cutoff m is given) for the previous stage's cells,
plus one bracket cell per projection-equal pair.

M-cells are canonical terms: degeneracies are kept as sorted added-entry
sets and pushed inside composites, so the exchange and distribution laws
hold structurally.  No strictness law is applied to M; distinct formal
composites with equal projections are exactly what brackets connect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colors import Color, add, addable_entries, minus
from .core import (
    SOURCE,
    TARGET,
    CellId,
    MsMorphism,
    MultipleSet,
    face,
    validate_multiple_set,
)
from .errors import BoundsTooSmall
from .magma import MagmaStructure, _scan_reflexive_magma, composable_pairs
from .reflexive import ReflexiveStructure, admissible_refl_keys
from .report import ValidationReport
from .reversors import ReversorStructure, search_reversors
from .strictcat import StrictCategory, free_strict, quotient_to_category, unit_map, validate_strict


@dataclass
class Stretching:
    magma: MagmaStructure  # M, reflexive; tables may be stage-partial
    cat: StrictCategory  # C
    pi: dict[Color, dict[CellId, CellId]]
    # (color c, added entry r) -> (alpha, beta) -> bracket cell at add(c, r)
    brackets: dict[tuple[Color, int], dict[tuple[CellId, CellId], CellId]]
    m: int | None = None
    cat_reversors: ReversorStructure | None = None
    # reversor tables on M, possibly partial at the construction frontier
    m_rev_tables: dict[tuple[Color, int], dict[CellId, CellId]] | None = None
    # stage bookkeeping for free results; None means fully total semantics
    stage_of: dict[tuple[Color, CellId], int] | None = None
    stage: int = 0
    # per-stage addition counts for free results, echoed by the CLI
    stage_log: list[dict] | None = None


def identity_stretching(cat: StrictCategory) -> Stretching:
    """M = C, projection the identity, brackets the degeneracies."""
    pi = {c: {x: x for x in cat.base.cells_at(c)} for c in cat.base.colors()}
    brackets = {}
    for (c, r), tab in (cat.refl.refl if cat.refl else {}).items():
        brackets[(c, r)] = {(x, x): dx for x, dx in tab.items()}
    return Stretching(magma=cat, cat=cat, pi=pi, brackets=brackets)


def pi_equal_pairs(e: Stretching, c: Color, max_stage=None) -> list[tuple[CellId, CellId]]:
    """Ordered pairs of M-cells at ``c`` with equal projections."""
    pmap = e.pi.get(c, {})
    cells = e.magma.base.cells_at(c)
    if max_stage is not None and e.stage_of is not None:
        cells = [x for x in cells if e.stage_of.get((c, x), 0) <= max_stage]
    by_image: dict[CellId, list[CellId]] = {}
    for x in cells:
        if x in pmap:
            by_image.setdefault(pmap[x], []).append(x)
    return [(a, b) for group in by_image.values() for a in group for b in group]


def _within_stage(e: Stretching, c: Color, x: CellId) -> bool:
    if e.stage_of is None:
        return True
    return e.stage_of.get((c, x), 0) <= e.stage - 1


def _validate_pi(e: Stretching, report: ValidationReport):
    M, C = e.magma.base, e.cat.base
    for c in M.colors():
        pmap = e.pi.get(c, {})
        for x in M.cells_at(c):
            if x not in pmap:
                report.add("PI", c, (x,), "projection undefined")
                continue
            px = pmap[x]
            if not C.has_cell(c, px):
                report.add("PI", c, (x,), f"image {px!r} not a cell of the strict layer")
                continue
            for d in c:
                for pol in (SOURCE, TARGET):
                    want = face(C, c, px, d, pol)
                    got = e.pi.get(minus(c, d), {}).get(face(M, c, x, d, pol))
                    if got != want:
                        report.add("PI", c, (x,), f"face entry={d} polarity={pol}")
    # degeneracies
    if e.magma.refl is not None and e.cat.refl is not None:
        for (c, l), tab in e.magma.refl.refl.items():
            if l in c or l < 1:  # reported by the reflexive scan
                continue
            up = add(c, l)
            for x, dx in tab.items():
                want = e.cat.refl.refl.get((c, l), {}).get(e.pi.get(c, {}).get(x))
                if e.pi.get(up, {}).get(dx) != want:
                    report.add("PI", c, (x,), f"degeneracy added={l}")
    # composites
    for (c, d), tab in e.magma.comp.items():
        ctab = e.cat.comp.get((c, d), {})
        pmap = e.pi.get(c, {})
        for (a, b), r in tab.items():
            want = ctab.get((pmap.get(a), pmap.get(b)))
            if pmap.get(r) != want:
                report.add("PI", c, (a, b), f"composite direction={d}")
    # reversors
    if e.m_rev_tables and e.cat_reversors is not None:
        cat_tabs = {}
        for ch in e.cat_reversors.chains:
            if len(ch.entries) == 1:
                cat_tabs[(ch.color, ch.entries[0])] = ch.map_at(0)
        for (c, ev), tab in e.m_rev_tables.items():
            ctab = cat_tabs.get((c, ev), {})
            pmap = e.pi.get(c, {})
            for x, jx in tab.items():
                if pmap.get(jx) != ctab.get(pmap.get(x)):
                    report.add("PI", c, (x,), f"reversor entry={ev}")


def validate_stretching(e: Stretching) -> ValidationReport:
    """Layer validity, the projection laws, and the three bracket axioms.

    For stage-bounded free results, totality (composites, degeneracies,
    brackets) is only demanded of cells strictly below the last completed
    stage; the frontier is by construction still open.
    """
    report = validate_multiple_set(e.magma.base)
    _scan_reflexive_magma(e.magma, report, report.ok, require_total=e.stage_of is None)
    if e.magma.refl is None:
        report.add("TOTAL", (), (), "M carries no reflexive structure")
    report.extend(validate_strict(e.cat))
    if e.stage_of is not None:
        _check_staged_totality(e, report)
    _validate_pi(e, report)
    _validate_brackets(e, report)
    return report.sorted()


def _check_staged_totality(e: Stretching, report: ValidationReport):
    M = e.magma.base
    for c in M.colors():
        for d in c:
            tab = e.magma.comp.get((c, d), {})
            for a, b in composable_pairs(M, c, d):
                if _within_stage(e, c, a) and _within_stage(e, c, b) and (a, b) not in tab:
                    report.add("TOTAL", c, (a, b), f"staged composite missing, direction={d}")
    if e.magma.refl is not None:
        for c, l in admissible_refl_keys(M):
            tab = e.magma.refl.refl.get((c, l), {})
            for x in M.cells_at(c):
                if _within_stage(e, c, x) and x not in tab:
                    report.add("TOTAL", c, (x,), f"staged degeneracy missing, added={l}")


def _validate_brackets(e: Stretching, report: ValidationReport):
    M = e.magma.base
    # totality over projection-equal pairs
    for c in M.colors():
        if len(c) + 1 > M.dim_bound:
            continue
        for r in addable_entries(c, M.universe_bound):
            tab = e.brackets.get((c, r), {})
            max_stage = None if e.stage_of is None else e.stage - 1
            for a, b in pi_equal_pairs(e, c, max_stage=max_stage):
                if (a, b) not in tab:
                    report.add("BR-TOTAL", c, (a, b), f"added={r}")

    for (c, r), tab in e.brackets.items():
        if r in c or r < 1:
            for a, b in tab:
                report.add("BR-TOTAL", c, (a, b), f"added={r} cannot be added to {list(c)}")
            continue
        up = add(c, r)
        pmap = e.pi.get(c, {})
        for (a, b), x in tab.items():
            if not (M.has_cell(c, a) and M.has_cell(c, b)):
                report.add("BR-TOTAL", c, (a, b), f"added={r} endpoint not a cell at {list(c)}")
                continue
            if not M.has_cell(up, x):
                report.add("BR-TOTAL", c, (a, b), f"bracket image {x!r} not at {list(up)}")
                continue
            if face(M, up, x, r, SOURCE) != a:
                report.add("BR-END", c, (a, b), f"added={r} polarity={SOURCE}")
            if face(M, up, x, r, TARGET) != b:
                report.add("BR-END", c, (a, b), f"added={r} polarity={TARGET}")
            for s in c:
                lower_tab = e.brackets.get((minus(c, s), r), {})
                for pol in (SOURCE, TARGET):
                    fa = face(M, c, a, s, pol)
                    fb = face(M, c, b, s, pol)
                    if lower_tab.get((fa, fb)) != face(M, up, x, s, pol):
                        report.add("BR-FACE", c, (a, b), f"added={r} entry={s} polarity={pol}")
            want = None
            if e.cat.refl is not None:
                want = e.cat.refl.refl.get((c, r), {}).get(pmap.get(a))
                want_b = e.cat.refl.refl.get((c, r), {}).get(pmap.get(b))
                if want is None or want != want_b:
                    want = None
            if want is None or e.pi.get(up, {}).get(x) != want:
                report.add("BR-PI", c, (a, b), f"added={r}")


def validate_stretching_morphism(
    m_map: dict[Color, dict[CellId, CellId]],
    c_map: dict[Color, dict[CellId, CellId]],
    e: Stretching,
    e2: Stretching,
) -> ValidationReport:
    """The projection square commutes and brackets are preserved."""
    report = ValidationReport()
    for c in e.magma.base.colors():
        mm = m_map.get(c, {})
        cm = c_map.get(c, {})
        for x in e.magma.base.cells_at(c):
            lhs = e2.pi.get(c, {}).get(mm.get(x))
            rhs = cm.get(e.pi.get(c, {}).get(x))
            if lhs != rhs:
                report.add("SQUARE", c, (x,), "projection square broken")
    for (c, r), tab in e.brackets.items():
        up = add(c, r)
        mm = m_map.get(c, {})
        mup = m_map.get(up, {})
        tab2 = e2.brackets.get((c, r), {})
        for (a, b), x in tab.items():
            if mup.get(x) != tab2.get((mm.get(a), mm.get(b))):
                report.add("BR-MOR", c, (a, b), f"added={r}")
    return report.sorted()


# -- free weak completion ----------------------------------------------------
#
# terms: ("cell", frozenset added, kind) | ("comp", d, term, term)
# kinds: ("gen", color, id) | ("br", r, term, term) | ("rev", e, term)


def _push_refl(l: int, t):
    if t[0] == "comp":
        return ("comp", t[1], _push_refl(l, t[2]), _push_refl(l, t[3]))
    return ("cell", t[1] | {l}, t[2])


def _push_refl_set(added: frozenset, t):
    for l in sorted(added):
        t = _push_refl(l, t)
    return t


def _term_color(t) -> Color:
    if t[0] == "comp":
        return _term_color(t[2])
    added = t[1]
    kind = t[2]
    if kind[0] == "gen":
        base = kind[1]
    elif kind[0] == "br":
        base = add(_term_color(kind[2]), kind[1])
    else:
        base = _term_color(kind[2])
    return tuple(sorted(set(base) | added))


def _render(t) -> str:
    if t[0] == "comp":
        return f"({_render(t[2])} *{t[1]} {_render(t[3])})"
    added, kind = t[1], t[2]
    if kind[0] == "gen":
        core = kind[2]
    elif kind[0] == "br":
        core = f"[{_render(kind[2])};{_render(kind[3])}]^{kind[1]}"
    else:
        core = f"j{kind[1]}({_render(kind[2])})"
    if added:
        return "1[" + ",".join(str(l) for l in sorted(added)) + "]" + core
    return core


@dataclass
class FreeWeakResult:
    stretching: Stretching
    unit: MsMorphism
    stages: int
    bounds: tuple[int, int]  # (dim bound, strict size bound)
    stage_log: list[dict] = field(default_factory=list)
    terms: dict[tuple[Color, CellId], tuple] = field(default_factory=dict)


class _Completion:
    def __init__(self, X: MultipleSet, cat: StrictCategory, umap, dim_bound, m,
                 rev_tables_cat):
        self.X = X
        self.cat = cat
        self.umap = umap  # (color, gen) -> strict class cell
        self.N = dim_bound
        self.D = X.universe_bound
        self.m = m
        self.rev_cat = rev_tables_cat  # (color, entry) -> table in C, or None
        self.cells: dict[Color, dict[CellId, tuple]] = {}
        self.stage_of: dict[tuple[Color, CellId], int] = {}
        self.pi: dict[Color, dict[CellId, CellId]] = {}

    def face_term(self, t, d: int, pol: str):
        if t[0] == "comp":
            dd = t[1]
            if d == dd:
                return self.face_term(t[3] if pol == SOURCE else t[2], d, pol)
            return ("comp", dd, self.face_term(t[2], d, pol), self.face_term(t[3], d, pol))
        added, kind = t[1], t[2]
        if d in added:
            return ("cell", added - {d}, kind)
        if kind[0] == "gen":
            inner = ("cell", frozenset(), ("gen", minus(kind[1], d), face(self.X, kind[1], kind[2], d, pol)))
        elif kind[0] == "br":
            r, a, b = kind[1], kind[2], kind[3]
            if d == r:
                inner = a if pol == SOURCE else b
            else:
                inner = ("cell", frozenset(), ("br", r, self.face_term(a, d, pol), self.face_term(b, d, pol)))
        else:
            ev, sub = kind[1], kind[2]
            if d == ev:
                inner = self.face_term(sub, ev, TARGET if pol == SOURCE else SOURCE)
            else:
                inner = ("cell", frozenset(), ("rev", ev, self.face_term(sub, d, pol)))
        return _push_refl_set(added, inner)

    def pi_of(self, t) -> CellId:
        c = _term_color(t)
        if t[0] == "comp":
            pa = self.pi_of(t[2])
            pb = self.pi_of(t[3])
            got = self.cat.comp.get((c, t[1]), {}).get((pa, pb))
            if got is None:
                raise BoundsTooSmall(
                    f"strict layer lacks composite of ({pa!r}, {pb!r}) in direction {t[1]}"
                )
            return got
        added, kind = t[1], t[2]
        if kind[0] == "gen":
            px = self.umap[(kind[1], kind[2])]
            base_color = kind[1]
        elif kind[0] == "br":
            pa = self.pi_of(kind[2])
            base_color = add(_term_color(kind[2]), kind[1])
            px = self.cat.refl.refl.get((_term_color(kind[2]), kind[1]), {}).get(pa)
            if px is None:
                raise BoundsTooSmall(f"strict layer lacks degeneracy for bracket projection")
        else:
            sub_color = _term_color(kind[2])
            tab = (self.rev_cat or {}).get((sub_color, kind[1]))
            if tab is None:
                raise BoundsTooSmall(f"strict layer lacks reversor at {list(sub_color)}")
            px = tab[self.pi_of(kind[2])]
            base_color = sub_color
        for l in sorted(added):
            px2 = self.cat.refl.refl.get((base_color, l), {}).get(px)
            if px2 is None:
                raise BoundsTooSmall(f"strict layer lacks degeneracy added={l}")
            px = px2
            base_color = add(base_color, l)
        return px

    def materialize(self, t, stage: int) -> CellId:
        c = _term_color(t)
        cid = _render(t)
        tab = self.cells.setdefault(c, {})
        if cid in tab:
            return cid
        if len(c) > self.N:
            raise BoundsTooSmall(f"term at color {list(c)} exceeds dim bound {self.N}")
        if t[0] == "comp":
            self.materialize(t[2], stage)
            self.materialize(t[3], stage)
        else:
            kind = t[2]
            if kind[0] == "br":
                self.materialize(kind[2], stage)
                self.materialize(kind[3], stage)
            elif kind[0] == "rev":
                self.materialize(kind[2], stage)
        tab[cid] = t
        self.stage_of[(c, cid)] = stage
        self.pi.setdefault(c, {})[cid] = self.pi_of(t)
        for d in c:
            for pol in (SOURCE, TARGET):
                self.materialize(self.face_term(t, d, pol), stage)
        return cid

    def prev_cells(self, stage: int) -> dict[Color, list[tuple[CellId, tuple]]]:
        out: dict[Color, list] = {}
        for c, tab in self.cells.items():
            for cid, t in sorted(tab.items()):
                if self.stage_of[(c, cid)] < stage:
                    out.setdefault(c, []).append((cid, t))
        return out

    def run_stage(self, stage: int) -> dict:
        prev = self.prev_cells(stage)
        counts = {"composites": 0, "degeneracies": 0, "reversors": 0, "brackets": 0}

        def adjoin(kind: str, t):
            # log every cell added, faces included, so the log sums to the cells built
            before = len(self.stage_of)
            self.materialize(t, stage)
            counts[kind] += len(self.stage_of) - before

        for c in sorted(prev, key=lambda c: (len(c), c)):
            items = prev[c]
            # degeneracies
            if len(c) + 1 <= self.N:
                for l in addable_entries(c, self.D):
                    for cid, t in items:
                        adjoin("degeneracies", _push_refl(l, t))
            # composites
            for d in c:
                for aid, ta in items:
                    sa = _render(self.face_term(ta, d, SOURCE))
                    for bid, tb in items:
                        if _render(self.face_term(tb, d, TARGET)) == sa:
                            adjoin("composites", ("comp", d, ta, tb))
            # formal reversor cells
            if self.m is not None and len(c) >= 1:
                for e in c:
                    for cid, t in items:
                        adjoin("reversors", ("cell", frozenset(), ("rev", e, t)))
            # brackets over projection-equal pairs
            if len(c) + 1 <= self.N:
                by_image: dict[CellId, list] = {}
                for cid, t in items:
                    by_image.setdefault(self.pi[c][cid], []).append((cid, t))
                for group in by_image.values():
                    for aid, ta in group:
                        for bid, tb in group:
                            for r in addable_entries(c, self.D):
                                adjoin("brackets", ("cell", frozenset(), ("br", r, ta, tb)))
        return counts


def free_weak(
    X: MultipleSet,
    m: int | None = None,
    dim_bound: int | None = None,
    size_bound: int = 12,
    stages: int = 1,
    budget: int | None = None,
) -> FreeWeakResult:
    """Stage-bounded free stretching over a generating multiple set.

    ``free_strict`` validates ``X`` and raises InvalidBase when it fails.
    """
    N = dim_bound if dim_bound is not None else X.dim_bound
    pres = free_strict(X, N, size_bound, budget=budget)
    cat = quotient_to_category(pres)
    umap = unit_map(pres)

    rev_cat = None
    cat_reversors = None
    if m is not None:
        # the projection needs reversor images at every level, so search the
        # full (all dimensions) minimal structure on the strict layer
        found = search_reversors(cat, 0, "minimal", budget=budget)
        if not found:
            raise BoundsTooSmall("strict layer admits no reversor structure")
        full = found[0]
        rev_cat = {}
        for ch in full.chains:
            rev_cat[(ch.color, ch.entries[0])] = ch.map_at(0)
        restricted = [ch for ch in full.chains if len(ch.color) > m]
        cat_reversors = ReversorStructure(base=cat.base, m=m, kind="minimal", chains=restricted)

    comp = _Completion(X, cat, umap, N, m, rev_cat)
    for c in X.colors():
        for x in X.cells_at(c):
            comp.materialize(("cell", frozenset(), ("gen", c, x)), 0)
    log = []
    for k in range(1, stages + 1):
        log.append(comp.run_stage(k))

    base_M = MultipleSet(X.universe_bound, N)
    base_M.cells = {c: sorted(tab) for c, tab in comp.cells.items() if tab}
    for c in base_M.colors():
        for d in c:
            stab, ttab = {}, {}
            for cid in base_M.cells_at(c):
                t = comp.cells[c][cid]
                stab[cid] = _render(comp.face_term(t, d, SOURCE))
                ttab[cid] = _render(comp.face_term(t, d, TARGET))
            base_M.src[(c, d)] = stab
            base_M.tgt[(c, d)] = ttab

    refl = ReflexiveStructure(base=base_M)
    for c in base_M.colors():
        if len(c) + 1 > N:
            continue
        for l in addable_entries(c, X.universe_bound):
            tab = {}
            for cid in base_M.cells_at(c):
                image = _push_refl(l, comp.cells[c][cid])
                iid = _render(image)
                if iid in comp.cells.get(add(c, l), {}):
                    tab[cid] = iid
            if tab:
                refl.refl[(c, l)] = tab
    # object degeneracies when the empty color has cells
    magma = MagmaStructure(base=base_M, refl=refl)
    for c, tab in comp.cells.items():
        for cid, t in tab.items():
            if t[0] == "comp":
                magma.comp.setdefault((c, t[1]), {})[
                    (_render(t[2]), _render(t[3]))
                ] = cid

    brackets: dict[tuple[Color, int], dict] = {}
    m_rev_tables: dict[tuple[Color, int], dict] = {}
    for c, tab in comp.cells.items():
        for cid, t in tab.items():
            if t[0] == "cell" and not t[1] and t[2][0] == "br":
                r, ta, tb = t[2][1], t[2][2], t[2][3]
                brackets.setdefault((_term_color(ta), r), {})[
                    (_render(ta), _render(tb))
                ] = cid
            elif t[0] == "cell" and not t[1] and t[2][0] == "rev":
                ev, sub = t[2][1], t[2][2]
                m_rev_tables.setdefault((_term_color(sub), ev), {})[_render(sub)] = cid

    e = Stretching(
        magma=magma,
        cat=cat,
        pi=comp.pi,
        brackets=brackets,
        m=m,
        cat_reversors=cat_reversors,
        m_rev_tables=m_rev_tables or None,
        stage_of=comp.stage_of,
        stage=stages,
        stage_log=log,
    )
    unit = MsMorphism(
        X,
        base_M,
        {
            c: {x: _render(("cell", frozenset(), ("gen", c, x))) for x in X.cells_at(c)}
            for c in X.colors()
        },
    )
    terms = {(c, cid): t for c, tab in comp.cells.items() for cid, t in tab.items()}
    return FreeWeakResult(
        stretching=e, unit=unit, stages=stages, bounds=(N, size_bound),
        stage_log=log, terms=terms,
    )


def algebra_unit_check(fw: FreeWeakResult, h: MsMorphism) -> ValidationReport:
    """Unit law of an algebra structure: h after the unit is the identity."""
    report = ValidationReport()
    X = fw.unit.source
    for c in X.colors():
        for x in X.cells_at(c):
            image = h.maps.get(c, {}).get(fw.unit.maps[c][x])
            if image != x:
                report.add("ALG-UNIT", c, (x,), f"h(unit({x!r})) = {image!r}")
    return report.sorted()
