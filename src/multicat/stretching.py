"""Categorical stretchings and the bounded free weak completion.

A stretching is a reflexive magma M sitting over a strict category C via a
projection, with a bracket cell one dimension up for every pair of M-cells
the projection identifies.  The free construction runs a stage-bounded
completion: each stage adjoins formal composites, degeneracies (and, when a
cutoff m is given, formal reversor cells at colors longer than m) for the
previous stage's cells, plus one bracket cell per projection-equal pair.

M-cells are canonical terms in a term graph (``multicat.terms``):
degeneracies are pushed inside composites and stacked in one order, so the
exchange and distribution laws hold structurally.  No strictness law is
applied to M; distinct formal composites with equal projections are
exactly what brackets connect.  The graph's one constructor makes each cell
and its faces; the completion's one hook on it reads the cell's projection
off the strict layer and records it with its stage.  Each stage names and
indexes only the cells made since the last, pairs cells through the face
columns, and logs what each loop added once per loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colors import Color, add, addable_entries, minus
from .core import (
    _MISSING,
    SOURCE,
    TARGET,
    CellId,
    MsMorphism,
    MultipleSet,
    cell_sets,
    faces_total,
    int_problem,
    key_problem,
    record_problem,
    stage_log_problem,
    validate_multiple_set,
    well_formed,
)
from .errors import BoundsTooSmall
from .magma import MagmaStructure, _pullback, _scan_reflexive_magma
from .reflexive import ReflexiveTerms, _Sealed, admissible_refl_keys
from .report import ValidationReport
from .reversors import PHASE as REVERSOR_PHASE, ReversorSpace, ReversorStructure
from .strictcat import StrictCategory, free_strict, quotient_to_category, unit_map, validate_strict
from .terms import Budget, as_budget


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


def _swap_tables(r: ReversorStructure) -> dict[tuple[Color, int], dict[CellId, CellId]]:
    """(color, entry) -> the swap map of each single-map chain of ``r``."""
    return {(ch.color, ch.entries[0]): ch.map_at(0) for ch in r.chains if len(ch.entries) == 1}


def _validate_pi(e: Stretching, report: ValidationReport, m_members: dict[Color, set[CellId]],
                 c_members: dict[Color, set[CellId]], faces_ok: bool):
    """The projection laws, after the document rule for the projection's
    records: each is keyed by a cell of M at a color.  The face squares read
    the face tables of M and of C, so they run only when ``faces_ok`` says
    both are total; ``m_members`` and ``c_members`` are the ``cell_sets`` of
    M and of C."""
    M, C = e.magma.base, e.cat.base
    for c, tab in e.pi.items():
        if (broken := key_problem("pi", c)) is not None:
            report.add("SHAPE", broken[0], (), broken[1])
        elif (problem := record_problem("pi", c, tab.keys(), m_members.get(c, set()))):
            report.add("SHAPE", c, (), problem)
    for c in M.colors():
        pmap = e.pi.get(c, {})
        get, images = pmap.get, c_members.get(c, ())
        xs = M.cells_at(c)
        outside = [x for x in xs if get(x, _MISSING) not in images]
        for x in outside:
            if x not in pmap:
                report.add("PI", c, (x,), "projection undefined")
            else:
                report.add("PI", c, (x,), f"image {pmap[x]!r} not a cell of the strict layer")
        if outside:
            xs = [x for x in xs if get(x, _MISSING) in images]
        if not (faces_ok and xs):
            continue
        for d in c:
            lower = e.pi.get(minus(c, d), {}).get
            for m_tabs, c_tabs, pol in ((M.src, C.src, SOURCE), (M.tgt, C.tgt, TARGET)):
                m_face, c_face = m_tabs[(c, d)], c_tabs[(c, d)]
                for x in [x for x in xs if lower(m_face[x]) != c_face[pmap[x]]]:
                    report.add("PI", c, (x,), f"face entry={d} polarity={pol}")
    # degeneracies
    if e.magma.refl is not None and e.cat.refl is not None:
        for (c, l), tab in e.magma.refl.refl.items():
            if l in c or l < 1:  # reported by the reflexive scan
                continue
            want = e.cat.refl.refl.get((c, l), {}).get
            down, up = e.pi.get(c, {}).get, e.pi.get(add(c, l), {}).get
            for x in [x for x, dx in tab.items() if up(dx) != want(down(x))]:
                report.add("PI", c, (x,), f"degeneracy added={l}")
    # composites
    for (c, d), tab in e.magma.comp.items():
        want = e.cat.comp.get((c, d), {}).get
        p = e.pi.get(c, {}).get
        for pair in [(a, b) for (a, b), r in tab.items() if p(r) != want((p(a), p(b)))]:
            report.add("PI", c, pair, f"composite direction={d}")
    # reversors
    if e.m_rev_tables and e.cat_reversors is not None:
        cat_tabs = _swap_tables(e.cat_reversors)
        for (c, ev), tab in e.m_rev_tables.items():
            want = cat_tabs.get((c, ev), {}).get
            p = e.pi.get(c, {}).get
            for x in [x for x, jx in tab.items() if p(jx) != want(p(x))]:
                report.add("PI", c, (x,), f"reversor entry={ev}")


def validate_stretching(e: Stretching) -> ValidationReport:
    """Layer validity, the projection laws, and the three bracket axioms.

    For stage-bounded free results, totality (composites, degeneracies,
    brackets) is only demanded of cells strictly below the last completed
    stage; the frontier is by construction still open, and those scans run
    only when the stages are integers >= 0.  The projection, bracket and
    staged totality scans read the face tables of M (and of C) only when
    every cell there has its faces (``faces_total``), and run their
    table-lookup checks in any case.  A layer that breaks the document rule
    is reported alone, and the scans that would read it do not run.
    """
    M = e.magma.base
    report = validate_multiple_set(M)
    if not well_formed(M, report):
        return report
    m_members = cell_sets(M)
    m_faces = report.ok or faces_total(M)
    _scan_reflexive_magma(e.magma, report, report.ok, m_members,
                          require_total=e.stage_of is None)
    if e.magma.refl is None:
        report.add("TOTAL", (), (), "M carries no reflexive structure")
    cat_report = validate_strict(e.cat)
    report.extend(cat_report)
    staged = _check_stages(e, report)
    if e.stage_of is not None and staged:
        _check_staged_totality(e, report, m_faces)
    if well_formed(e.cat.base, cat_report):
        c_faces = cat_report.ok or faces_total(e.cat.base)
        _validate_pi(e, report, m_members, cell_sets(e.cat.base), m_faces and c_faces)
    _validate_brackets(e, report, m_members, m_faces, staged)
    return report.sorted()


def _check_stages(e: Stretching, report: ValidationReport) -> bool:
    """The stretching's part of the document rule: ``m``, the stage log,
    ``stage`` and each cell's stage, reported once per color.  Returns
    whether the stages are integers >= 0, so that the staged scans may
    compare them."""
    for problem in (e.m is not None and int_problem(e.m, "m", 0),
                    e.stage_log is not None and stage_log_problem(e.stage_log)):
        if problem:
            report.add("SHAPE", (), (), problem)
    if e.stage_of is None:
        return True
    staged = True
    if (problem := int_problem(e.stage, "stage", 0)) is not None:
        report.add("SHAPE", (), (), problem)
        staged = False
    stages = e.stage_of.values()
    if not (set(map(type, stages)) <= {int} and min(stages, default=0) >= 0):
        staged, reported = False, set()
        for (c, _), s in e.stage_of.items():
            if c not in reported and (problem := int_problem(s, "stage_of value", 0)):
                reported.add(c)
                # a key of no color of M may not compare with the report's colors
                report.add("SHAPE", c if c in e.magma.base.cells else (), (), problem)
    return staged


def _check_staged_totality(e: Stretching, report: ValidationReport, faces_ok: bool):
    """Composites and degeneracies of the cells strictly below the last stage.

    Only those cells are kept, then paired by face; pairing reads M's face
    tables, so it runs only when ``faces_ok``.
    """
    M = e.magma.base
    last = e.stage - 1
    stage = e.stage_of.get
    inside = {c: [x for x in M.cells_at(c) if stage((c, x), 0) <= last] for c in M.colors()}
    if faces_ok:
        for c, cells in inside.items():
            for d in c:
                tab = e.magma.comp.get((c, d), {})
                for pair in [pair for pair in _pullback(M, c, d, cells) if pair not in tab]:
                    report.add("TOTAL", c, pair, f"staged composite missing, direction={d}")
    if e.magma.refl is not None:
        for c, l in admissible_refl_keys(M):
            tab = e.magma.refl.refl.get((c, l), {})
            for x in [x for x in inside[c] if x not in tab]:
                report.add("TOTAL", c, (x,), f"staged degeneracy missing, added={l}")


def _validate_brackets(e: Stretching, report: ValidationReport,
                       members: dict[Color, set[CellId]], faces_ok: bool, staged: bool):
    """Bracket totality, which compares stages and so runs only when
    ``staged``, and BR-PI by table lookup; BR-END and BR-FACE read M's face
    tables, so they run only when ``faces_ok``.  ``members`` is ``cell_sets``
    of M."""
    M = e.magma.base
    # totality over projection-equal pairs
    if staged:
        max_stage = None if e.stage_of is None else e.stage - 1
        for c in M.colors():
            if len(c) + 1 > M.dim_bound:
                continue
            pairs = pi_equal_pairs(e, c, max_stage=max_stage)
            for r in addable_entries(c, M.universe_bound):
                tab = e.brackets.get((c, r), {})
                for pair in [pair for pair in pairs if pair not in tab]:
                    report.add("BR-TOTAL", c, pair, f"added={r}")

    cat_refl = e.cat.refl.refl if e.cat.refl is not None else None
    for (c, r), tab in e.brackets.items():
        if (broken := key_problem("brackets", (c, r))) is not None:
            report.add("SHAPE", broken[0], (), broken[1])
            continue
        if r in c or r < 1:
            for pair in tab:
                report.add("BR-TOTAL", c, pair, f"added={r} cannot be added to {list(c)}")
            continue
        up = add(c, r)
        here, above = members.get(c, ()), members.get(up, ())
        outside = [(a, b) for (a, b), x in tab.items()
                   if not (a in here and b in here and x in above)]
        if outside:
            tab = dict(tab)  # the other scans read the other entries
            for a, b in outside:
                x = tab.pop((a, b))
                if not (a in here and b in here):
                    report.add("BR-TOTAL", c, (a, b),
                               f"added={r} endpoint not a cell at {list(c)}")
                else:
                    report.add("BR-TOTAL", c, (a, b), f"bracket image {x!r} not at {list(up)}")
        if not tab:
            continue
        if faces_ok:
            src, tgt = M.src[(up, r)], M.tgt[(up, r)]
            for pair in [(a, b) for (a, b), x in tab.items() if src[x] != a]:
                report.add("BR-END", c, pair, f"added={r} polarity={SOURCE}")
            for pair in [(a, b) for (a, b), x in tab.items() if tgt[x] != b]:
                report.add("BR-END", c, pair, f"added={r} polarity={TARGET}")
            for s in c:
                lower = e.brackets.get((minus(c, s), r), {}).get
                for tabs, pol in ((M.src, SOURCE), (M.tgt, TARGET)):
                    face, face_up = tabs[(c, s)], tabs[(up, s)]
                    for pair in [(a, b) for (a, b), x in tab.items()
                                 if lower((face[a], face[b])) != face_up[x]]:
                        report.add("BR-FACE", c, pair, f"added={r} entry={s} polarity={pol}")
        # BR-PI: the projections of both endpoints have one degeneracy,
        # and it is the bracket's projection
        if cat_refl is None:
            bad = list(tab)
        else:
            want = cat_refl.get((c, r), {}).get
            p, p_up = e.pi.get(c, {}).get, e.pi.get(up, {}).get
            bad = [(a, b) for (a, b), x in tab.items()
                   if (w := want(p(a))) is None or w != want(p(b)) or p_up(x) != w]
        for pair in bad:
            report.add("BR-PI", c, pair, f"added={r}")


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


class _Completion(ReflexiveTerms):
    """The free magma M of the weak completion, as canonical interned terms.

    Every node is a cell of M.  Beyond the generators and their stacked
    degeneracies (``ReflexiveTerms``) there are composite nodes, brackets
    ("br", r, a, b), one dimension up in entry r with faces a and b there,
    and formal reversor cells ("rev", e, t), whose e-faces swap t's; their
    face rules are the term graph's.  ``refl`` also pushes a degeneracy
    through composites, so the distribution laws hold structurally too.
    Each cell's projection and stage are worked out once, in ``_admit``,
    when it is made.
    """

    def __init__(self, X: MultipleSet, cat: StrictCategory, umap, dim_bound, m,
                 cat_reversors: ReversorStructure | None, budget: Budget):
        self.cat = cat
        self.umap = umap  # (color, gen) -> strict class cell
        self.m = m
        # (color, entry) -> swap map in C
        self.rev_cat = {} if cat_reversors is None else _swap_tables(cat_reversors)
        self.pi: list[CellId] = []
        self.stage_of: list[int] = []
        self.stage = 0
        super().__init__(X, dim_bound, budget, "weak completion")

    def _admit(self, node: tuple, color: Color, size: int, nid: int):
        """A new cell's projection, read off the quotient C, and its stage.
        M's composites, degeneracies and brackets project onto composable
        pairs and admissible degeneracies of C, all of which the quotient
        holds; only a reversor cell can ask C for what it lacks."""
        if self.sealed:
            raise _Sealed
        kind, pi = node[0], self.pi
        if kind == "comp":
            px = self.cat.comp[(color, node[1])][(pi[node[2]], pi[node[3]])]
        elif kind == "gen":
            px = self.umap[(node[1], node[2])]
        elif kind == "rev":
            below = self.color[node[2]]
            tab = self.rev_cat.get((below, node[1]))
            if tab is None:
                raise BoundsTooSmall(f"strict layer lacks reversor at {list(below)}")
            px = tab[pi[node[2]]]
        else:
            px = self.cat.refl.refl[(self.color[node[2]], node[1])][pi[node[2]]]
        pi.append(px)
        self.stage_of.append(self.stage)

    def refl(self, l: int, t: int) -> int:
        node = self.nodes[t]
        if node[0] == "comp":
            return self.comp(node[1], self.refl(l, node[2]), self.refl(l, node[3]))
        return super().refl(l, t)

    def _name(self, node: tuple) -> CellId:
        kind, name = node[0], self.name
        if kind == "comp":
            return f"({name[node[2]]} *{node[1]} {name[node[3]]})"
        if kind == "br":
            return f"[{name[node[2]]};{name[node[3]]}]^{node[1]}"
        if kind == "rev":
            return f"j{node[1]}({name[node[2]]})"
        return super()._name(node)

    def run_stage(self, stage: int) -> dict:
        """Adjoin one stage to the cells of the earlier ones, and log the
        cells each kind of loop added, faces included, so that the log sums
        to the cells built."""
        self.stage = stage
        prev = self.cells_by_color()
        nodes, pi = self.nodes, self.pi
        counts = {"composites": 0, "degeneracies": 0, "reversors": 0, "brackets": 0}
        last = len(nodes)

        def tally(kind: str):
            nonlocal last
            counts[kind] += len(nodes) - last
            last = len(nodes)

        refl, comp, rev, br = self.refl, self.comp, self.rev, self.br
        for c in sorted(prev, key=lambda c: (len(c), c)):
            items = sorted(prev[c], key=self.name.__getitem__)
            entries = self.addable(c)
            for l in entries:
                for t in items:
                    refl(l, t)
            tally("degeneracies")
            # composites, pairing each cell with those whose d-target is its d-source
            for d in c:
                S, T = self.src[d], self.tgt[d]
                by_target: dict[int, list[int]] = {}
                for b in items:
                    by_target.setdefault(T[b], []).append(b)
                for a in items:
                    for b in by_target.get(S[a], ()):
                        comp(d, a, b)
            tally("composites")
            # formal reversor cells, above the cutoff only
            if self.m is not None and len(c) > self.m:
                for e in c:
                    for t in items:
                        rev(e, t)
                tally("reversors")
            # brackets over projection-equal pairs
            if entries:
                by_image: dict[CellId, list[int]] = {}
                for t in items:
                    by_image.setdefault(pi[t], []).append(t)
                for group in by_image.values():
                    for a in group:
                        for b in group:
                            for r in entries:
                                br(r, a, b)
                tally("brackets")
        return counts


@dataclass
class FreeWeakResult:
    stretching: Stretching
    unit: MsMorphism
    stage_log: list[dict]


def free_weak(
    X: MultipleSet,
    m: int | None = None,
    dim_bound: int | None = None,
    size_bound: int = 12,
    stages: int = 1,
    budget: int | Budget | None = None,
) -> FreeWeakResult:
    """Stage-bounded free stretching over a generating multiple set.

    ``free_strict`` validates ``X`` and raises InvalidBase when it fails.
    The strict closure, the reversor search and the completion spend one
    shared ``budget``; the completion spends one unit per cell.  An ``m`` or
    ``stages`` that is not an integer >= 0 is a ValueError.
    """
    for arg, value in (("m", m), ("stages", stages)):
        if value is not None and (problem := int_problem(value, arg, 0)) is not None:
            raise ValueError(problem)
    budget = as_budget(budget)
    N = dim_bound if dim_bound is not None else X.dim_bound
    pres = free_strict(X, N, size_bound, budget=budget)
    cat = quotient_to_category(pres)
    umap = unit_map(pres)

    cat_reversors = None
    if m is not None:
        # the first minimal structure above m on the strict layer, paid for
        # as the one structure taken
        space = ReversorSpace(cat.base, m, "minimal", budget)
        if not space:
            raise BoundsTooSmall("strict layer admits no reversor structure")
        cat_reversors = space[0]
        budget.spend(1, REVERSOR_PHASE)

    g = _Completion(X, cat, umap, N, m, cat_reversors, budget)
    log = [g.run_stage(k) for k in range(1, stages + 1)]
    refl, groups = g.tabulate()
    name = g.name
    pi = {c: {name[t]: g.pi[t] for t in ids} for c, ids in groups.items()}
    stage_of = {(c, name[t]): g.stage_of[t] for c, ids in groups.items() for t in ids}
    magma = MagmaStructure(base=refl.base, refl=refl)
    brackets: dict[tuple[Color, int], dict] = {}
    m_rev_tables: dict[tuple[Color, int], dict] = {}
    comp, color = magma.comp, g.color
    for t, node in enumerate(g.nodes):
        kind = node[0]
        if kind == "comp":
            tabs, key, cell = comp, (color[t], node[1]), (name[node[2]], name[node[3]])
        elif kind == "br":
            tabs, key, cell = brackets, (color[node[2]], node[1]), (name[node[2]], name[node[3]])
        elif kind == "rev":
            tabs, key, cell = m_rev_tables, (color[t], node[1]), name[node[2]]
        else:
            continue
        tab = tabs.get(key)
        if tab is None:
            tab = tabs[key] = {}
        tab[cell] = name[t]
    e = Stretching(magma=magma, cat=cat, pi=pi, brackets=brackets, m=m,
                   cat_reversors=cat_reversors, m_rev_tables=m_rev_tables or None,
                   stage_of=stage_of, stage=stages, stage_log=log)
    unit = MsMorphism(X, refl.base, {c: {x: x for x in X.cells_at(c)} for c in X.colors()})
    return FreeWeakResult(stretching=e, unit=unit, stage_log=log)


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
