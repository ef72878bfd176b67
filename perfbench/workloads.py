"""The benchmark's four workloads.

Every workload builds its inputs from the seed alone, writes the documents
the CLI reads, and then offers one *pass*: a fixed list of operations run
back to back by one client (closed loop).  Each operation is timed on its
own; its output is checked afterwards, outside the timed region, against an
answer that does not come from the code under test at run time:

* the independent oracles in ``tests/oracles.py``;
* closed forms (two loops at one vertex, size 2n-1: 2^(n+1)-1 classes);
* validity by construction (``random_multiple_set``, free constructions,
  quotients of free strict categories);
* counts recorded by hand from the seed commit (ROADMAP item 1 baselines).

Inputs of the fixed-shape workloads are relabelled with seeded names of the
original lengths, so the work is the same for every seed while no cell name
repeats between seeds.
"""

from __future__ import annotations

import io
import json
import os
import random
import string
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import multicat as mc
import multicat.cli
import oracles  # tests/oracles.py of the checkout

@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` judges its output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def call(fn: Callable[[], Any]):
    """Run an operation, returning a raised exception as its output."""
    try:
        return fn()
    except Exception as exc:  # the check decides whether it was expected
        return exc


def cli(argv: list[str]) -> tuple[int, str, str]:
    """``multicat`` in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = multicat.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def count_lines(stdout: str, label: str) -> dict[str, int]:
    """``<label> color=[..] count=n`` lines as {"[..]": n}."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith(label + " color="):
            color, count = line[len(label) + 7:].rsplit(" count=", 1)
            out[color] = int(count)
    return out


def write_doc(path: str, obj, kind: str | None = None) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mc.serialize(obj, kind))
    return path


# -- fixed-shape inputs --------------------------------------------------------


def _ms(universe: int, dim: int, cells: dict, faces: dict) -> mc.MultipleSet:
    """faces: (color, entry) -> {cell: (source, target)}."""
    ms = mc.MultipleSet(universe, dim)
    ms.cells = {c: sorted(xs) for c, xs in cells.items()}
    for key, tab in faces.items():
        ms.src[key] = {x: st[0] for x, st in tab.items()}
        ms.tgt[key] = {x: st[1] for x, st in tab.items()}
    return ms


def path2() -> mc.MultipleSet:
    return _ms(1, 1, {(): ["v0", "v1", "v2"], (1,): ["x", "y"]},
               {((1,), 1): {"y": ("v0", "v1"), "x": ("v1", "v2")}})


def parallel_edges() -> mc.MultipleSet:
    return _ms(2, 2, {(): ["v0", "v1"], (1,): ["a", "b"]},
               {((1,), 1): {"a": ("v0", "v1"), "b": ("v0", "v1")}})


def square() -> mc.MultipleSet:
    return _ms(2, 2, {(): ["v00", "v01", "v10", "v11"], (1,): ["e0", "e1"],
                      (2,): ["f0", "f1"], (1, 2): ["A"]},
               {((1,), 1): {"e0": ("v00", "v01"), "e1": ("v10", "v11")},
                ((2,), 2): {"f0": ("v00", "v10"), "f1": ("v01", "v11")},
                ((1, 2), 1): {"A": ("f0", "f1")},
                ((1, 2), 2): {"A": ("e0", "e1")}})


def grid2x2() -> mc.MultipleSet:
    r2, r3 = range(2), range(3)
    return _ms(
        2, 2,
        {(): [f"v{a}{b}" for a in r3 for b in r3],
         (1,): [f"e{a}{b}" for a in r2 for b in r3],
         (2,): [f"f{a}{b}" for a in r3 for b in r2],
         (1, 2): [f"A{a}{b}" for a in r2 for b in r2]},
        {((1,), 1): {f"e{a}{b}": (f"v{a}{b}", f"v{a + 1}{b}") for a in r2 for b in r3},
         ((2,), 2): {f"f{a}{b}": (f"v{a}{b}", f"v{a}{b + 1}") for a in r3 for b in r2},
         ((1, 2), 1): {f"A{a}{b}": (f"f{a}{b}", f"f{a + 1}{b}") for a in r2 for b in r2},
         ((1, 2), 2): {f"A{a}{b}": (f"e{a}{b}", f"e{a}{b + 1}") for a in r2 for b in r2}},
    )


def loops(k: int) -> mc.MultipleSet:
    """k loops at one vertex; its free strict category is infinite."""
    return _ms(1, 1, {(): ["v"], (1,): [f"l{i}" for i in range(k)]},
               {((1,), 1): {f"l{i}": ("v", "v") for i in range(k)}})


def relabel(ms: mc.MultipleSet, rng: random.Random) -> mc.MultipleSet:
    """Rename every cell to distinct random letters of the same length."""
    used: set[str] = set()
    names: dict[tuple, str] = {}
    for c in ms.colors():
        for x in ms.cells_at(c):
            while True:
                new = "".join(rng.choice(string.ascii_lowercase) for _ in x)
                if new not in used:
                    break
            used.add(new)
            names[(c, x)] = new
    out = mc.MultipleSet(ms.universe_bound, ms.dim_bound)
    out.cells = {c: sorted(names[(c, x)] for x in ms.cells_at(c)) for c in ms.colors()}
    for tabs, new_tabs in ((ms.src, out.src), (ms.tgt, out.tgt)):
        for (c, d), tab in tabs.items():
            lower = mc.minus(c, d)
            new_tabs[(c, d)] = {names[(c, x)]: names[(lower, y)] for x, y in tab.items()}
    return out


# -- weak-build ----------------------------------------------------------------


class WeakBuild:
    """``free weak`` on path2, then serialize the 23,796-cell result."""

    name = "weak-build"
    # hand-recorded from the seed commit; full matches ROADMAP item 1
    # (23,796 M-cells).  Stage lines are checked on composites and
    # degeneracies only: the bracket and reversor counters log attempts,
    # a known defect (ROADMAP item 3) whose fix must not read as a failure.
    EXPECTED = {
        "full": {"stages": 4, "cells": {"[]": 3, "[1]": 23793}, "brackets": {"[1]": 3},
                 "stage_new": [(1, 3), (24, 0), (288, 0), (23472, 0)],
                 "cat_cells": {"[]": 3, "[1]": 6}, "m_cells": 23796},
        "smoke": {"stages": 2, "cells": {"[]": 3, "[1]": 33}, "brackets": {"[1]": 3},
                  "stage_new": [(1, 3), (24, 0)],
                  "cat_cells": {"[]": 3, "[1]": 6}, "m_cells": 36},
    }

    def setup(self, workdir: str, seed: int, scale: str):
        self.want = self.EXPECTED[scale]
        self.doc = write_doc(os.path.join(workdir, "path2.mset"),
                             relabel(path2(), random.Random(seed)))
        self.out = os.path.join(workdir, "weak.mset")

    def answers(self):
        pass

    def ops(self) -> list[Op]:
        argv = ["free", "weak", self.doc, "--stages", str(self.want["stages"]),
                "--size", "12", "--out", self.out]
        return [Op("free-weak+serialize", lambda: cli(argv), self._check)]

    def _check(self, got) -> bool:
        if not isinstance(got, tuple) or got[0] != 0:
            return False
        stdout = got[1]
        stage_new = []
        for line in stdout.splitlines():
            if line.startswith("stage "):
                fields = dict(kv.split("=") for kv in line.split(": ", 1)[1].split())
                stage_new.append((int(fields["composites"]), int(fields["degeneracies"])))
        if (count_lines(stdout, "cells") != self.want["cells"]
                or count_lines(stdout, "brackets") != self.want["brackets"]
                or stage_new != self.want["stage_new"]):
            return False
        with open(self.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        cells = {json.dumps(c): len(ids) for c, ids in doc["magma"]["cells"]}
        cat_cells = {json.dumps(c): len(ids) for c, ids in doc["cat"]["cells"]}
        return (doc["kind"] == "stretching"
                and cells == self.want["cells"]
                and cat_cells == self.want["cat_cells"]
                and len(doc["pi"]) == self.want["m_cells"]
                and len(doc["brackets"]) == self.want["brackets"]["[1]"])


# -- verify-big ----------------------------------------------------------------

# axioms that judge a bracket table entry; the oracle also reports BR-TOTAL
# for the open frontier of a staged result, which the validator exempts
BRACKET_ENTRY_AXIOMS = {"BR-END", "BR-FACE", "BR-PI"}


class VerifyBig:
    """``validate`` on large canonical documents; no free construction runs."""

    name = "verify-big"
    EXPECTED = {"full": {"stages": 3, "square_cells": 1829, "parallel_cells": 854},
                "smoke": {"stages": 1, "square_cells": 33, "parallel_cells": 16}}

    def setup(self, workdir: str, seed: int, scale: str):
        self.want = self.EXPECTED[scale]
        rng = random.Random(seed)
        stages = self.want["stages"]
        self.square = mc.free_weak(relabel(square(), rng), stages=stages).stretching
        parallel = mc.free_weak(relabel(parallel_edges(), rng), stages=stages).stretching
        grid = mc.quotient_to_category(mc.free_strict(relabel(grid2x2(), rng), 2, 12))
        self.docs = {
            "square": write_doc(os.path.join(workdir, "square.mset"), self.square),
            "parallel": write_doc(os.path.join(workdir, "parallel.mset"), parallel),
            "grid": write_doc(os.path.join(workdir, "grid.mset"), grid, "strict"),
        }
        # one bracket entry of the square result points at another bracket
        # cell of the same table, so its endpoints are certainly wrong
        with open(self.docs["square"], encoding="utf-8") as fh:
            doc = json.load(fh)
        records = doc["brackets"]
        i = rng.randrange(len(records))
        color, r = records[i][0], records[i][1]
        others = [rec[4] for rec in records
                  if rec[0] == color and rec[1] == r and rec[4] != records[i][4]]
        self.corruption = (tuple(color), r, records[i][2], records[i][3], rng.choice(others))
        records[i][4] = self.corruption[4]
        self.docs["corrupt"] = os.path.join(workdir, "square-corrupt.mset")
        with open(self.docs["corrupt"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        self.sizes = {
            "square": sum(len(v) for v in self.square.magma.base.cells.values()),
            "parallel": sum(len(v) for v in parallel.magma.base.cells.values()),
        }

    def answers(self):
        if self.sizes != {"square": self.want["square_cells"],
                          "parallel": self.want["parallel_cells"]}:
            raise RuntimeError(f"verify-big inputs have the wrong size: {self.sizes}")
        color, r, a, b, cell = self.corruption
        tab = self.square.brackets[(color, r)]
        orig = tab[(a, b)]
        tab[(a, b)] = cell
        self.corrupt_axioms = oracles.bracket_axiom_ids(self.square) & BRACKET_ENTRY_AXIOMS
        tab[(a, b)] = orig
        self.square = None
        if "BR-END" not in self.corrupt_axioms:
            raise RuntimeError("oracle misses the corrupted bracket endpoint")

    def ops(self) -> list[Op]:
        def ok(got):
            return got == (0, "ok\n", "")

        def corrupt(got):
            if not isinstance(got, tuple) or got[0] != 1:
                return False
            report = json.loads(got[1])
            return {v["axiom"] for v in report["violations"]} == self.corrupt_axioms

        d = self.docs
        return [
            Op("validate-square", lambda: cli(["validate", d["square"]]), ok),
            Op("validate-parallel", lambda: cli(["validate", d["parallel"]]), ok),
            Op("validate-corrupt", lambda: cli(["validate", d["corrupt"], "--format", "json"]),
               corrupt),
            Op("validate-grid-strict", lambda: cli(["validate", d["grid"], "--strict"]), ok),
        ]


# -- strict-closure ------------------------------------------------------------


class StrictClosure:
    """Saturation on two loops, a 2-D grid quotient, and the reversor search."""

    name = "strict-closure"
    # nodes are ROADMAP item 1 baselines (8,357 / 23,717), recorded by hand
    # from the seed commit like the grid's class counts
    EXPECTED = {"full": {"sizes": {15: 8357, 17: 23717}, "loops": 6},
                "smoke": {"sizes": {7: 85, 9: 293}, "loops": 3}}
    GRID_CLASSES = {(): 9, (1,): 18, (2,): 18, (1, 2): 36}
    GRID_NODES = 259

    def setup(self, workdir: str, seed: int, scale: str):
        self.want = self.EXPECTED[scale]
        rng = random.Random(seed)
        self.two_loops = relabel(loops(2), rng)
        self.grid = relabel(grid2x2(), rng)
        self.k_loops = relabel(loops(self.want["loops"]), rng)

    def answers(self):
        pass

    def ops(self) -> list[Op]:
        ops = []
        for size, nodes in self.want["sizes"].items():
            ops.append(Op(f"free-strict-loops-{size}",
                          lambda size=size: self._loops(size),
                          lambda got, size=size, nodes=nodes: self._check_loops(got, size, nodes)))
        ops.append(Op("grid-strict", self._grid, self._check_grid))
        k = self.want["loops"]
        ops.append(Op(f"search-reversors-{k}",
                      lambda: len(mc.search_reversors(self.k_loops, 0, "minimal")),
                      lambda got: got == k ** k))
        return ops

    def _loops(self, size: int):
        p = mc.free_strict(self.two_loops, 1, size)
        counts, nodes = p.class_counts(), len(p.nodes)
        return counts, nodes, call(lambda: mc.quotient_to_category(p))

    @staticmethod
    def _check_loops(got, size: int, nodes: int) -> bool:
        # a word of length n has size 2n-1; there are 2^(n+1)-1 words of
        # length at most n, the empty word being the identity
        n = (size + 1) // 2
        if not isinstance(got, tuple):
            return False
        counts, got_nodes, quotient = got
        return (counts == {(): 1, (1,): 2 ** (n + 1) - 1} and got_nodes == nodes
                and isinstance(quotient, mc.BoundsTooSmall))

    def _grid(self):
        p = mc.free_strict(self.grid, 2, 12)
        cat = mc.quotient_to_category(p)
        return p.class_counts(), len(p.nodes), mc.validate_strict(cat).ok

    def _check_grid(self, got) -> bool:
        return got == (self.GRID_CLASSES, self.GRID_NODES, True)


# -- small-mix -----------------------------------------------------------------


class SmallMix:
    """A seeded stream of small requests at the test suite's scale."""

    name = "small-mix"
    # Outermost calls of the public entry points while the test suite runs,
    # grouped by request kind, as ``python3 perfbench/mixprobe.py`` counts
    # them on the seed commit.  A pass scales them to PASS_REQUESTS[scale]
    # requests, so the mix follows the test suite's traffic.
    TEST_SUITE_CALLS = {"validate-mutated-strict": 627, "validate-mutated-stretching": 310,
                        "validate-mutated": 136, "validate": 128, "free-strict": 121,
                        "free-reflexive": 62, "free-weak": 32}
    PASS_REQUESTS = {"full": 1000, "smoke": 24}
    MUTATED_DOCS = {"full": 40, "smoke": 3}  # distinct documents per mutated kind
    # (dim, sizes, size bound) of the strict pool.  Its inputs glue vertices
    # (loops make the free category infinite, so many end in BoundsTooSmall);
    # d=2 keeps size bounds 4-6 as the oracle test does, because the naive
    # oracle needs seconds per input above that.
    STRICT_POOL = [(1, 1, 6), (1, 1, 7), (1, 1, 8), (1, 2, 6), (1, 2, 7), (1, 2, 8),
                   (1, 1, 8), (1, 2, 8), (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 2, 4),
                   (2, 2, 5), (2, 1, 6)]
    # (dim, sizes, size bound) of the categories that the mutated strict and
    # stretching documents start from: unglued inputs, whose shape does not
    # depend on the seed, so their free categories close.  The stretchings
    # are their identity stretchings, as in the test suite's mutation tests.
    CATEGORIES = [(1, 1, 6), (1, 2, 8), (2, 1, 7), (2, 2, 8)]
    # (dim, sizes, size bound, stages) of the weak requests; unglued too,
    # because they need a closing quotient
    WEAK_REQUESTS = [(1, 1, 8, 1), (1, 2, 8, 2), (2, 1, 7, 1), (2, 1, 7, 2)]

    def setup(self, workdir: str, seed: int, scale: str):
        """Every kind cycles through its inputs; the seed shapes the strict
        pool, picks the mutations and shuffles the order."""
        rng = random.Random(seed)
        self.out = os.path.join(workdir, "out.mset")
        self.strict_pool = []
        for i, (d, sizes, s) in enumerate(self.STRICT_POOL):
            ms = mc.random_multiple_set(d, d, sizes=sizes, seed=rng.randrange(2 ** 31),
                                        glue_prob=0.5)
            path = write_doc(os.path.join(workdir, f"strict{i}.mset"), ms)
            self.strict_pool.append((ms, d, s, path))
        self.weak_pool = [(mc.random_multiple_set(d, d, sizes=sizes, glue_prob=0.0),
                           d, s, stages) for d, sizes, s, stages in self.WEAK_REQUESTS]
        self.cats = [mc.quotient_to_category(mc.free_strict(
            mc.random_multiple_set(d, d, sizes=sizes, glue_prob=0.0), d, s))
            for d, sizes, s in self.CATEGORIES]
        self.stretchings = [mc.identity_stretching(cat) for cat in self.cats]
        n_docs = self.MUTATED_DOCS[scale]
        self.mutated = {
            "validate-mutated": [self._mutated_set(workdir, i, rng) for i in range(n_docs)],
            "validate-mutated-strict": [self._mutated_table(
                workdir, f"cat{i}.mset", self.cats[i % len(self.cats)], "comp", "strict", rng)
                for i in range(n_docs)],
            "validate-mutated-stretching": [self._mutated_table(
                workdir, f"str{i}.mset", self.stretchings[i % len(self.stretchings)],
                "brackets", None, rng) for i in range(n_docs)],
        }
        total = sum(self.TEST_SUITE_CALLS.values())
        self.requests = []
        for kind, calls in self.TEST_SUITE_CALLS.items():
            for i in range(max(1, round(calls * self.PASS_REQUESTS[scale] / total))):
                if kind in self.mutated:
                    docs = self.mutated[kind]
                    self.requests.append((kind, i % len(docs)))
                elif kind == "free-weak":
                    self.requests.append((kind, i % len(self.weak_pool)))
                else:
                    self.requests.append((kind, i % len(self.strict_pool)))
        rng.shuffle(self.requests)

    def _mutated_set(self, workdir: str, i: int, rng: random.Random):
        """A copy of a strict-pool input with one face-table entry pointing
        at another lower cell; some glued inputs have nothing to mutate."""
        j, mutated = i, None
        while mutated is None:
            mutated = self._mutate(self.strict_pool[j % len(self.strict_pool)][0], rng)
            j += 1
        return write_doc(os.path.join(workdir, f"mut{i}.mset"), mutated), mutated

    @staticmethod
    def _mutate(ms: mc.MultipleSet, rng: random.Random) -> mc.MultipleSet | None:
        out = mc.MultipleSet(ms.universe_bound, ms.dim_bound,
                             {c: list(xs) for c, xs in ms.cells.items()},
                             {k: dict(v) for k, v in ms.src.items()},
                             {k: dict(v) for k, v in ms.tgt.items()})
        choices = []
        for tabs in (out.src, out.tgt):
            for (c, d), tab in sorted(tabs.items()):
                lower = mc.minus(c, d)
                for x in sorted(tab):
                    if len(out.cells_at(lower)) > 1:
                        choices.append((tabs, (c, d), x, lower))
        if not choices:
            return None
        tabs, key, x, lower = rng.choice(choices)
        tabs[key][x] = rng.choice([y for y in out.cells_at(lower) if y != tabs[key][x]])
        return out

    @staticmethod
    def _mutated_table(workdir: str, name: str, obj, attr: str, kind: str | None,
                       rng: random.Random):
        """Write ``obj`` with one entry of one of its ``attr`` tables (the
        composition tables of a category, the bracket tables of a
        stretching) changed to another cell of its color, or deleted from a
        composition table, as the test suite's mutation tests do."""
        tables = getattr(obj, attr)
        key = rng.choice(sorted(tables))
        tab = tables[key]
        entry = rng.choice(sorted(tab))
        color = key[0] if attr == "comp" else mc.add(*key)
        others = [x for x in obj_cells(obj, color) if x != tab[entry]]
        new = rng.choice(others + [None] if attr == "comp" else others)
        mutation = (key, entry, new)
        with mutated(tables, mutation):
            path = write_doc(os.path.join(workdir, name), obj, kind)
        return path, mutation

    def answers(self):
        self.strict_answers = [self._strict_answer(ms, d, s) for ms, d, s, _ in self.strict_pool]
        self.weak_closes = [self._strict_answer(ms, d, s)[1] for ms, d, s, _ in self.weak_pool]
        self.reflexive_answers = [
            (0, {json.dumps(list(c)): n for c, n in oracles.reflexive_counts(ms, d).items()},
             0, "ok\n") for ms, d, _, _ in self.strict_pool]
        self.mutated_answers = {
            "validate-mutated": [oracles.multiple_set_axiom_ids(ms)
                                 for _, ms in self.mutated["validate-mutated"]],
            "validate-mutated-strict": [],
            "validate-mutated-stretching": [],
        }
        for i, (_, mutation) in enumerate(self.mutated["validate-mutated-strict"]):
            cat = self.cats[i % len(self.cats)]
            with mutated(cat.comp, mutation):
                self.mutated_answers["validate-mutated-strict"].append(strict_axiom_ids(cat))
        for i, (_, mutation) in enumerate(self.mutated["validate-mutated-stretching"]):
            e = self.stretchings[i % len(self.stretchings)]
            with mutated(e.brackets, mutation):
                self.mutated_answers["validate-mutated-stretching"].append(
                    oracles.bracket_axiom_ids(e) & BRACKET_ENTRY_AXIOMS)
        # the run child needs only the documents' paths and the answers
        self.mutated = {kind: [path for path, _ in docs] for kind, docs in self.mutated.items()}
        self.cats = self.stretchings = None

    @staticmethod
    def _strict_answer(ms, d, s):
        """(class counts, quotient closes, reversor structures) from the naive oracle."""
        naive = oracles.NaiveFreeStrict(ms, d, s)
        refl_cls, comp_cls, _, _ = naive._indexes()
        roots: dict[tuple, list] = {}
        for t in naive.parent:
            if naive.find(t) == t:
                roots.setdefault(naive.color_of(t), []).append(t)

        def cface(t, e, pol):
            return naive.find(naive.nface(t, e, pol))

        closes = True
        structures = 1
        for c, rs in roots.items():
            if len(c) + 1 <= d:
                for l in mc.addable_entries(c, ms.universe_bound):
                    closes &= all((l, a) in refl_cls for a in rs)
            for e in c:
                closes &= all((e, a, b) in comp_cls for a in rs for b in rs
                              if cface(a, e, mc.SOURCE) == cface(b, e, mc.TARGET))
                # minimal reversors at m=0: one swap map per (color, entry);
                # every cell picks any image with source and target swapped
                for x in rs:
                    structures *= sum(
                        1 for y in rs
                        if cface(y, e, mc.SOURCE) == cface(x, e, mc.TARGET)
                        and cface(y, e, mc.TARGET) == cface(x, e, mc.SOURCE))
        counts = {json.dumps(list(c)): len(rs) for c, rs in roots.items()}
        return counts, closes, structures

    def ops(self) -> list[Op]:
        ops = []
        for kind, i in self.requests:
            if kind in self.mutated:
                path, want = self.mutated[kind][i], self.mutated_answers[kind][i]
                ops.append(Op(kind, lambda p=path: cli(["validate", p, "--format", "json"]),
                              lambda got, want=want: self._check_mutated(got, want)))
            elif kind == "validate":
                ops.append(Op(kind, lambda p=self.strict_pool[i][3]: cli(["validate", p]),
                              lambda got: got == (0, "ok\n", "")))
            elif kind == "free-reflexive":
                ops.append(Op(kind, lambda i=i: self._reflexive(i),
                              lambda got, want=self.reflexive_answers[i]: got == want))
            elif kind == "free-strict":
                ops.append(Op(kind, lambda i=i: self._strict(i),
                              lambda got, i=i: self._check_strict(got, i)))
            else:
                ops.append(Op(kind, lambda i=i: self._weak(i),
                              lambda got, i=i: self._check_weak(got, i)))
        return ops

    @staticmethod
    def _check_mutated(got, want) -> bool:
        if not isinstance(got, tuple) or got[0] != (1 if want else 0):
            return False
        return {v["axiom"] for v in json.loads(got[1])["violations"]} == want

    def _reflexive(self, i: int):
        _, d, _, path = self.strict_pool[i]
        code, stdout, _ = cli(["free", "reflexive", path, "--dim", str(d), "--out", self.out])
        vcode, vout, _ = cli(["validate", self.out])
        return code, count_lines(stdout, "cells"), vcode, vout

    def _strict(self, i: int):
        _, d, s, path = self.strict_pool[i]
        if os.path.exists(self.out):
            os.remove(self.out)
        code, stdout, stderr = cli(["free", "strict", path, "--dim", str(d), "--size", str(s),
                                    "--out", self.out])
        if code != 0:
            return code, stdout, stderr, None
        vcode, vout, _ = cli(["validate", self.out, "--strict"])
        found = mc.search_reversors(mc.load(self.out), 0, "minimal")
        return code, stdout, (vcode, vout), len(found)

    def _check_strict(self, got, i: int) -> bool:
        counts, closes, structures = self.strict_answers[i]
        if not isinstance(got, tuple):
            return False
        code, stdout, third, found = got
        if count_lines(stdout, "classes") != counts:
            return False
        if not closes:
            return code == 1 and "not materialized" in third
        return code == 0 and third == (0, "ok\n") and found == structures

    def _weak(self, i: int):
        ms, d, s, stages = self.weak_pool[i]
        fw = mc.free_weak(ms, dim_bound=d, size_bound=s, stages=stages)
        return fw.stretching, mc.validate_stretching(fw.stretching).ok

    def _check_weak(self, got, i: int) -> bool:
        if not self.weak_closes[i]:
            return isinstance(got, mc.BoundsTooSmall)
        if not isinstance(got, tuple) or not got[1]:
            return False
        e = got[0]
        counts = {k: len(v) for k, v in e.brackets.items()}
        per_stage: dict = {}
        for (c, r), tab in e.brackets.items():
            up = mc.add(c, r)
            for cell in tab.values():
                key = (e.stage_of[(up, cell)], c, r)
                per_stage[key] = per_stage.get(key, 0) + 1
        return (counts == oracles.expected_bracket_counts(e)
                and per_stage == oracles.stagewise_bracket_counts(e))


def obj_cells(obj, color) -> list:
    """The cells of one color of a category or a stretching."""
    base = obj.base if hasattr(obj, "base") else obj.magma.base
    return base.cells_at(color)


@contextmanager
def mutated(tables: dict, mutation: tuple):
    """Apply (table key, entry, new cell or None to delete) for the block."""
    key, entry, new = mutation
    tab = tables[key]
    orig = tab[entry]
    if new is None:
        del tab[entry]
    else:
        tab[entry] = new
    try:
        yield
    finally:
        tab[entry] = orig


def strict_axiom_ids(cat) -> set:
    """Every axiom ``validate --strict`` checks, from the oracles."""
    return (oracles.magma_axiom_ids(cat.comp, cat.base)
            | oracles.reflexive_axiom_ids(cat.refl.refl, cat.base)
            | oracles.dist_axiom_ids(cat.comp, cat.refl.refl, cat.base)
            | oracles.strict_axiom_ids(cat.comp, cat.refl.refl, cat.base))


WORKLOADS = {w.name: w for w in (WeakBuild, VerifyBig, StrictClosure, SmallMix)}
