"""Hand-built example structures used by the test suite and the CLI corpus."""

from __future__ import annotations

from .core import MultipleSet
from .magma import MagmaStructure
from .reflexive import ReflexiveStructure


def point(universe_bound: int = 1, dim_bound: int = 1) -> MultipleSet:
    """A single object and nothing else."""
    ms = MultipleSet(universe_bound, dim_bound)
    ms.cells[()] = ["p"]
    return ms


def square() -> MultipleSet:
    """One square A with four edges and four vertices, faces consistent.

    Direction-1 faces of the square live at color (2) and vice versa.
    """
    ms = MultipleSet(2, 2)
    ms.cells[()] = ["v00", "v01", "v10", "v11"]
    ms.cells[(1,)] = ["e0", "e1"]
    ms.cells[(2,)] = ["f0", "f1"]
    ms.cells[(1, 2)] = ["A"]
    ms.src[((1,), 1)] = {"e0": "v00", "e1": "v10"}
    ms.tgt[((1,), 1)] = {"e0": "v01", "e1": "v11"}
    ms.src[((2,), 2)] = {"f0": "v00", "f1": "v01"}
    ms.tgt[((2,), 2)] = {"f0": "v10", "f1": "v11"}
    ms.src[((1, 2), 1)] = {"A": "f0"}
    ms.tgt[((1, 2), 1)] = {"A": "f1"}
    ms.src[((1, 2), 2)] = {"A": "e0"}
    ms.tgt[((1, 2), 2)] = {"A": "e1"}
    return ms


def path2() -> MultipleSet:
    """Two composable edges x, y (x after y) over three vertices."""
    ms = MultipleSet(1, 1)
    ms.cells[()] = ["v0", "v1", "v2"]
    ms.cells[(1,)] = ["x", "y"]
    ms.src[((1,), 1)] = {"y": "v0", "x": "v1"}
    ms.tgt[((1,), 1)] = {"y": "v1", "x": "v2"}
    return ms


def single_edge() -> MultipleSet:
    """One non-loop edge; its free strict category has no reversors."""
    ms = MultipleSet(1, 1)
    ms.cells[()] = ["v0", "v1"]
    ms.cells[(1,)] = ["x"]
    ms.src[((1,), 1)] = {"x": "v0"}
    ms.tgt[((1,), 1)] = {"x": "v1"}
    return ms


def parallel_edges() -> MultipleSet:
    """Two parallel edges with equal endpoints, at universe bound 2."""
    ms = MultipleSet(2, 2)
    ms.cells[()] = ["v0", "v1"]
    ms.cells[(1,)] = ["a", "b"]
    ms.src[((1,), 1)] = {"a": "v0", "b": "v0"}
    ms.tgt[((1,), 1)] = {"a": "v1", "b": "v1"}
    return ms


def grid2x2() -> MultipleSet:
    """Four squares glued into a 2x2 grid, composable in both directions."""
    ms = MultipleSet(2, 2)
    ms.cells[()] = [f"v{a}{b}" for a in range(3) for b in range(3)]
    # e[a][b]: color (1), endpoints v[a][b] -> v[a+1][b]
    ms.cells[(1,)] = [f"e{a}{b}" for a in range(2) for b in range(3)]
    # f[a][b]: color (2), endpoints v[a][b] -> v[a][b+1]
    ms.cells[(2,)] = [f"f{a}{b}" for a in range(3) for b in range(2)]
    ms.cells[(1, 2)] = [f"A{a}{b}" for a in range(2) for b in range(2)]
    ms.src[((1,), 1)] = {f"e{a}{b}": f"v{a}{b}" for a in range(2) for b in range(3)}
    ms.tgt[((1,), 1)] = {f"e{a}{b}": f"v{a + 1}{b}" for a in range(2) for b in range(3)}
    ms.src[((2,), 2)] = {f"f{a}{b}": f"v{a}{b}" for a in range(3) for b in range(2)}
    ms.tgt[((2,), 2)] = {f"f{a}{b}": f"v{a}{b + 1}" for a in range(3) for b in range(2)}
    ms.src[((1, 2), 1)] = {f"A{a}{b}": f"f{a}{b}" for a in range(2) for b in range(2)}
    ms.tgt[((1, 2), 1)] = {f"A{a}{b}": f"f{a + 1}{b}" for a in range(2) for b in range(2)}
    ms.src[((1, 2), 2)] = {f"A{a}{b}": f"e{a}{b}" for a in range(2) for b in range(2)}
    ms.tgt[((1, 2), 2)] = {f"A{a}{b}": f"e{a}{b + 1}" for a in range(2) for b in range(2)}
    return ms


def grid(*steps: int) -> MultipleSet:
    """The grid with ``steps[i - 1]`` steps in direction i, in n directions.

    Its cells at color c are the positions p with p_i < a_i for i in c and
    p_i <= a_i otherwise, named by their coordinates (``"p0_1"``).  The
    d-source of p keeps p and the d-target adds 1 to p_d.
    """
    from itertools import product

    from .colors import colors_within

    n = len(steps)
    ms = MultipleSet(n, n)
    for c in colors_within(n, n):
        cells = list(product(*[range(a if i in c else a + 1) for i, a in enumerate(steps, 1)]))
        ms.cells[c] = [_grid_name(p) for p in cells]
        for d in c:
            ms.src[(c, d)] = {_grid_name(p): _grid_name(p) for p in cells}
            ms.tgt[(c, d)] = {_grid_name(p): _grid_name(p[:d - 1] + (p[d - 1] + 1,) + p[d:])
                              for p in cells}
    return ms


def _grid_name(p: tuple[int, ...]) -> str:
    return "p" + "_".join(map(str, p))


def two_copies(universe_bound: int, dim_bound: int) -> MultipleSet:
    """Two disjoint copies of the terminal multiple set.

    Every color carries cells p0 and p1 and all faces preserve the index,
    so any index-preserving assignment of structure maps is valid.
    """
    from .colors import colors_within

    ms = MultipleSet(universe_bound, dim_bound)
    for c in colors_within(universe_bound, dim_bound):
        ms.cells[c] = ["p0", "p1"]
        for d in c:
            ms.src[(c, d)] = {"p0": "p0", "p1": "p1"}
            ms.tgt[(c, d)] = {"p0": "p0", "p1": "p1"}
    return ms


def pair_groupoid(n_objects: int = 2) -> MagmaStructure:
    """A magma, written as a ``magma`` document, whose tables form the strict
    category with one edge between every ordered pair of objects.

    Loops double as the identity edges; every edge has a unique reverse, so
    the edge-swap map is the only candidate reversor structure.
    """
    base = MultipleSet(1, 1)
    objs = [f"o{i}" for i in range(n_objects)]
    base.cells[()] = list(objs)
    edges = {(a, b): f"{a}>{b}" for a in objs for b in objs}
    base.cells[(1,)] = sorted(edges.values())
    base.src[((1,), 1)] = {edges[(a, b)]: a for (a, b) in edges}
    base.tgt[((1,), 1)] = {edges[(a, b)]: b for (a, b) in edges}
    refl = ReflexiveStructure(base=base, refl={((), 1): {a: edges[(a, a)] for a in objs}})
    comp = {
        ((1,), 1): {
            (edges[(b, c)], edges[(a, b2)]): edges[(a, c)]
            for (b, c) in edges
            for (a, b2) in edges
            if b2 == b
        }
    }
    return MagmaStructure(base=base, comp=comp, refl=refl)
