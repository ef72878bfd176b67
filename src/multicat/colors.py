"""Combinatorics of colors.

A color is a strictly increasing tuple of positive direction indices; its
dimension is its length.  The empty color ``()`` indexes the object cells.
Colors are plain tuples so they can key dictionaries directly.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import EntryAbsent, EntryPresent, KOutOfRange, NonPositiveEntry, NotStrictlyIncreasing

Color = tuple[int, ...]


def make_color(entries) -> Color:
    """Validate and build a color from a sequence of direction indices."""
    entries = tuple(int(e) for e in entries)
    for pos, e in enumerate(entries):
        if e < 1:
            raise NonPositiveEntry(entries, pos)
        if pos > 0 and entries[pos - 1] >= e:
            raise NotStrictlyIncreasing(entries, pos)
    return entries


def dimension(c: Color) -> int:
    return len(c)


def minus(c: Color, d: int) -> Color:
    """Delete direction ``d`` from ``c``."""
    if d not in c:
        raise EntryAbsent(c, d)
    return tuple(e for e in c if e != d)


def add(c: Color, l: int) -> Color:
    """Sorted insertion of direction ``l`` into ``c``; no renumbering."""
    if l < 1:
        raise NonPositiveEntry((l,), 0)
    if l in c:
        raise EntryPresent(c, l)
    return tuple(sorted(c + (l,)))


def k_colors(c: Color, k: int) -> set[Color]:
    """All length-``k`` subsequences of ``c``; there are C(n, k) of them."""
    if k < 0 or k > len(c):
        raise KOutOfRange(c, k)
    out = {tuple(sub) for sub in combinations(c, k)}
    assert len(out) == comb(len(c), k)
    return out


def colors_within(universe_bound: int, dim_bound: int) -> list[Color]:
    """All colors with entries <= universe_bound and dimension <= dim_bound.

    The set of all colors is infinite; enumeration always takes explicit
    bounds.  Sorted by (dimension, entries) for deterministic iteration.
    """
    out: list[Color] = []
    for n in range(min(dim_bound, universe_bound) + 1):
        out.extend(tuple(c) for c in combinations(range(1, universe_bound + 1), n))
    out.sort(key=lambda c: (len(c), c))
    return out


def addable_entries(c: Color, universe_bound: int) -> list[int]:
    """Directions that can be inserted into ``c`` within the universe bound."""
    return [l for l in range(1, universe_bound + 1) if l not in c]
