"""Brute-force ground truth for the minimum illumination number.

Whether a direction illuminates a vertex depends only on the signs of its
products with the tight normals, so directions are quantified over the
full-dimensional cells of the central hyperplane arrangement of the
normals. A sign vector is a cell exactly when no circuit (minimal
dependent subset) of the normals has signs that agree with it, or with
its negation, on the circuit's support (Gordan's alternative). A
depth-first search over sign prefixes, +1 before -1, drops a prefix once
a circuit of the table of `classify` within it agrees with it (Avis and
Fukuda, *Reverse search for enumeration*, 1996). The representative is
the strict separator of the signed normals s_i n_i from the origin, and
the cells below one prefix share its LP pivots. A vertex is lit in the
cell exactly when its tight normals all have sign +1, so its lit set is
read off bitmasks: the vertex's tight-normal mask lies inside the cell's
positive-sign mask. Exhaustive set cover over the cells gives the true
minimum.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import ceil
from operator import or_
from typing import NamedTuple

from .classify import bitmask, circuit_table
from .errors import InternalInvariantError, ScaleLimitError
from .kernel import Vec
from .polytope import HPolytope
from .position import signed_separators

CELL_GUARD = 10 ** 6


class DirectionClass(NamedTuple):
    representative: Vec
    illuminated: tuple[int, ...]  # vertex indices, aligned with P.vertices


def enumerate_direction_classes(P: HPolytope) -> tuple[DirectionClass, ...]:
    """One interior representative per full-dimensional cell of the
    arrangement {<n, .> == 0}, with the set of vertices it illuminates."""
    normals = P.normal_set.normals
    m = len(normals)
    if 2 ** m > CELL_GUARD:
        raise ScaleLimitError(
            f"2^{m} sign vectors exceed the cell guard ({CELL_GUARD})")
    # a circuit is tested once its last normal has a sign
    filed = [[] for _ in range(m)]
    for c in circuit_table(P.normal_set):
        filed[(c.plus | c.minus).bit_length() - 1].append((c.plus | c.minus, c.plus, c.minus))
    classes = []
    for pos, rep in signed_separators(normals, lambda k, p: any(
            p & support in (plus, minus) for support, plus, minus in filed[k])):
        if rep is None:
            raise InternalInvariantError(
                f"sign vector {tuple(1 if pos >> i & 1 else -1 for i in range(m))} "
                "agrees with no circuit, yet its cell is empty")
        # the checked separator has s_i <n_i, rep> >= 1, so <n_i, rep> > 0
        # exactly when s_i == 1
        lit = tuple(i for i, v in enumerate(P.vertices) if v.mask & pos == v.mask)
        classes.append(DirectionClass(rep, lit))
    return tuple(classes)


def min_illumination_number(P: HPolytope) -> tuple[int, tuple[Vec, ...]]:
    """Exact minimum number of directions illuminating every vertex, with
    one optimal selection of cell representatives.

    Each cell's lit set is a bitmask over the vertices. Cells whose lit
    sets are contained in another cell's are dominated and dropped; the
    remainder is searched exhaustively by increasing cover size, so the
    result is the certified optimum.
    """
    classes = enumerate_direction_classes(P)
    sets = [bitmask(c.illuminated) for c in classes]
    keep = [(s, c) for i, (s, c) in enumerate(zip(sets, classes))
            if not any(s & t == s and (s != t or j < i) for j, t in enumerate(sets) if j != i)]
    universe = (1 << len(P.vertices)) - 1
    if reduce(or_, (s for s, _ in keep), 0) != universe:
        raise InternalInvariantError("some vertex is illuminated by no cell")
    largest = max(s.bit_count() for s, _ in keep)
    for k in range(max(1, ceil(len(P.vertices) / largest)), len(keep) + 1):
        for combo in combinations(keep, k):
            if reduce(or_, (s for s, _ in combo)) == universe:
                return k, tuple(c.representative for _, c in combo)
    raise InternalInvariantError("exhaustive cover search found no cover")
