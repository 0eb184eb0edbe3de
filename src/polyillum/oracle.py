"""Brute-force ground truth for the minimum illumination number.

Whether a direction illuminates a vertex depends only on the signs of its
products with the tight normals, so directions are quantified over the
full-dimensional cells of the central hyperplane arrangement of the
normals. A sign vector is a cell exactly when no circuit (minimal
dependent subset) of the normals has signs that agree with it, or with
its negation, on the circuit's support (Gordan's alternative): the +1
masks of the cells are the search `classify.avoiding` lists with both
sign patterns of every circuit, +1 before -1, with no LP. A vertex is lit in the cell
exactly when its tight normals all have sign +1, so its lit set is read
off bitmasks: the vertex's tight-normal mask lies inside the cell's
positive-sign mask. Exhaustive set cover over the cells gives the true
minimum. A representative is the strict separator of the signed normals
s_i n_i from the origin, and the cells below one prefix share its LP
pivots. `min_illumination_number` is the one public function, and it
runs that LP only for the cells of the cover it prints.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import ceil
from operator import or_
from typing import Iterator, Sequence

from .classify import avoiding, bitmask, circuit_table
from .errors import InternalInvariantError, ScaleLimitError
from .kernel import Vec
from .polytope import HPolytope, NormalSet
from .position import signed_separators

CELL_GUARD = 10 ** 6


def _cells(N: NormalSet) -> list[int]:
    """The +1 mask of every full-dimensional cell, in `product((1, -1))`
    order: no circuit's signs or their negation agree with its signs."""
    m = len(N.normals)
    if 2 ** m > CELL_GUARD:
        raise ScaleLimitError(
            f"2^{m} sign vectors exceed the cell guard ({CELL_GUARD})")
    return list(avoiding(m, [(c.plus | c.minus, sign) for c in circuit_table(N)
                             for sign in (c.plus, c.minus)]))


def _certified(P: HPolytope, cells: Sequence[int]) -> Iterator[tuple[int, Vec]]:
    """(+1 mask, checked separator) of each of the given cells, in order."""
    m = len(P.normal_set.normals)
    for pos, rep in signed_separators(P.normal_set.normals, cells):
        if rep is None:
            raise InternalInvariantError(
                f"sign vector {tuple(1 if pos >> i & 1 else -1 for i in range(m))} "
                "agrees with no circuit, yet its cell is empty")
        yield pos, rep


def min_illumination_number(P: HPolytope) -> tuple[int, tuple[Vec, ...]]:
    """Exact minimum number of directions illuminating every vertex, with
    one optimal selection of cell representatives.

    Each cell's lit set is a bitmask over the vertices. Cells whose lit
    sets are contained in another cell's are dominated and dropped; the
    remainder is searched exhaustively by increasing cover size. Only the
    k cells of the cover found get an LP, and each printed direction is a
    re-checked separator, so it lies in its cell and the k directions are
    a real cover. The circuit-decided cells contain every real cell, so
    no smaller cover exists, and k is the minimum.
    """
    cells = _cells(P.normal_set)
    # a direction in the cell has <n_i, x> > 0 exactly when s_i == 1
    sets = [bitmask(i for i, v in enumerate(P.vertices) if v.mask & pos == v.mask)
            for pos in cells]
    keep = [(s, pos) for i, (s, pos) in enumerate(zip(sets, cells))
            if not any(s & t == s and (s != t or j < i) for j, t in enumerate(sets) if j != i)]
    universe = (1 << len(P.vertices)) - 1
    if reduce(or_, (s for s, _ in keep), 0) != universe:
        raise InternalInvariantError("some vertex is illuminated by no cell")
    largest = max(s.bit_count() for s, _ in keep)
    for k in range(max(1, ceil(len(P.vertices) / largest)), len(keep) + 1):
        for combo in combinations(keep, k):
            if reduce(or_, (s for s, _ in combo)) == universe:
                return k, tuple(rep for _, rep in _certified(P, [pos for _, pos in combo]))
    raise InternalInvariantError("exhaustive cover search found no cover")
