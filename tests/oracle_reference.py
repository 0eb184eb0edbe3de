"""The references `polyillum.oracle` and `polyillum.position` are compared
against: the scan of all 2^m sign vectors the oracle's cell search
replaced, each tested against every circuit, with one lifted separator LP
per cell it keeps; the level-by-level search over sign prefixes that the
shared search `polyillum.classify.avoiding` replaced; the enumeration of
every cell with its certified representative and lit set; and the cover
search over that enumeration that the oracle's minimum, which certifies
only the cells of the cover it prints, replaced."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import ceil
from operator import or_
from typing import Iterator, NamedTuple, Optional, Sequence

from polyillum import oracle
from polyillum.classify import bitmask, circuit_table
from polyillum.errors import InternalInvariantError
from polyillum.kernel import Vec
from polyillum.polytope import HPolytope, NormalSet
from polyillum.position import farkas_direction
from tests.polytope_reference import vneg


def lifted_separator(points: Sequence[Vec]) -> Optional[Vec]:
    """v with <p, v> >= 1 for every point, or None if some convex
    combination of the points is the origin, that is, if (0, 1) lies in
    pos{(p, 1)}. Otherwise a Farkas direction (d, 1) has <p, d> + 1 <= 0,
    so v = -d. One `solve_eq_nonneg` LP on the lifted points."""
    lifted = [tuple(p) + (Fraction(1),) for p in points]
    d = farkas_direction((Fraction(0),) * len(points[0]) + (Fraction(1),), lifted)
    return None if d is None else vneg(d[:-1])


def cell_sign_vectors(N: NormalSet) -> Iterator[tuple[int, ...]]:
    """The sign vectors of the full-dimensional cells, in
    `product((1, -1), repeat=m)` order, decided without an LP.

    Some x has s_i <n_i, x> > 0 for every i unless a nonnegative,
    nonzero combination of the s_i n_i vanishes; a support-minimal one is
    a circuit whose signs, or their negation, agree with s on its support.
    """
    masks = [(c.plus | c.minus, c.plus, c.minus) for c in circuit_table(N)]
    for signs in product((1, -1), repeat=len(N.normals)):
        pos = bitmask(i for i, s in enumerate(signs) if s > 0)
        if not any(pos & support in (plus, minus) for support, plus, minus in masks):
            yield signs


def level_cells(N: NormalSet) -> list[int]:
    """The +1 mask of every cell, in `product((1, -1))` order: all prefixes
    of one length at a time, each extended by +1 then -1 at the next
    normal, and dropped once it, or its negation, agrees on the support of
    a circuit whose last normal is the one just signed."""
    m = len(N.normals)
    filed = [[] for _ in range(m)]
    for c in circuit_table(N):
        filed[(c.plus | c.minus).bit_length() - 1].append((c.plus | c.minus, c.plus, c.minus))
    prefixes = [0]
    for k in range(m):
        prefixes = [p for q in prefixes for p in (q | 1 << k, q)
                    if not any(p & support in (plus, minus) for support, plus, minus in filed[k])]
    return prefixes


def cell_separators(N: NormalSet) -> list[tuple[tuple[int, ...], tuple]]:
    """(signs, `lifted_separator` of the signed normals) for every cell, in order."""
    return [(signs, lifted_separator([m if s > 0 else vneg(m)
                                      for s, m in zip(signs, N.normals)]))
            for signs in cell_sign_vectors(N)]


class DirectionClass(NamedTuple):
    representative: Vec
    illuminated: tuple[int, ...]  # vertex indices, aligned with P.vertices


def enumerate_direction_classes(P: HPolytope) -> tuple[DirectionClass, ...]:
    """One certified interior representative per full-dimensional cell of
    the arrangement {<n, .> == 0}, from the oracle's cell search and its
    shared-tableau LP, with the vertices whose tight normals all have
    sign +1 in the cell."""
    return tuple(DirectionClass(rep, tuple(i for i, v in enumerate(P.vertices)
                                           if v.mask & pos == v.mask))
                 for pos, rep in oracle._certified(P, oracle._cells(P.normal_set)))


def min_illumination_number(P: HPolytope):
    """(k, directions): exhaustive set cover, by increasing size, over the
    lit sets of every cell of `enumerate_direction_classes` that no other
    cell's lit set dominates."""
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
