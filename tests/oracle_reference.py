"""The references `polyillum.oracle` is compared against: the scan of all
2^m sign vectors its cell search replaced, each tested against every
circuit, with one `separator` LP per cell it keeps; and the cover search
over every cell's LP-certified representative that its minimum, which
certifies only the cells of the cover it prints, replaced."""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from math import ceil
from operator import or_
from typing import Iterator

from polyillum.classify import bitmask, circuit_table
from polyillum.errors import InternalInvariantError
from polyillum.kernel import vneg
from polyillum.oracle import enumerate_direction_classes
from polyillum.polytope import HPolytope, NormalSet
from polyillum.position import separator


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


def cell_separators(N: NormalSet) -> list[tuple[tuple[int, ...], tuple]]:
    """(signs, `separator` of the signed normals) for every cell, in order."""
    return [(signs, separator([m if s > 0 else vneg(m) for s, m in zip(signs, N.normals)]))
            for signs in cell_sign_vectors(N)]


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
