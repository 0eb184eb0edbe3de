"""The references the construction of `polyillum.illuminate` is compared
against:

- the cone selections: for every choice of one dropped element per
  skeleton part, in product order, the union of the remaining generators;
- the directions by one inverse per cone, the route the construction
  replaced: the row sums of the inverse of the matrix whose rows are a
  selection's generators, the unique v with <g, v> == 1 for each of them;
- the assignment by LP: each vertex takes the first selection whose cone
  contains all its tight normals.
"""

from __future__ import annotations

from itertools import product

from polyillum.errors import InternalInvariantError
from polyillum.kernel import Vec, dot
from polyillum.polytope import HPolytope
from polyillum.position import cone_membership
from polyillum.skeleton import Skeleton, extract_skeleton
from tests.kernel_reference import inverse
from tests.polytope_reference import tight_normals


def cone_selections(skeleton: Skeleton) -> tuple[tuple[Vec, ...], ...]:
    """Exactly n generators per selection, in deterministic product order."""
    n = sum(len(s) for s in skeleton.part_supports)
    selections = []
    for drop in product(*(range(len(part)) for part in skeleton.parts)):
        gens = tuple(g for part, d in zip(skeleton.parts, drop)
                     for i, g in enumerate(part) if i != d)
        if len(gens) != n:
            raise InternalInvariantError("cone selection is not a full basis")
        selections.append(gens)
    return tuple(selections)


def cone_directions(skeleton: Skeleton) -> tuple[Vec, ...]:
    """One direction per selection, by one inverse each."""
    directions = []
    for gens in cone_selections(skeleton):
        inv = inverse(gens)
        if inv is None:
            raise InternalInvariantError("cone selection is not a full basis")
        v = tuple(sum(row) for row in inv)
        if any(dot(g, v) != 1 for g in gens):
            raise InternalInvariantError("direction does not pair to 1 exactly")
        directions.append(v)
    return tuple(directions)


def lp_assignment(P: HPolytope) -> tuple[int, ...]:
    selections = cone_selections(extract_skeleton(P.normal_set))
    return tuple(next(j for j, gens in enumerate(selections)
                      if all(cone_membership(m, gens) is not None
                             for m in tight_normals(P, v.point)))
                 for v in P.vertices)
