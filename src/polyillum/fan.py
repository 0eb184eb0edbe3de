"""Simplicial fan construction from a normal set and verification that the
combinatorial fan coincides with the normal fan of a concrete polytope.

For a monotypic normal set the primitive full-rank subsets generate the
only simplicial fan, which is offset-independent; the verification here
cross-checks that enumeration against the vertex-wise normal fan and
confirms the cones form a complete fan. Cones are compared and walled
by the index bitmasks of their generators, as vertices carry their tight
normals, and primitivity and the side of a wall each cone lies on are
read off the circuit table of `classify`, so no LP runs here.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .classify import (NORMAL_SET_CACHE_SIZE, bitmask, check_monotypy, circuit_table,
                       circuits_inside, primitive)
from .errors import InputError
from .kernel import Vec, format_vector, simplex_dependence, vadd, zero_vec
from .polytope import HPolytope, NormalSet, Vertex


class FanCone(NamedTuple):
    generators: tuple[Vec, ...]
    mask: int  # bit i: normal i generates
    vertex: Optional[Vertex] = None


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def enumerate_primitive_bases(N: NormalSet) -> tuple[FanCone, ...]:
    """All primitive n-subsets of the normals, in lexicographic order over
    the canonical normal order. Each spans a pointed full-dimensional
    simplicial cone."""
    table = circuit_table(N)
    return tuple(FanCone(tuple(N.normals[i] for i in idx), mask)
                 for idx in combinations(range(len(N.normals)), N.dim)
                 if primitive(mask := bitmask(idx), table))


def normal_fan(P: HPolytope) -> tuple[FanCone, ...]:
    """One cone per vertex, generated by its tight normals; requires a
    simple polytope."""
    cones = []
    for v in P.vertices:
        # in index order, which is the normals' descending order
        tight = tuple(m for i, m in enumerate(P.normal_set.normals) if v.mask >> i & 1)
        if len(tight) != P.dim:
            raise InputError(
                f"vertex {format_vector(v.point)} is not simple: {len(tight)} tight "
                f"normals {format_vector(tight)} in dimension {P.dim}")
        cones.append(FanCone(tight, v.mask, vertex=v))
    return tuple(cones)


def is_complete_fan(N: NormalSet, cones: Sequence[FanCone]) -> bool:
    """Do distinct full-rank simplicial cones, generated by normals of N,
    form a complete fan?

    They do iff they form a pseudomanifold that covers one generic point
    once (De Loera, Rambau & Santos, *Triangulations*, 2010, ch. 4). Every
    wall (n-1 generators of a cone) must lie in exactly two cones W+a and
    W+b, on opposite sides of span(W): the one circuit inside W+a+b gives
    a and b the same sign. Then the number of cones covering a point is
    the same off the walls, and the sum of the first cone's generators,
    which lies in no other closed cone, fixes it at 1. A cone's generators
    are independent, so their dependence with the point is 1 at the point,
    and the point lies in the closed cone iff every other coefficient is
    at most 0.
    """
    if not cones:
        return False
    table = circuit_table(N)
    ends = defaultdict(list)
    for cone in cones:
        for i in range(len(N.normals)):
            if bit := cone.mask & 1 << i:
                ends[cone.mask ^ bit].append(bit)
    for wall, sides in ends.items():
        if len(sides) != 2:
            return False
        a, b = sides
        circuit = next(circuits_inside(wall | a | b, table))
        if bool(circuit.plus & a) != bool(circuit.plus & b):
            return False
    point = zero_vec(N.dim)
    for g in cones[0].generators:
        point = vadd(point, g)
    return not any(all(c <= 0 for c in simplex_dependence((*cone.generators, point))[:-1])
                   for cone in cones[1:])


def verify_fan_uniqueness(P: HPolytope) -> bool:
    """True iff the fan enumerated from P's normal set equals the normal
    fan of P and its cones form a complete fan, so their interiors are
    pairwise disjoint."""
    N = P.normal_set
    mono, _ = check_monotypy(N)
    if not mono:
        raise InputError("fan uniqueness is only claimed for monotypic normal sets")
    bases = enumerate_primitive_bases(N)
    if {c.mask for c in bases} != {c.mask for c in normal_fan(P)}:
        return False
    return is_complete_fan(N, bases)
