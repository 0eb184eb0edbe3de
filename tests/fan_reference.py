"""The coverage test that `polyillum.fan.is_complete_fan` replaced, kept as
the reference it is compared against: the same wall test, then one
`simplex_dependence` per cone, which writes the sum of the first cone's
generators over that cone's generators afresh, where the package carries
it from cone to cone across the walls. And the scan of every n-subset
that `polyillum.fan.enumerate_primitive_bases` replaced by a search over
the circuit table."""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Sequence

from polyillum.classify import bitmask, circuit_table, circuits_inside
from polyillum.fan import FanCone
from polyillum.kernel import simplex_dependence, vadd
from polyillum.polytope import NormalSet
from tests.classify_reference import primitive
from tests.polytope_reference import zero_vec


def scanned_primitive_bases(N: NormalSet) -> tuple[FanCone, ...]:
    """Every n-subset that `primitive` accepts, in `combinations` order."""
    table = circuit_table(N)
    return tuple(FanCone(tuple(N.normals[i] for i in idx), mask)
                 for idx in combinations(range(len(N.normals)), N.dim)
                 if primitive(mask := bitmask(idx), table))


def per_cone_complete_fan(N: NormalSet, cones: Sequence[FanCone]) -> bool:
    """Every wall lies in exactly two cones, on opposite sides of its span,
    and the sum of the first cone's generators lies in no other closed
    cone: its dependence with a cone's generators, 1 at the point, is at
    most 0 at every generator iff the cone holds it."""
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
