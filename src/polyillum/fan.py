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
from typing import NamedTuple, Optional, Sequence

from .classify import (NORMAL_SET_CACHE_SIZE, avoiding, capture_patterns, check_monotypy,
                       circuit_table, circuits_inside)
from .errors import InputError
from .kernel import Vec, format_vector, primitive_form
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
    patterns = [*((c.plus | c.minus,) * 2 for c in table), *capture_patterns(table)]
    return tuple(FanCone(tuple(m for i, m in enumerate(N.normals) if mask >> i & 1), mask)
                 for mask in avoiding(len(N.normals), patterns, N.dim))


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
    the same off the walls, and the sum q of the first cone's generators,
    which lies in no other closed cone, fixes it at 1.

    q is written over each cone by crossing walls from the first cone,
    where its coefficients are all 1: with the circuit mu of the wall,
    q = sum(x_i v_i) over W+a is sum((x_i - x_a mu_i / mu_a) v_i) over
    W+b, with -x_a mu_b / mu_a at b. It lies in the closed cone iff every
    coefficient is at least 0, so a cone carries coprime ints of the same
    signs: |mu_a| x_i - sgn(mu_a) x_a mu_i, -sgn(mu_a) x_a mu_b at b, over
    their gcd. The cones that crossings reach from the first cover the
    space as a pseudomanifold of their own, so a cone that none reaches
    lies in a second cover, which holds q too: then they do not form a
    complete fan either.
    """
    if not cones:
        return False
    table = circuit_table(N)
    ends = defaultdict(list)
    for c, cone in enumerate(cones):
        rest = cone.mask
        while rest:  # one wall per generator, its lowest bit first
            bit = rest & -rest
            ends[cone.mask ^ bit].append((bit.bit_length() - 1, c))
            rest ^= bit
    crossings = defaultdict(list)  # per cone: (neighbour, leaving, entering, circuit)
    for wall, sides in ends.items():
        if len(sides) != 2:
            return False
        (a, c), (b, d) = sides
        circuit = next(circuits_inside(wall | 1 << a | 1 << b, table))
        if bool(circuit.plus >> a & 1) != bool(circuit.plus >> b & 1):
            return False
        crossings[c].append((d, a, b, circuit))
        crossings[d].append((c, b, a, circuit))
    # per cone reached: a positive multiple of q's coefficients over its generators, by index
    over = {0: {i: 1 for i in range(len(N.normals)) if cones[0].mask >> i & 1}}
    pending = [0]
    while pending:
        c = pending.pop()
        for d, a, b, circuit in crossings[c]:
            if d in over:
                continue
            mu = dict(zip(circuit.indices, circuit.dependence))
            x = over[c]
            scale, t = abs(mu[a]), x[a] if mu[a] > 0 else -x[a]
            kept = [i for i in x if i != a]
            y = [scale * x[i] - t * mu.get(i, 0) for i in kept] + [-t * mu[b]]
            if all(y_i >= 0 for y_i in y):
                return False
            over[d] = dict(zip((*kept, b), primitive_form(y)))
            pending.append(d)
    return len(over) == len(cones)


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
