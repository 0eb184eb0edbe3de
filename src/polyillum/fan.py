"""Simplicial fan construction from a normal set and verification that the
combinatorial fan coincides with the normal fan of a concrete polytope.

For a monotypic normal set the primitive full-rank subsets generate the
only simplicial fan, which is offset-independent; the verification here
cross-checks that enumeration against the vertex-wise normal fan and
confirms the cone interiors are pairwise disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .classify import NORMAL_SET_CACHE_SIZE, check_monotypy, validate_normal_set
from .errors import InputError
from .kernel import Vec, rank, vadd, vneg, vsub, zero_vec
from .polytope import HPolytope, NormalSet, Vertex
from .position import cone_membership, is_primitive


@dataclass(frozen=True)
class FanCone:
    generators: tuple[Vec, ...]
    vertex: Optional[Vertex] = None


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def enumerate_primitive_bases(N: NormalSet) -> tuple[FanCone, ...]:
    """All primitive n-subsets of the normals, in lexicographic order over
    the canonical normal order. Each spans a pointed full-dimensional
    simplicial cone."""
    validate_normal_set(N)
    cones = []
    for subset in combinations(N.normals, N.dim):
        if rank(subset) != N.dim:
            continue
        if is_primitive(subset, N.normals):
            cones.append(FanCone(subset))
    return tuple(cones)


def normal_fan(P: HPolytope) -> tuple[FanCone, ...]:
    """One cone per vertex, generated by its tight normals; requires a
    simple polytope."""
    cones = []
    for v in P.vertices:
        if len(v.tight) != P.dim:
            raise InputError(
                f"vertex {v.point} is not simple: {len(v.tight)} tight normals "
                f"{v.tight} in dimension {P.dim}")
        cones.append(FanCone(tuple(sorted(v.tight, reverse=True)), vertex=v))
    return tuple(cones)


def _interiors_meet(v1: tuple[Vec, ...], v2: tuple[Vec, ...]) -> bool:
    """Do two full-rank simplicial cones share a point interior to both?

    Solves sum((1+lam_i) x_i) == sum((1+theta_j) y_j) with lam, theta >= 0;
    strictly positive coefficients are equivalent to >= 1 by homogeneity.
    """
    rhs = zero_vec(len(v1[0]))
    for y in v2:
        rhs = vadd(rhs, y)
    for x in v1:
        rhs = vsub(rhs, x)
    return cone_membership(rhs, v1 + tuple(vneg(y) for y in v2)) is not None


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def _first_overlapping_pair(N: NormalSet):
    bases = enumerate_primitive_bases(N)
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            if _interiors_meet(bases[a].generators, bases[b].generators):
                return bases[a], bases[b]
    return None


def verify_fan_uniqueness(N: NormalSet, P: HPolytope) -> bool:
    """True iff the combinatorially enumerated fan equals the normal fan of
    P and its cone interiors are pairwise disjoint."""
    if N != P.normal_set:
        raise InputError("normal set does not match the polytope")
    mono, _ = check_monotypy(N)
    if not mono:
        raise InputError("fan uniqueness is only claimed for monotypic normal sets")
    combinatorial = {frozenset(c.generators) for c in enumerate_primitive_bases(N)}
    geometric = {frozenset(c.generators) for c in normal_fan(P)}
    if combinatorial != geometric:
        return False
    return _first_overlapping_pair(N) is None
