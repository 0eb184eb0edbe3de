"""Slacks, point location and tight normals of an `HPolytope`, written from
their definitions in `Fraction`s: the slack of x at the facet <m, x> <= h
is h - <m, x>. The integer rows of `polyillum.polytope` and the tight
masks of its vertices are checked against these."""

from __future__ import annotations

from fractions import Fraction

from polyillum.kernel import Vec
from polyillum.polytope import HPolytope
from tests.kernel_reference import dot

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def slacks(P: HPolytope, x: Vec) -> list[Fraction]:
    return [h - dot(m, x) for m, h in zip(P.normal_set.normals, P.offsets)]


def location(P: HPolytope, x: Vec) -> str:
    s = slacks(P, x)
    return OUTSIDE if min(s) < 0 else BOUNDARY if 0 in s else INTERIOR


def tight_normals(P: HPolytope, x: Vec, slack: Fraction = Fraction(0)) -> tuple[Vec, ...]:
    """The normals whose slack at x is at most `slack`, in normal order."""
    return tuple(m for m, s in zip(P.normal_set.normals, slacks(P, x)) if s <= slack)


def masked(P: HPolytope, mask: int) -> tuple[Vec, ...]:
    """The normals of P in the index bitmask `mask`, in normal order."""
    return tuple(m for i, m in enumerate(P.normal_set.normals) if mask >> i & 1)
