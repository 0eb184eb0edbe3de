"""Slacks, point location and tight normals of an `HPolytope`, written from
their definitions in `Fraction`s: the slack of x at the facet <m, x> <= h
is h - <m, x>. The integer rows of `polyillum.polytope` and the tight
masks of its vertices are checked against these, and `NormalSet`, which
decides spanning on the normals' primitive integer forms, against
`normal_set_verdict` on the `Fraction` normals."""

from __future__ import annotations

from fractions import Fraction

from polyillum.errors import InputError
from polyillum.kernel import Vec, first_basis, format_vector, primitive_form
from polyillum.polytope import HPolytope, vertex_guard
from polyillum.position import farkas_direction
from tests.kernel_reference import dot

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def zero_vec(dim: int) -> Vec:
    return (Fraction(0),) * dim


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


def normal_set_verdict(dim: int, normals: tuple[Vec, ...]):
    """What `NormalSet(dim, normals)` gives, worked out on the `Fraction`
    normals throughout: ("ok", the normals in descending order, their
    first basis), or ("error", message, facet index, witness) of the
    InputError it raises. Positive spanning is rank n and -sum(n_i) in
    the positive hull of the normals, and only when it fails is the first
    of +-e_i outside that hull sought, for the witness."""
    try:
        for i, v in enumerate(normals):
            if len(v) != dim:
                raise InputError(f"normal {i} has dimension {len(v)}, expected {dim}",
                                 facet_index=i)
            if not any(v):
                raise InputError(f"normal {i} is the zero vector", facet_index=i)
            for j in range(i):
                if primitive_form(normals[j]) == primitive_form(v):
                    raise InputError(f"normal {i} is a positive multiple of normal {j}",
                                     facet_index=i)
        normals = tuple(sorted(normals, reverse=True))
        vertex_guard(len(normals), dim)
        basis = first_basis(normals)
        if len(basis) == dim and farkas_direction(
                tuple(-sum(c) for c in zip(*normals)), normals) is None:
            return "ok", normals, basis
        for i in range(dim):
            for sign in (1, -1):
                e = tuple(Fraction(sign if j == i else 0) for j in range(dim))
                if (d := farkas_direction(e, normals)) is not None:
                    raise InputError(f"constraint system is unbounded along {format_vector(d)}",
                                     witness=d)
    except InputError as err:
        return "error", str(err), err.facet_index, err.witness
    raise AssertionError("a set that fails to positively span has no witness")
