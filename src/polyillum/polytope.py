"""The H-polytope model: validated normal sets, exact vertex enumeration,
tight normals and point location.

A NormalSet is valid by construction: its normals are nonzero, pairwise
distinct directions that positively span the space, so every offset
vector gives a bounded system, and they pass the vertex-enumeration
guard. Positive spanning is decided here once, and nowhere else, by one
LP for each of +-e_i: either e_i lies in the positive hull of the
normals, or the LP's Farkas certificate is a direction along which every
system with these normals is unbounded.

Normal sets are kept in a canonical descending lexicographic order; every
downstream tie-break (certificates, basis refinement, cone listings)
derives from that order, so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import InputError, InternalInvariantError, ScaleLimitError
from .kernel import Vec, dot, format_vector, is_zero, primitive_form, rank, solve_rows, vec
from .position import farkas_direction

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

# Square solves vertex enumeration may try: C(m, n) for m facets in R^n.
MAX_VERTEX_CANDIDATES = 10 ** 6


@dataclass(frozen=True)
class NormalSet:
    dim: int
    normals: tuple[Vec, ...]

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise InputError(f"dimension must be positive, got {n}")
        seen: dict[Vec, int] = {}
        for i, v in enumerate(self.normals):
            if len(v) != n:
                raise InputError(f"normal {i} has dimension {len(v)}, expected {n}",
                                 facet_index=i)
            if is_zero(v):
                raise InputError(f"normal {i} is the zero vector", facet_index=i)
            p = primitive_form(v)
            if p in seen:
                raise InputError(
                    f"normal {i} is a positive multiple of normal {seen[p]}",
                    facet_index=i)
            seen[p] = i
        normals = tuple(sorted(self.normals, reverse=True))
        object.__setattr__(self, "normals", normals)
        count = comb(len(normals), n)
        if count > MAX_VERTEX_CANDIDATES:
            raise ScaleLimitError(
                f"{count} vertex candidates exceed the enumeration guard "
                f"({MAX_VERTEX_CANDIDATES})")
        for i in range(n):
            for sign in (1, -1):
                e = tuple(Fraction(sign if j == i else 0) for j in range(n))
                # <m, d> <= 0 for all normals and <e, d> == 1: P is unbounded along d
                d = farkas_direction(e, normals)
                if d is not None:
                    raise InputError(
                        f"constraint system is unbounded along {format_vector(d)}",
                        witness=d)

    @staticmethod
    def from_vectors(dim: int, vectors: Iterable) -> "NormalSet":
        return NormalSet(dim, tuple(vec(*v) for v in vectors))

    def __iter__(self):
        return iter(self.normals)

    def __len__(self):
        return len(self.normals)


@dataclass(frozen=True)
class Vertex:
    point: Vec
    tight: tuple[Vec, ...]


@dataclass(frozen=True)
class HPolytope:
    normal_set: NormalSet
    offsets: tuple[Fraction, ...]
    vertices: tuple[Vertex, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.offsets) != len(self.normal_set.normals):
            raise InputError("offset count does not match normal count")
        object.__setattr__(self, "vertices", self._enumerate_vertices())
        self._validate_irredundant()

    @classmethod
    def from_facets(cls, dim: int, facets: Sequence[tuple]) -> "HPolytope":
        pairs = [(vec(*n), Fraction(h)) for n, h in facets]
        N = NormalSet.from_vectors(dim, [n for n, _ in pairs])
        lookup = dict(pairs)
        offsets = tuple(lookup[n] for n in N.normals)
        return cls(N, offsets)

    # -- validation ---------------------------------------------------------

    def _enumerate_vertices(self) -> tuple[Vertex, ...]:
        """Every vertex with its tight normals, in sorted order. The normals
        positively span, so the system is bounded and it is empty exactly
        when it has no vertex."""
        N = self.normal_set
        n = N.dim
        points: set[Vec] = set()
        for idx in combinations(range(len(N.normals)), n):
            rows = [N.normals[i] for i in idx]
            rhs = [self.offsets[i] for i in idx]
            x = solve_rows(rows, rhs)
            if x is None:
                continue
            if all(dot(m, x) <= h for m, h in zip(N.normals, self.offsets)):
                points.add(x)
        vertices = []
        for p in sorted(points):
            tight = tuple(m for m, h in zip(N.normals, self.offsets)
                          if dot(m, p) == h)
            if rank(tight) != n:
                raise InternalInvariantError(
                    f"tight set at {format_vector(p)} does not span the space")
            vertices.append(Vertex(p, tight))
        if not vertices:
            raise InputError("constraint system is empty (infeasible)")
        return tuple(vertices)

    def _validate_irredundant(self):
        """The face cut out by normal m has as affine hull the points where
        every normal tight at all of its vertices is tight, so it is a
        facet iff those normals have rank 1."""
        for i, m in enumerate(self.normal_set.normals):
            tight_sets = [set(v.tight) for v in self.vertices if m in v.tight]
            if not tight_sets:
                raise InputError(
                    f"facet with normal {format_vector(m)} is redundant "
                    f"(offset never attained)", facet_index=i)
            if rank(list(set.intersection(*tight_sets))) != 1:
                raise InputError(
                    f"facet with normal {format_vector(m)} is redundant "
                    f"(tight set is not a facet)", facet_index=i)

    # -- queries ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.normal_set.dim

    def point_location(self, x: Vec) -> str:
        if len(x) != self.dim:
            raise InputError("dimension mismatch in point_location")
        tight = False
        for m, h in zip(self.normal_set.normals, self.offsets):
            s = h - dot(m, x)
            if s < 0:
                return OUTSIDE
            if s == 0:
                tight = True
        return BOUNDARY if tight else INTERIOR

    def tight_normals(self, x: Vec, slack: Fraction = Fraction(0)) -> tuple[Vec, ...]:
        if slack < 0:
            raise InputError("slack must be nonnegative")
        if self.point_location(x) == OUTSIDE:
            raise InputError(f"point {format_vector(x)} is outside the polytope")
        return tuple(m for m, h in zip(self.normal_set.normals, self.offsets)
                     if h - dot(m, x) <= slack)
