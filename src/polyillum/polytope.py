"""The H-polytope model: validated normal sets, exact vertex enumeration,
tight normals and point location.

Vertices are enumerated by a depth-first walk over the graph of the
polytope, the simple case of Avis and Fukuda's pivoting enumeration. It
starts at the first feasible candidate basis in `combinations` order and
carries the inverse of the basis and the tableau from vertex to vertex by
exact pivots, so it solves one square system per start candidate and
inverts one matrix. At the first vertex with more than n tight normals it
gives way to the candidate route, which solves every square system of n
normals; the square pyramid's apex and lower-dimensional systems take it.
The normals of a monotypic set meet in simple vertices whatever the
offsets, so the paper's polytopes never do.

A NormalSet is valid by construction: its normals are nonzero, pairwise
distinct directions that positively span the space, so every offset
vector gives a bounded system, and they pass the vertex-enumeration
guard. Positive spanning is decided here once, and nowhere else. The
normals positively span exactly when they have rank n and -sum(n_i) lies
in their positive hull (Davis, *Theory of positive linear dependence*,
Amer. J. Math. 1954), which takes one LP. Only when that fails does one
LP run for each of +-e_i: either e_i lies in the positive hull of the
normals, or the LP's Farkas certificate is a direction along which every
system with these normals is unbounded.

Normal sets are kept in a canonical descending lexicographic order; every
downstream tie-break (certificates, basis refinement, cone listings)
derives from that order, so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputError, InternalInvariantError, ScaleLimitError
from .kernel import (Vec, dot, format_vector, inverse, is_zero, primitive_form, rank,
                     solve_rows, vec)
from .position import farkas_direction

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"

# Square solves the candidate route may try: C(m, n) for m facets in R^n.
# The walk tries them only until its start is feasible, so the bound matters
# for polytopes with a vertex of more than n tight normals.
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
        # a strictly positive dependence sum((1 + y_i) n_i) == 0, y >= 0; the
        # +-e_i LPs run only to find the witness of a set that fails it
        if rank(normals) == n and farkas_direction(
                tuple(-sum(c) for c in zip(*normals)), normals) is None:
            return
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
        """Every vertex with its tight normals, in sorted order.

        The start is the first candidate basis, in `combinations` order,
        whose square system has a feasible solution. The normals positively
        span, so the system is bounded and it is empty exactly when no
        candidate is feasible. From a simple start the walk reaches every
        vertex; at the first vertex with more than n tight normals the
        remaining candidates are scanned instead.
        """
        normals, offsets = self.normal_set.normals, self.offsets
        candidates = _feasible_candidates(normals, offsets, self.dim)
        start = next(candidates, None)
        if start is None:
            raise InputError("constraint system is empty (infeasible)")
        found = _walk(normals, offsets, *start)
        if found is None:
            found = _scan(normals, offsets, [start, *candidates])
        vertices = []
        for p in sorted(found):
            tight = tuple(normals[i] for i in found[p])
            if rank(tight) != self.dim:
                raise InternalInvariantError(
                    f"tight set at {format_vector(p)} does not span the space")
            vertices.append(Vertex(p, tight))
        return tuple(vertices)

    def _validate_irredundant(self):
        """The face cut out by normal m has as affine hull the points where
        every normal tight at all of its vertices is tight, so it is a
        facet iff those normals have rank 1. Tight sets are bitmasks over
        the normals' indices."""
        normals = self.normal_set.normals
        index = {m: i for i, m in enumerate(normals)}
        masks = [sum(1 << index[m] for m in v.tight) for v in self.vertices]
        for i, m in enumerate(normals):
            tight_sets = [mask for mask in masks if mask >> i & 1]
            if not tight_sets:
                raise InputError(
                    f"facet with normal {format_vector(m)} is redundant "
                    f"(offset never attained)", facet_index=i)
            common = reduce(and_, tight_sets)
            if rank([n for j, n in enumerate(normals) if common >> j & 1]) != 1:
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


# -- vertex enumeration -------------------------------------------------------

def _feasible_candidates(normals: Sequence[Vec], offsets: Sequence[Fraction], n: int):
    """Each basis of n normals, in `combinations` order, whose square system
    has a solution that satisfies every constraint, with that solution."""
    for idx in combinations(range(len(normals)), n):
        x = solve_rows([normals[i] for i in idx], [offsets[i] for i in idx])
        if x is not None and all(dot(m, x) <= h for m, h in zip(normals, offsets)):
            yield idx, x


def _scan(normals: Sequence[Vec], offsets: Sequence[Fraction],
          candidates) -> dict[Vec, tuple[int, ...]]:
    """The candidate route: the point of every feasible candidate, with the
    indices of the normals tight there."""
    return {x: tuple(i for i, (m, h) in enumerate(zip(normals, offsets))
                     if dot(m, x) == h)
            for x in {x for _, x in candidates}}


class _Simple(NamedTuple):
    """The walk's state at a simple vertex x with basis B (the matrix of
    its n tight normals): the basis indices, x, the slacks h - Ax, and the
    columns of B^-1 and of the tableau T = A B^-1."""
    basis: tuple[int, ...]
    point: Vec
    slacks: tuple[Fraction, ...]
    inverse: tuple[Vec, ...]
    tableau: tuple[Vec, ...]


def _tableau(normals: Sequence[Vec], columns: Sequence[Vec]) -> tuple[Vec, ...]:
    """The columns of T = A B^-1, from the columns of B^-1."""
    return tuple(tuple(dot(m, c) for m in normals) for c in columns)


def _walk(normals: Sequence[Vec], offsets: Sequence[Fraction], basis: tuple[int, ...],
          point: Vec) -> Optional[dict[Vec, tuple[int, ...]]]:
    """Every vertex with the indices of its tight normals, by a depth-first
    walk over the graph of the polytope from a start vertex, or None at
    the first vertex with more than n tight normals.

    At a simple vertex, edge k keeps every basis normal but the k-th tight
    and runs along -(column k of B^-1); normal i leaves the polytope after
    slack_i / -T[i][k] along it if T[i][k] < 0. The nearest such normal
    enters the basis in place of the k-th, and one pivot carries the state
    to the neighbour. A tie makes the neighbour degenerate. If no vertex is
    degenerate, the walk has followed every edge of every vertex it met,
    and the graph of a polytope is connected (Balinski), so it met them all.
    The walk holds one state: it returns along an edge by the reverse
    pivot, which restores the state exactly, and only when a vertex below
    still has an edge to an unseen vertex.
    """
    n = len(point)
    slacks = tuple(h - dot(m, point) for m, h in zip(normals, offsets))
    if slacks.count(0) > n:
        return None
    rows = inverse([normals[i] for i in basis])
    if rows is None:
        raise InternalInvariantError(
            f"start basis at {format_vector(point)} is singular")
    columns = tuple(zip(*rows))
    state = _Simple(tuple(basis), point, slacks, columns, _tableau(normals, columns))
    found = {point: tuple(sorted(basis))}
    seen = {sum(1 << i for i in basis)}
    pending = []  # per vertex on the path: its (edge, entering normal, neighbour) steps
    returns = []  # per step along the path: the (edge, normal) pivot back
    while True:
        steps = _steps(state)
        if steps is None:
            return None
        pending.append(iter(steps))
        while pending:
            step = next((s for s in pending[-1] if s[2] not in seen), None)
            if step is not None:
                break
            pending.pop()
        if not pending:
            return found
        while len(returns) >= len(pending):
            state = _pivot(state, *returns.pop())
        k, r, key = step
        seen.add(key)
        returns.append((k, state.basis[k]))
        state = _pivot(state, k, r)
        found[state.point] = tuple(sorted(state.basis))


def _steps(state: _Simple) -> Optional[list[tuple[int, int, int]]]:
    """Per edge k: k, the normal r that blocks it first and the neighbour's
    basis as a bitmask; None if some edge is blocked by two normals at once."""
    mask = sum(1 << i for i in state.basis)
    steps = []
    for k, leaving in enumerate(state.basis):
        r = _ratio_test(state, k)
        if r is None:
            return None
        steps.append((k, r, mask ^ (1 << leaving) ^ (1 << r)))
    return steps


def _ratio_test(state: _Simple, k: int) -> Optional[int]:
    """The normal that blocks edge k first, or None if two block it at once."""
    best, blocking, tie = None, None, False
    for i, c in enumerate(state.tableau[k]):
        if c < 0:
            t = state.slacks[i] / -c
            if best is None or t < best:
                best, blocking, tie = t, i, False
            elif t == best:
                tie = True
    if blocking is None:
        raise InternalInvariantError(
            f"no normal blocks edge {k} at vertex {format_vector(state.point)}")
    return None if tie else blocking


def _pivot(state: _Simple, k: int, r: int) -> _Simple:
    """The state at the end of edge k, where normal r replaces the k-th
    basis normal: B'^-1 and T' come from B^-1 and T by one elimination on
    row r of T, in place of a fresh inverse."""
    col = state.tableau[k]
    t = state.slacks[r] / -col[r]
    point = tuple(x - t * c for x, c in zip(state.point, state.inverse[k]))
    slacks = tuple(s + t * c for s, c in zip(state.slacks, col))
    factors = [column[r] for column in state.tableau]
    return _Simple(state.basis[:k] + (r,) + state.basis[k + 1:], point, slacks,
                   _eliminate(state.inverse, k, factors),
                   _eliminate(state.tableau, k, factors))


def _eliminate(columns: tuple[Vec, ...], k: int, factors: list[Fraction]) -> tuple[Vec, ...]:
    """Divide column k by factors[k], then subtract factors[j] times it from
    every other column j; columns with a zero factor are shared."""
    pivot = tuple(c / factors[k] for c in columns[k])
    return tuple(pivot if j == k else
                 column if f == 0 else
                 tuple(a - f * b for a, b in zip(column, pivot))
                 for j, (column, f) in enumerate(zip(columns, factors)))
