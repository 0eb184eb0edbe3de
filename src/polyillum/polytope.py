"""The H-polytope model: validated normal sets, exact vertex enumeration,
tight normals and point location.

Each constraint is scaled once to an integer row, so a slack is an
integer dot product. Vertices are enumerated by a depth-first walk over
the graph of the polytope (Avis and Fukuda's pivoting enumeration, simple
case) from the first feasible candidate basis in `combinations` order,
pivoting on ints over one denominator without division (Edmonds). At the
first vertex with more than n tight normals it gives way to the candidate
route, which solves every square system of n normals; the square
pyramid's apex and lower-dimensional systems take it. The normals of a
monotypic set meet in simple vertices whatever the offsets, so the
paper's polytopes never do.

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
from itertools import chain, combinations
from math import comb, gcd, lcm
from operator import and_, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputError, InternalInvariantError, ScaleLimitError
from .kernel import (Vec, _integers, format_vector, inverse, is_zero, primitive_form, rank,
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
    mask: int = field(compare=False, repr=False)  # bit i: normal i is tight


@dataclass(frozen=True)
class HPolytope:
    normal_set: NormalSet
    offsets: tuple[Fraction, ...]
    # per constraint <m, x> <= h: (c m, c h, c), c the lcm of its denominators
    rows: tuple[tuple, ...] = field(init=False, compare=False, repr=False)
    vertices: tuple[Vertex, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.offsets) != len(self.normal_set.normals):
            raise InputError("offset count does not match normal count")
        object.__setattr__(self, "rows", _rows(self.normal_set.normals, self.offsets))
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
        when no candidate is feasible."""
        normals, rows = self.normal_set.normals, self.rows
        candidates = _feasible_candidates(rows, self.dim)
        start = next(candidates, None)
        if start is None:
            raise InputError("constraint system is empty (infeasible)")
        found = _walk(rows, *start)
        if found is None:
            found = _scan(rows, [start, *candidates])
        L = lcm(*(x.denominator for p, _ in found for x in p))  # sorted as ints over L
        vertices = []
        for p, tight in sorted(found, key=lambda e: [x.numerator * (L // x.denominator)
                                                     for x in e[0]]):
            if rank([rows[i][0] for i in tight]) != self.dim:
                raise InternalInvariantError(
                    f"tight set at {format_vector(p)} does not span the space")
            vertices.append(Vertex(p, tuple(normals[i] for i in tight),
                                   sum(1 << i for i in tight)))
        return tuple(vertices)

    def _validate_irredundant(self):
        """The face cut out by normal m has as affine hull the points where
        every normal tight at all of its vertices is tight, so it is a
        facet iff those normals have rank 1."""
        normals = self.normal_set.normals
        for i, m in enumerate(normals):
            tight_sets = [v.mask for v in self.vertices if v.mask >> i & 1]
            if not tight_sets:
                raise InputError(
                    f"facet with normal {format_vector(m)} is redundant "
                    f"(offset never attained)", facet_index=i)
            common = reduce(and_, tight_sets)
            if rank([a for j, (a, _, _) in enumerate(self.rows) if common >> j & 1]) != 1:
                raise InputError(
                    f"facet with normal {format_vector(m)} is redundant "
                    f"(tight set is not a facet)", facet_index=i)

    # -- queries ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.normal_set.dim

    def point_location(self, x: Vec) -> str:
        slacks = _slacks(self.rows, *_integers(x, self.dim))
        return OUTSIDE if min(slacks) < 0 else BOUNDARY if 0 in slacks else INTERIOR

    def tight_normals(self, x: Vec, slack: Fraction = Fraction(0)) -> tuple[Vec, ...]:
        if slack < 0:
            raise InputError("slack must be nonnegative")
        if self.point_location(x) == OUTSIDE:
            raise InputError(f"point {format_vector(x)} is outside the polytope")
        X, k = _integers(x)
        slacks = _slacks(self.rows, X, k)
        return tuple(m for m, s, (_, _, c) in zip(self.normal_set.normals, slacks, self.rows)
                     if s * slack.denominator <= slack.numerator * c * k)


# -- vertex enumeration -------------------------------------------------------

def _rows(normals: Sequence[Vec], offsets: Sequence[Fraction]) -> tuple[tuple, ...]:
    """The rows of `HPolytope`."""
    return tuple((tuple(ints[:-1]), ints[-1], c) for ints, c in
                 (_integers((*m, h)) for m, h in zip(normals, offsets)))


def _slacks(rows: Sequence[tuple], X: Sequence[int], k: int) -> list[int]:
    """b k - <a, X> for each row (a, b, c): its slack at X / k times c k."""
    return [b * k - sum(map(mul, a, X)) for a, b, _ in rows]


def _feasible_candidates(rows: Sequence[tuple], n: int):
    """Each basis of n rows, in `combinations` order, whose square system
    has a solution that satisfies every constraint, with that solution."""
    for idx in combinations(range(len(rows)), n):
        x = solve_rows([rows[i][0] for i in idx], [rows[i][1] for i in idx])
        if x is not None and min(_slacks(rows, *_integers(x))) >= 0:
            yield idx, x


def _scan(rows: Sequence[tuple], candidates) -> list[tuple[Vec, tuple[int, ...]]]:
    """The candidate route: the point of every feasible candidate, with the
    indices of the rows tight there."""
    return [(x, tuple(i for i, s in enumerate(_slacks(rows, *_integers(x))) if s == 0))
            for x in {x for _, x in candidates}]


class _Simple(NamedTuple):
    """The walk's state at a simple vertex x with basis B (its n tight
    rows), as ints over the least D > 0 that makes D B^-1 integral: column
    k < n is D (T[., k], B^-1[., k]), T = A B^-1 the tableau, and column
    n is D (b - A x, -x). A pivot treats every column alike."""
    basis: tuple[int, ...]
    denominator: int
    columns: tuple[tuple[int, ...], ...]

    def vertex(self) -> Vec:
        D, n = self.denominator, len(self.basis)
        return tuple(Fraction(-x, D) for x in self.columns[-1][-n:])


def _walk(rows: Sequence[tuple], basis: tuple[int, ...],
          point: Vec) -> Optional[list[tuple[Vec, tuple[int, ...]]]]:
    """Every vertex with the indices of its tight rows, by a depth-first
    walk over the graph of the polytope from a start vertex, or None at
    the first vertex with more than n tight rows.

    At a simple vertex, edge k keeps every basis row but the k-th tight
    and runs along -(column k of B^-1); row i leaves the polytope after
    slack_i / -T[i][k] along it if T[i][k] < 0. The nearest such row
    enters the basis in place of the k-th, and one pivot carries the state
    to the neighbour. A tie makes the neighbour degenerate. If no vertex is
    degenerate, the walk has followed every edge of every vertex it met,
    and the graph of a polytope is connected (Balinski), so it met them all.
    The walk holds one state: it returns along an edge by the reverse
    pivot, which restores the state exactly, and only when a vertex below
    still has an edge to an unseen vertex.
    """
    n = len(point)
    X, scale = _integers(point)
    slacks = _slacks(rows, X, scale)
    if slacks.count(0) > n:
        return None
    inv = inverse([rows[i][0] for i in basis])
    if inv is None:
        raise InternalInvariantError(
            f"start basis at {format_vector(point)} is singular")
    # D B^-1 is integral, and so are D x = D B^-1 b_B and D times each slack
    flat, D = _integers([x for row in inv for x in row])
    columns = [(*(sum(map(mul, a, c)) for a, _, _ in rows), *c)
               for c in (flat[j::n] for j in range(n))]
    columns.append(tuple(s * D // scale for s in (*slacks, *(-x for x in X))))
    state = _Simple(tuple(basis), D, tuple(columns))
    found = [(point, tuple(sorted(basis)))]
    seen = {sum(1 << i for i in basis)}
    pending = []  # per vertex on the path: its (edge, entering row, neighbour) steps
    returns = []  # per step along the path: the (edge, row) pivot back
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
        found.append((state.vertex(), tuple(sorted(state.basis))))


def _steps(state: _Simple) -> Optional[list[tuple[int, int, int]]]:
    """Per edge k: k, the row r that blocks it first and the neighbour's
    basis as a bitmask; None if some edge is blocked by two rows at once.
    Ratios slack_i / -T[i][k] are compared by cross-multiplying."""
    mask = sum(1 << i for i in state.basis)
    slacks = state.columns[-1]
    m = len(slacks) - len(state.basis)
    steps = []
    for k, leaving in enumerate(state.basis):
        col, r, tie = state.columns[k], None, False
        for i in range(m):
            if (c := col[i]) < 0:
                if r is None or (d := slacks[i] * col[r] - slacks[r] * c) > 0:
                    r, tie = i, False
                elif d == 0:
                    tie = True
        if r is None:
            raise InternalInvariantError(
                f"no normal blocks edge {k} at vertex {format_vector(state.vertex())}")
        if tie:
            return None
        steps.append((k, r, mask ^ (1 << leaving) ^ (1 << r)))
    return steps


def _pivot(state: _Simple, k: int, r: int) -> _Simple:
    """The state where row r replaces the k-th basis row. Over D q, with
    -q = D T[r][k] < 0 the pivot, column k becomes -D times itself and any
    other column q times itself plus its row-r entry times column k (shared
    if that is 0 and q == 1); then the common gcd is divided out."""
    D, pivot = state.denominator, state.columns[k]
    q = -pivot[r]
    columns = [tuple(-D * x for x in pivot) if j == k else
               column if (f := column[r]) == 0 and q == 1 else
               tuple(q * a + f * b for a, b in zip(column, pivot))
               for j, column in enumerate(state.columns)]
    D *= q
    if D > 1 and (g := gcd(D, *chain.from_iterable(columns))) > 1:
        columns = [tuple(x // g for x in column) for column in columns]
        D //= g
    return _Simple(state.basis[:k] + (r,) + state.basis[k + 1:], D, tuple(columns))
