"""The H-polytope model: validated normal sets and exact vertex
enumeration, each vertex with the index bitmask of its tight normals.

The constraints are kept as one integer system: each normal is scaled to
its own integers c m, c the lcm of its denominators, and the offsets c h
are put over one common scale L, the lcm of the offsets' denominators,
so the system is A y <= b in y = L x, and a slack is an integer dot
product. Every tableau of the walk then depends on the normals alone: on
a unimodular set of normals, as every generated family is, each pivot is
on a unit over the denominator 1, whatever the offsets. Scaling a row by
a positive number changes no choice of the walk's ratio test.

Vertices are enumerated by a depth-first walk over the
lexicographically feasible bases (Avis and Fukuda's pivoting
enumeration with lrs's lexicographic rule) from the first feasible
candidate basis in `combinations` order. The scan for that start inverts
each candidate basis once, and the walk starts from the inverse of the
first feasible one; each of its steps is one `kernel._pivot`, on ints
over one denominator without division (Edmonds). The rule lets the walk
pass through vertices with more than n tight normals, which the paper's
monotypic polytopes never have, whatever the offsets. It keys each
vertex on its point in lowest terms as ints, hashing no `Fraction`, and
the polytope keeps those ints as its vertex table for the illumination;
its vertices' points share one `Fraction` per distinct coordinate.

A NormalSet is valid by construction: its normals are nonzero, pairwise
distinct directions that positively span the space, so every offset
vector gives a bounded system, and they pass the vertex-enumeration
guard. Positive spanning is decided once per set: by the vertex walk for
a polytope built from facets, and by LP for a bare normal set. The walk
rests on three facts: a nonempty polyhedron of rank n is pointed; the
graph of its lexicographic bases is connected (Balinski); and an
unbounded pointed polyhedron has an unbounded edge at some vertex. So a
walk that finishes proves the system bounded, and a bounded nonempty
system has positively spanning normals; a build that finds no start, or
whose walk fails, runs the LP test first. The normals positively span
exactly when they have rank n and -sum(n_i) lies in their positive hull
(Davis, *Theory of positive linear dependence*, Amer. J. Math. 1954).
Both depend only on the normals' rays: scaling a normal by a positive
number moves no pivot column and keeps a strictly positive dependence
strictly positive. So the rank and that LP run on the normals' primitive
forms, coprime ints, and the set is hashed on them. Only when the test
fails does one LP run, on the normals as given, for each of +-e_i:
either e_i lies in the positive hull of the normals, or the LP's Farkas
certificate is a direction along which every system with these normals
is unbounded.

Normal sets are kept in a canonical descending lexicographic order; every
downstream tie-break (certificates, basis refinement, cone listings)
derives from that order, so all outputs are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InternalInvariantError, ScaleLimitError
from .kernel import (Vec, _integers, _lowest_terms, _pivot as _integer_pivot, first_basis,
                     format_vector, inverse, primitive_form, vec)
from .position import farkas_direction

# Inverses the search for the walk's start may make: C(m, n) for m
# facets in R^n. The guard bounds only that search.
MAX_VERTEX_CANDIDATES = 10 ** 6


def vertex_guard(m: int, n: int) -> None:
    """Refuse C(m, n) > MAX_VERTEX_CANDIDATES, computing no more of it than that needs."""
    k, count = min(n, m - n), 1
    for i in range(k):
        count = count * (m - i) // (i + 1)
        if count > MAX_VERTEX_CANDIDATES:
            raise ScaleLimitError(
                f"{comb(m, n) if k <= 1000 else f'C({m}, {n})'} vertex candidates "
                f"exceed the enumeration guard ({MAX_VERTEX_CANDIDATES})")


class _Frozen:
    """Slots that `__init__` fills once, with `object.__setattr__`."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NormalSet(_Frozen):
    """Equal and shown on (dim, normals), and hashed on dim and the normals'
    primitive forms, which are equal when the normals are; the hash is
    kept, since every per-NormalSet cache lookup takes it. `basis`, the
    indices of the first basis among the normals, shows that they span and
    is where the skeleton's basis refinement starts. `_unspanned` leaves
    positive spanning to the walk of the polytope built on the set."""
    __slots__ = ("dim", "normals", "basis", "_hash", "_forms")

    def __init__(self, dim: int, normals: tuple[Vec, ...]):
        self._validate(dim, normals)
        self._decide_spanning()

    @classmethod
    def _unspanned(cls, dim: int, normals: tuple[Vec, ...]) -> "NormalSet":
        N = cls.__new__(cls)
        N._validate(dim, normals)
        return N

    def _validate(self, n: int, normals: tuple[Vec, ...]):
        if n <= 0:
            raise InputError(f"dimension must be positive, got {n}")
        seen: dict[tuple[int, ...], int] = {}
        for i, v in enumerate(normals):
            if len(v) != n:
                raise InputError(f"normal {i} has dimension {len(v)}, expected {n}",
                                 facet_index=i)
            if not any(v):
                raise InputError(f"normal {i} is the zero vector", facet_index=i)
            p = primitive_form(v)
            if p in seen:
                raise InputError(
                    f"normal {i} is a positive multiple of normal {seen[p]}",
                    facet_index=i)
            seen[p] = i
        forms = tuple(seen)  # normal i's primitive form is the i-th key
        order = sorted(range(len(normals)), key=normals.__getitem__, reverse=True)
        normals = tuple(normals[i] for i in order)
        forms = tuple(forms[i] for i in order)
        vertex_guard(len(normals), n)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "basis", first_basis(forms))
        object.__setattr__(self, "_hash", hash((n, forms)))
        object.__setattr__(self, "_forms", forms)  # None once spanning is decided

    def _decide_spanning(self):
        """Raise the InputError of a set that does not positively span."""
        n, forms = self.dim, self._forms
        # a strictly positive dependence sum((1 + y_i) n_i) == 0, y >= 0; the
        # +-e_i LPs run only to find the witness of a set that fails it
        if forms is None or len(self.basis) == n and farkas_direction(
                tuple(-sum(c) for c in zip(*forms)), forms) is None:
            object.__setattr__(self, "_forms", None)
            return
        for i in range(n):
            for sign in (1, -1):
                e = tuple(Fraction(sign if j == i else 0) for j in range(n))
                # <m, d> <= 0 for all normals and <e, d> == 1: P is unbounded along d
                d = farkas_direction(e, self.normals)
                if d is not None:
                    raise InputError(
                        f"constraint system is unbounded along {format_vector(d)}",
                        witness=d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.dim, self.normals) == (other.dim, other.normals)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NormalSet(dim={self.dim!r}, normals={self.normals!r})"

    @staticmethod
    def from_vectors(dim: int, vectors: Iterable) -> "NormalSet":
        return NormalSet(dim, tuple(vec(*v) for v in vectors))


class Vertex(NamedTuple):
    point: Vec
    mask: int  # bit i: normal i is tight


class HPolytope(_Frozen):
    """Equal, hashed and shown on (normal_set, offsets). `__post_init__`
    builds the rest."""
    # rows, per constraint <m, x> <= h: (c m, L c h, c), c the lcm of m's
    # denominators and L, the scale, the lcm of the offsets' denominators;
    # vertex_table, per vertex: `_integers` of its point, with a tuple
    __slots__ = ("normal_set", "offsets", "rows", "scale", "vertices", "vertex_table")

    def __init__(self, normal_set: NormalSet, offsets: tuple[Fraction, ...]):
        object.__setattr__(self, "normal_set", normal_set)
        object.__setattr__(self, "offsets", offsets)
        self.__post_init__()

    def __post_init__(self):
        if len(self.offsets) != len(self.normal_set.normals):
            raise InputError("offset count does not match normal count")
        rows, scale = _rows(self.normal_set.normals, self.offsets)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)
        self._enumerate_vertices()
        self._validate_irredundant()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.normal_set, self.offsets) == (other.normal_set, other.offsets)

    def __hash__(self):
        return hash((self.normal_set, self.offsets))

    def __repr__(self):
        return f"HPolytope(normal_set={self.normal_set!r}, offsets={self.offsets!r})"

    @classmethod
    def from_facets(cls, dim: int, facets: Sequence[tuple]) -> "HPolytope":
        pairs = [(v[:-1], v[-1]) for v in (vec(*n, h) for n, h in facets)]
        N = NormalSet._unspanned(dim, tuple(n for n, _ in pairs))
        # the normals are distinct, so sorting the pairs by normal puts them in N's order
        return cls(N, tuple(h for _, h in sorted(pairs, key=itemgetter(0), reverse=True)))

    # -- validation ---------------------------------------------------------

    def _enumerate_vertices(self):
        """Every vertex with its tight mask, sorted, and the vertex table; an
        empty system or a failed walk first has its normals' spanning decided."""
        N = self.normal_set
        if len(N.basis) < self.dim or (
                start := next(_starts(self.rows, self.dim, self.scale), None)) is None:
            N._decide_spanning()
            raise InputError("constraint system is empty (infeasible)")
        try:
            found = _walk(self.rows, start)
        except InternalInvariantError:
            N._decide_spanning()
            raise
        L = lcm(*(k for (_, k), _ in found))  # sorted as ints over L
        found.sort(key=lambda e: [x * (L // e[0][1]) for x in e[0][0]])
        made = _Fractions()
        object.__setattr__(self, "vertices", tuple(
            Vertex(tuple(made[x, k] for x in X), mask) for (X, k), mask in found))
        object.__setattr__(self, "vertex_table", tuple(key for key, _ in found))

    def _validate_irredundant(self):
        """A normal tight at every vertex is an implicit equality, and one
        exists exactly when the polytope is not full-dimensional. Otherwise
        the face F of normal i has dimension n minus the rank of the normals
        tight at all of its vertices (Schrijver, *Theory of Linear and
        Integer Programming*, 8.3), so it is a facet iff they are normal i
        alone: no other normal has its direction, and one opposite to it
        tight on F would make normal i tight at every vertex."""
        normals = self.normal_set.normals
        # one sweep: the AND and the OR of all masks, and per normal the
        # AND of the masks of the vertices where it is tight (-1 if none)
        everywhere, attained, common = -1, 0, [-1] * len(normals)
        for v in self.vertices:
            everywhere &= v.mask
            attained |= v.mask
            rest = v.mask
            while rest:
                common[(rest & -rest).bit_length() - 1] &= v.mask
                rest &= rest - 1
        if everywhere:
            i = (everywhere & -everywhere).bit_length() - 1
            raise InputError(f"polytope is not full-dimensional (normal {format_vector(normals[i])}"
                             f" is tight at every vertex)", facet_index=i)
        for i, m in enumerate(normals):
            if common[i] != 1 << i:
                reason = ("tight set is not a facet" if attained >> i & 1
                          else "offset never attained")
                raise InputError(f"facet with normal {format_vector(m)} is redundant ({reason})",
                                 facet_index=i)

    # -- queries ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.normal_set.dim


# -- vertex enumeration -------------------------------------------------------

class _Fractions(dict):
    """(x, k) -> Fraction(x, k), made on its first lookup: one `Fraction`
    per distinct coordinate of the vertices of one build."""

    def __missing__(self, key):
        x = self[key] = Fraction(*key)
        return x


def _rows(normals: Sequence[Vec], offsets: Sequence[Fraction]) -> tuple[tuple[tuple, ...], int]:
    """The rows of `HPolytope` and its scale L."""
    L = lcm(*(h.denominator for h in offsets))
    return tuple((tuple(a), c * h.numerator * (L // h.denominator), c)
                 for (a, c), h in zip(map(_integers, normals), offsets)), L


def _slacks(rows: Sequence[tuple], X: Sequence[int], k: int) -> list[int]:
    """b k - <a, X> for each row (a, b, c): its slack at y = X / k times k,
    that is, c L k times the constraint's slack at x = y / L."""
    return [b * k - sum(map(mul, a, X)) for a, b, _ in rows]


class _Simple(NamedTuple):
    """The walk's state at a basis B of n rows tight at a vertex x, as ints
    over the least D > 0 that makes D B^-1 integral: column k < n is
    D (T[., k], B^-1[., k]), T = A B^-1 the tableau, and column n is
    D (b - A y, -y), y = L x with L the rows' scale. A pivot treats every
    column alike."""
    basis: tuple[int, ...]
    denominator: int
    columns: Sequence[Sequence[int]]
    scale: int

    def vertex(self) -> Vec:
        D, n = self.denominator * self.scale, len(self.basis)
        return tuple(Fraction(-x, D) for x in self.columns[-1][-n:])


def _starts(rows: Sequence[tuple], n: int, scale: int):
    """The walk's state at each basis of n rows, in `combinations` order,
    whose vertex satisfies every constraint, from one inverse per basis:
    D B^-1 = Q is integral, and so are D y = sum_i b_i Q_i and D times
    each slack, for rows of the given scale."""
    for basis in combinations(range(len(rows)), n):
        if (inv := inverse([rows[i][0] for i in basis])) is None:
            continue
        Q, D = inv
        X = [sum(rows[i][1] * q for i, q in zip(basis, row)) for row in zip(*Q)]
        slacks = _slacks(rows, X, D)
        if min(slacks) >= 0:
            columns = [(*(sum(map(mul, a, c)) for a, _, _ in rows), *c) for c in Q]
            columns.append((*slacks, *(-x for x in X)))
            yield _Simple(basis, D, tuple(columns), scale)


def _walk(rows: Sequence[tuple], state: _Simple) -> list[tuple[tuple, int]]:
    """Every vertex with the mask of its tight rows, by a depth-first
    walk over the lexicographically feasible bases from the state at a
    start basis B0. A vertex x is given as (X, k), x == X / k as ints over
    the least k > 0, read off D y == D L x in its state by `_lowest_terms`.

    Relax each row i outside B0 by eps_i, with eps_0 >> eps_1 >> ... > 0:
    at basis B, row i's slack is then s_i + [i not in B0] eps_i -
    sum_j T[i][j] [B_j not in B0] eps_(B_j). B0 is feasible, and no row
    outside B is tight, since a row of B0 outside B does not depend on the
    rows of B0 in B. So these bases are the vertices of a simple polytope,
    whose graph is connected (Balinski), and each vertex of P is the point
    of one (the one maximizing a function maximized on P there alone).

    Edge k keeps every basis row but the k-th tight and runs along
    -(column k of B^-1); row i blocks it after slack_i / -T[i][k] if
    T[i][k] < 0, relaxed slacks breaking a tie, and the nearest enters the
    basis by one pivot. A vertex is keyed on its (X, k), its tight mask
    read off the zero slacks of its state. The walk holds one state and its
    basis mask, and returns along an edge by the reverse pivot, which restores it.
    """
    n, bits = len(state.basis), [1 << i for i in range(len(rows))]
    mask = start = sum(bits[i] for i in state.basis)
    found, seen = {}, {start}
    pending = []  # per basis on the path: its (edge, entering row, neighbour) steps
    returns = []  # per step along the path: the (edge, row) pivot back and the mask before it
    while True:
        tight = sum([b for b, s in zip(bits, state.columns[-1]) if not s])
        if tight & mask != mask:
            raise InternalInvariantError(
                f"a basis row is not tight at vertex {format_vector(state.vertex())}")
        found.setdefault(_lowest_terms([-x for x in state.columns[-1][-n:]],
                                       state.denominator * state.scale), tight)
        pending.append(iter(_steps(state, start, mask)))
        while pending:
            step = next((s for s in pending[-1] if s[2] not in seen), None)
            if step is not None:
                break
            pending.pop()
        if not pending:
            return list(found.items())
        while len(returns) >= len(pending):
            k, r, mask = returns.pop()
            state = _pivot(state, k, r)
        k, r, key = step
        seen.add(key)
        returns.append((k, state.basis[k], mask))
        state, mask = _pivot(state, k, r), key


def _steps(state: _Simple, start: int, mask: int) -> list[tuple[int, int, int]]:
    """Per edge k: k, the row r that blocks it first and the neighbour's
    basis as a bitmask, from the state's `mask`. Ratios slack_i / -T[i][k]
    are compared by cross-multiplying, and a tie by `_nearer`."""
    slacks = state.columns[-1]
    m = len(slacks) - len(state.basis)
    steps = []
    for k, leaving in enumerate(state.basis):
        col, r = state.columns[k], None
        for i in range(m):
            if (c := col[i]) < 0 and (
                    r is None or (d := slacks[i] * col[r] - slacks[r] * c) > 0
                    or d == 0 and _nearer(state, start, k, i, r)):
                r = i
        if r is None:
            raise InternalInvariantError(
                f"no normal blocks edge {k} at vertex {format_vector(state.vertex())}")
        steps.append((k, r, mask ^ (1 << leaving) ^ (1 << r)))
    return steps


def _nearer(state: _Simple, start: int, k: int, i: int, r: int) -> bool:
    """Whether row i blocks edge k before row r, whose ratio ties: D times
    their relaxed slacks (`_walk`, B0 the mask `start`) over -T[.][k]."""
    D, columns = state.denominator, state.columns
    relaxed = {l: (-c[i], -c[r]) for l, c in zip(state.basis, columns)} | {i: (D, 0), r: (0, D)}
    for l, (x, y) in sorted(relaxed.items()):
        if not start >> l & 1 and (d := x * columns[k][r] - y * columns[k][i]):
            return d > 0
    raise InternalInvariantError(
        f"normals {r} and {i} block edge {k} at vertex {format_vector(state.vertex())} at once")


def _pivot(state: _Simple, k: int, r: int) -> _Simple:
    """The state where row r replaces the k-th basis row: one
    `kernel._pivot` of the columns on the entry of column k at row r,
    -D T[r][k], which must be negative."""
    if state.columns[k][r] >= 0:
        raise InternalInvariantError(f"pivot on row {r} along edge {k} is not negative")
    columns, D = _integer_pivot(state.columns, state.denominator, k, r)
    return _Simple(state.basis[:k] + (r,) + state.basis[k + 1:], D, columns, state.scale)
