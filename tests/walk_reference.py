"""The references the vertex walk of `polyillum.polytope` is compared
against:

- the candidate scan it replaced, which solves every square system of n
  rows, and whose feasible candidates `polytope._starts` still yields, in
  the same order, as the states the walk starts from;
- the `Fraction` walk over simple vertices it replaced: the same
  depth-first walk over the graph of the polytope, the same ratio tests
  and pivots, with the state in `Fraction`s, giving up (None) at the first
  vertex with more than n tight normals;
- the lexicographically feasible bases, each found from a fresh inverse.

The walk keys each vertex x on (X, k), x == X / k as ints over the least
k > 0; the references give their vertices as the same keys, by
`integer_key`, which scales a `Fraction` point independently of the walk.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from polyillum.errors import InternalInvariantError
from polyillum.kernel import Vec, _integers, _row_reduce, dot, format_vector
from polyillum.polytope import _slacks
from tests.kernel_reference import inverse


def integer_key(x: Vec) -> tuple[tuple[int, ...], int]:
    """The walk's key of the point x: `_integers(x)`, with a tuple."""
    X, k = _integers(x)
    return tuple(X), k


def feasible_candidates(rows: Sequence[tuple], n: int, scale: int):
    """Each basis of n rows, in `combinations` order, whose square system
    has a solution y that satisfies every constraint, with the point
    x = y / scale, y read off one elimination of the system's integer
    rows [a | b]."""
    for idx in combinations(range(len(rows)), n):
        M, D, pivots = _row_reduce([(*rows[i][0], rows[i][1]) for i in idx])
        if pivots == list(range(n)):
            y = tuple(Fraction(v[n], D) for v in M)
            if min(_slacks(rows, *_integers(y))) >= 0:
                yield idx, tuple(c / scale for c in y)


def _scan(rows: Sequence[tuple], scale: int, candidates) -> list[tuple[tuple, tuple[int, ...]]]:
    """The candidate route: the key of every feasible candidate's point,
    with the indices of the rows tight there."""
    return [((X, k), tuple(i for i, s in enumerate(_slacks(rows, [scale * x for x in X], k))
                           if s == 0))
            for X, k in {integer_key(x) for _, x in candidates}]


def lex_feasible_bases(rows: Sequence[tuple], start: Sequence[int]) -> set[tuple[int, ...]]:
    """Every basis of n rows, as sorted indices, at which each other row's
    slack is lexicographically positive once every row i outside `start`
    is relaxed by eps_i, with eps_0 >> eps_1 >> ... > 0: the slack, then
    the coefficient of each eps_l in row order."""
    normals = [tuple(Fraction(x) for x in a) for a, _, _ in rows]
    relaxed = [i not in start for i in range(len(rows))]
    found = set()
    for basis in combinations(range(len(rows)), len(start)):
        inv = inverse([normals[i] for i in basis])
        if inv is None:
            continue
        columns = tuple(zip(*inv))
        x = tuple(sum(c * rows[i][1] for c, i in zip(row, basis)) for row in inv)
        for i in set(range(len(rows))) - set(basis):
            T = dict(zip(basis, (dot(normals[i], c) for c in columns)))
            slack = [rows[i][1] - dot(normals[i], x)] + [
                relaxed[l] * ((l == i) - T.get(l, 0)) for l in range(len(rows))]
            if next((v for v in slack if v), 0) <= 0:
                break
        else:
            found.add(basis)
    return found


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
          point: Vec) -> Optional[dict[tuple, tuple[int, ...]]]:
    """Every vertex, by its key, with the indices of its tight normals, by
    a depth-first walk over the graph of the polytope from a start vertex,
    or None at the first vertex with more than n tight normals.

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
    found = {integer_key(point): tuple(sorted(basis))}
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
        found[integer_key(state.point)] = tuple(sorted(state.basis))


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
