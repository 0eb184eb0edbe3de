"""The `Fraction` row reduction that `polyillum.kernel` replaced, kept as
the reference its integer elimination is compared against: the same
Gauss-Jordan elimination, the same pivots and the same answers, on a
matrix of `Fraction`s, with the one pivot step it takes and the functions
that read their answers off it. `solve_rows` solves a square system, which
the package reads off its integer inverse instead.
`circuits` is the enumeration that `polyillum.kernel.circuits` replaced: it
row-reduces every subset of up to n + 1 vectors that holds no smaller
circuit, whatever the structure of their matroid. `scan_circuits` is the
prefix tree that `polyillum.kernel._scan_circuits` replaced: it pivots
every independent prefix, up to the full rank, and reads each dependence
off the pivoted tableau.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from polyillum.errors import InputError
from polyillum.kernel import Vec, _integers, _pivot


def dot(a: Vec, b: Vec) -> Fraction:
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _row_reduce(matrix: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place forward elimination; returns (matrix, pivot column indices)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = matrix[r][c]
        matrix[r] = [x / inv for x in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return matrix, pivots


def pivot(matrix: Sequence[Sequence[Fraction]], r: int, c: int) -> list[list[Fraction]]:
    """One Gauss-Jordan step on the vectors of a matrix: vector r over its
    entry at c, and every other vector v less v[c] times that."""
    piv = [x / matrix[r][c] for x in matrix[r]]
    return [piv if i == r else [x - v[c] * y for x, y in zip(v, piv)]
            for i, v in enumerate(matrix)]


def rank(vectors: Sequence[Vec]) -> int:
    if not vectors:
        return 0
    m = [list(v) for v in vectors]
    _, pivots = _row_reduce(m)
    return len(pivots)


def solve_rows(rows: Sequence[Vec], rhs: Sequence[Fraction]) -> Optional[Vec]:
    """Solve the square system <rows_i, x> = rhs_i, or None if singular."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows) or len(rhs) != n:
        raise InputError("solve_rows needs a square system")
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    reduced, pivots = _row_reduce(aug)
    if len(pivots) < n or pivots != list(range(n)):
        return None
    return tuple(reduced[i][n] for i in range(n))


def inverse(rows: Sequence[Vec]) -> Optional[tuple[Vec, ...]]:
    """The rows of the inverse of a square matrix, by one elimination of
    [rows | I], or None if it is singular."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InputError("inverse needs a square matrix")
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = _row_reduce(aug)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(reduced[i][n:]) for i in range(n))


def simplex_dependence(points: Sequence[Vec]) -> Optional[Vec]:
    """The unique (up to scale) dependence of d+1 points spanning a d-space:
    coefficients mu, with mu_f == 1 at the first free column f, and
    sum(mu_i * points_i) == 0, read off the pivots of one elimination.

    Returns None unless rank(points) == len(points) - 1.
    """
    k = len(points)
    if k == 0:
        return None
    m = [[p[i] for p in points] for i in range(len(points[0]))]
    reduced, pivots = _row_reduce(m)
    if len(pivots) != k - 1:
        return None
    f = next(c for c in range(k) if c not in pivots)
    mu = [Fraction(0)] * k
    mu[f] = Fraction(1)
    for r, c in enumerate(pivots):
        mu[c] = -reduced[r][f]
    return tuple(mu)


def circuits(vectors: Sequence[Vec]) -> list[tuple[tuple[int, ...], Vec]]:
    """The circuits (minimal dependent subsets) of the vectors, as (indices,
    dependence) pairs; the dependence has no zero coefficient and is unique
    up to scale.

    A circuit holds 2..n+1 vectors: n+2 vectors in dimension n are always
    dependent. Sizes run upwards and indices lexicographically, and a subset
    that holds a circuit of a smaller size is not minimal, so it is skipped
    without a row reduction. A circuit of its own size is never inside it.
    """
    dim = len(vectors[0]) if vectors else 0
    found = []
    smaller: list[int] = []
    for size in range(2, dim + 2):
        supports = []
        for idx in combinations(range(len(vectors)), size):
            mask = sum(1 << i for i in idx)
            if any(mask & support == support for support in smaller):
                continue
            mu = simplex_dependence([vectors[i] for i in idx])
            if mu is None or any(c == 0 for c in mu):
                continue
            found.append((idx, mu))
            supports.append(mask)
        smaller += supports
    return found


def scan_circuits(vectors: Sequence[Vec],
                  elements: Sequence[int]) -> list[tuple[tuple[int, ...], Vec]]:
    """The circuits among the given vectors, by a depth-first search over
    their independent prefixes in index order on one tableau: the vectors
    as columns, each coordinate row scaled to ints, which keeps every
    dependence. A dependent prefix holds a circuit, so it is not extended."""
    found = []

    def visit(M: list, D: int, prefix: tuple[int, ...], rows: tuple[int, ...]) -> None:
        # M / D is pivoted on the prefix's columns, in these rows
        free = [r for r in range(len(M)) if r not in rows]
        for j in range(prefix[-1] + 1 if prefix else 0, len(elements)):
            r = next((r for r in free if M[r][j]), None)
            if r is not None:  # column j extends the prefix to an independent one
                visit(*_pivot(M, D, r, j), (*prefix, j), (*rows, r))
            elif all(M[p][j] for p in rows):  # j depends on all of the prefix: a circuit
                found.append((tuple(elements[i] for i in (*prefix, j)),
                              (*(Fraction(-M[p][j], D) for p in rows), Fraction(1))))

    visit([_integers(row)[0] for row in zip(*(vectors[i] for i in elements))], 1, (), ())
    return found
