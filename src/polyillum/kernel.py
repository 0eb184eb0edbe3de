"""Exact rational vectors and linear algebra.

Every geometric verdict in this package reduces to sign decisions, so
nothing here touches floating point. Vectors are plain tuples of
`fractions.Fraction`, and `Fraction` is what every function takes and
returns but `inverse`, whose callers take many integer dot products with
its columns, so it returns them as ints over one denominator, the
separating rows of `coordinates`, the dependences of `circuits`, as
coprime ints, and `primitive_form`; inside, the arithmetic is on Python
ints. An int has a numerator and a denominator too, so a function that
reads a vector's entries only through those, as `first_basis`,
`primitive_form` and `lp.solve_eq_nonneg` do, takes int vectors as well,
such as primitive forms. `_integers` scales a vector to ints by the lcm
of its denominators, once, for `dot` here and for every caller that
takes many integer dot products with one vector; `_lowest_terms` gives
it for ints over a denominator.
`_pivot` is the package's one integer pivot (Edmonds, J. Res. NBS, 1967)
of a matrix M of ints over one positive denominator D, so that M / D is
the rational matrix: it divides nothing, and the common gcd of M and D is
divided out after it. Every row reduction here, and the prefix tree on
one tableau of `circuits`, pivot by it, as do `lp`'s simplex and
`polytope`'s vertex walk, so the pivots, and the reduced matrix, are
those of the rational elimination. There is no square solve: the vertex
walk reads its start off one `inverse`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import InputError, InternalInvariantError

Vec = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
# Longest rejected literal or vector entry that an error message shows in full.
_QUOTE_LIMIT = 40


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (ASCII decimal integers, optional leading minus).

    Anything but a string (a JSON number, say) is rejected, and so is a
    literal too long for `int` (Python's integer string-conversion limit).
    """
    if not isinstance(text, str):
        raise InputError(f"rational literal must be a string, got {type(text).__name__}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not a rational literal: {_quote(text)}")
    p, _, q = s.partition("/")
    try:
        num, den = int(p), int(q or 1)
    except ValueError:
        raise InputError(
            f"rational literal of {len(s)} characters exceeds the integer "
            f"string-conversion limit")
    if den == 0:
        raise InputError(f"zero denominator in rational literal: {_quote(text)}")
    return Fraction(num, den)


def _quote(text: str) -> str:
    """The repr of a rejected literal, or its length if it is long, so an
    error message stays short whatever the input."""
    return repr(text) if len(text) <= _QUOTE_LIMIT else f"<{len(text)} characters>"


def format_rational(x: Fraction | int) -> str:
    """The literal "p" or "p/q" of x, a `Fraction` in lowest terms, exact at
    any length: `parse_rational` still refuses a literal so long."""
    try:
        return str(x)
    except ValueError:  # Python's integer string-conversion limit, lifted for this call
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


def format_vector(v) -> str:
    """A vector, or a tuple of vectors, as an error message shows it:
    (1/2, -1), ((1, 0), (0, 1)); an entry of over _QUOTE_LIMIT characters
    is shown by its length, so the message stays short."""
    return "(" + ", ".join(format_vector(x) if isinstance(x, tuple) else
                           (t if len(t := format_rational(x)) <= _QUOTE_LIMIT
                            else f"<{len(t)} characters>") for x in v) + ")"


def vec(*entries) -> Vec:
    for e in entries:  # an int, not a bool, or a `Fraction`; never a float
        if type(e) is not int and not isinstance(e, Fraction):
            raise InputError(f"rational must be an int or a Fraction, got {type(e).__name__}")
    return tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)


def dot(a: Vec, b: Vec) -> Fraction:
    (ia, ka), (ib, kb) = _integers(a), _integers(b, len(a))
    return Fraction(sum(map(mul, ia, ib)), ka * kb)


def _integers(v, n: Optional[int] = None) -> tuple[list[int], int]:
    """k * v as ints, and k, the lcm of v's denominators; n, if given, is len(v)."""
    if n is not None and len(v) != n:
        raise InputError(f"dimension mismatch: {n} vs {len(v)}")
    k = lcm(*(x.denominator for x in v))
    if k == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (k // x.denominator) for x in v], k


def _lowest_terms(X: Sequence[int], D: int) -> tuple[tuple[int, ...], int]:
    """`_integers(X / D)`, D > 0, with a tuple: the lcm of its denominators is D / gcd(D, *X)."""
    g = gcd(D, *X)
    return tuple(x // g for x in X), D // g


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def primitive_form(v: Vec) -> tuple[int, ...]:
    """v scaled by a positive rational to coprime integers.

    Two vectors are positive multiples of each other iff their primitive
    forms coincide; negation flips the form.
    """
    ints = _integers(v)[0]
    if not (g := gcd(*ints)):
        raise InputError("zero vector has no direction")
    return tuple(i // g for i in ints)


def _pivot(M: Sequence[Sequence[int]], D: int, r: int, c: int) -> tuple[list, int]:
    """One integer pivot (Edmonds) of the vectors M over D > 0 on entry c
    of vector r, as a new (M, D): M / D is the rational matrix before and
    after. Vector r is negated if need be, so that its entry p at c is
    positive; then, over D * p, vector r is D times itself and every other
    vector v is v * p - v[c] * (vector r), and is v itself if v[c] == 0 and
    p == 1. The common gcd of M and D is divided out afterwards, which keeps
    the entries small. No vector is changed in place: callers share them."""
    piv = M[r] if M[r][c] > 0 else [-x for x in M[r]]
    p = piv[c]
    M = [[x * D for x in piv] if i == r else
         v if (f := v[c]) == 0 and p == 1 else
         [x * p - f * y for x, y in zip(v, piv)]
         for i, v in enumerate(M)]
    D *= p
    # the gcd divides D, so there is none to take while D == 1
    if D > 1 and (g := gcd(D, *chain.from_iterable(M))) > 1:
        M = [[x // g for x in v] for v in M]
        D //= g
    return M, D


def _row_reduce(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int, list[int]]:
    """Gauss-Jordan elimination of the rational rows: (M, D, pivot columns),
    with M a matrix of ints and D > 0 such that M / D is the reduced row
    echelon form, up to its last pivot row. Each row is scaled by the lcm
    of its denominators, which leaves the reduced form unchanged, and each
    pivot is one `_pivot` on the rows."""
    M = [_integers(row)[0] for row in rows]
    D = 1
    pivots: list[int] = []
    r = 0
    cols = len(M[0]) if M else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        M, D = _pivot(M, D, r, c)
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M, D, pivots


def first_basis(vectors: Sequence[Vec]) -> tuple[int, ...]:
    """The indices of the first basis among the vectors in index order: the
    pivot columns of one elimination of the matrix whose columns they are."""
    return tuple(_row_reduce(list(zip(*vectors)))[2])


def rank(vectors: Sequence[Vec]) -> int:
    return len(first_basis(vectors))


def inverse(rows: Sequence[Vec]) -> Optional[tuple[tuple[tuple[int, ...], ...], int]]:
    """(Q, D), with Q[j] the j-th column of D times the inverse of a square
    matrix, as ints, by one elimination of [rows | I]; or None if it is
    singular. The left block reduces to D I and the common gcd of the
    reduced matrix and D is divided out, so D is the least positive
    denominator that makes D times the inverse integral."""
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InputError("inverse needs a square matrix")
    M, D, pivots = _row_reduce([(*rows[i], *(int(i == j) for j in range(n)))
                                for i in range(n)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(M[i][n + j] for i in range(n)) for j in range(n)), D


def coordinates(generators: Sequence[Vec], targets: Sequence[Vec]) -> Optional[list[tuple]]:
    """For each target x, (mu, None) with x == sum(mu_i g_i), or (None, z),
    z ints with <z, g> == 0 for every generator and <z, x> != 0; None if
    the generators are dependent. The last block of one elimination of
    [generators | targets | I], as columns scaled to ints by one lcm, is
    the row operations E: E x is mu above the generators' pivot rows if it
    vanishes below them, and else a row of E below them is z; each answer
    is checked exactly against the input."""
    k, n = len(generators), len(next(iter((*generators, *targets)), ()))
    flat, _ = _integers([x for v in (*generators, *targets) for x in v])
    cols = [flat[j * n:j * n + n] for j in range(k + len(targets))]
    M, D, pivots = _row_reduce([[c[s] for c in cols] + [int(s == i) for i in range(n)]
                                for s in range(n)])
    if pivots[:k] != list(range(k)):
        return None
    found = []
    for j, x in enumerate(cols[k:], k):
        if (r := next((r for r in range(k, n) if M[r][j]), None)) is not None:
            z = tuple(M[r][len(cols):])
            if any(sum(map(mul, z, g)) for g in cols[:k]) or not sum(map(mul, z, x)):
                raise InternalInvariantError("separating row fails its check")
            found.append((None, z))
        elif any(sum(c[s] * M[i][j] for i, c in enumerate(cols[:k])) != D * x[s]
                 for s in range(n)):
            raise InternalInvariantError("coordinates fail their substitution check")
        else:
            found.append((tuple(Fraction(M[i][j], D) for i in range(k)), None))
    return found


def simplex_dependence(points: Sequence[Vec]) -> Optional[Vec]:
    """The unique (up to scale) dependence of d+1 points spanning a d-space:
    coefficients mu, with mu_f == 1 at the first free column f, and
    sum(mu_i * points_i) == 0, read off the pivots of one elimination.

    Returns None unless rank(points) == len(points) - 1.
    """
    k = len(points)
    M, D, pivots = _row_reduce(list(zip(*points)))
    if len(pivots) != k - 1:
        return None
    f = next(c for c in range(k) if c not in pivots)
    mu = [Fraction(0)] * k
    mu[f] = Fraction(1)
    for r, c in enumerate(pivots):
        mu[c] = Fraction(-M[r][f], D)
    return tuple(mu)


def circuits(vectors: Sequence[Vec]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The circuits (minimal dependent subsets) of the vectors, as (indices,
    dependence) pairs, by size and then by indices; the dependence has no
    zero coefficient and is unique up to scale: coprime ints, positive at
    the circuit's last element, made with no `Fraction`. A zero vector
    lies in no circuit of two or more.

    One elimination of the matrix whose columns are the vectors gives the
    first basis B in index order, and each other vector's nonzero pivot
    rows give its fundamental circuit over B. These circuits join the
    vectors into the connected components of their matroid, whatever the
    basis (Oxley, *Matroid Theory*, 4.3), and the matroid is the direct
    sum of its components, so its circuits are those of the components.
    A component K has rank |K & B|. At rank |K| it is one coloop, in no
    circuit; at rank |K| - 1 it holds one dependence, and being connected
    it is a circuit itself, with its last element f alone outside B: its
    dependence is D at f and -M[r][f] at the element of pivot row r, over
    their gcd (`_lowest_terms`), as in the scan.
    Any other component is scanned by a prefix tree on one tableau: a
    circuit less its last element is independent, and each independent
    prefix short of the component's rank is one pivot of its parent's
    tableau. The last level is read off 2x2 minors of the tableau of a
    prefix one short of the rank, with no pivot (`_scan_circuits`).
    """
    M, D, basis = _row_reduce(list(zip(*vectors)))
    pivot_row = {b: r for r, b in enumerate(basis)}
    parent = list(range(len(vectors)))  # a union-find forest over the indices

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for f in range(len(vectors)):
        if f not in pivot_row:
            for r, b in enumerate(basis):
                if M[r][f]:
                    parent[root(b)] = root(f)
    components: dict[int, list[int]] = {}
    for i in range(len(vectors)):
        components.setdefault(root(i), []).append(i)
    found = []
    for K in components.values():
        k = sum(i in pivot_row for i in K)
        if len(K) == k + 1 and k:  # k == 0: a zero vector, alone
            X, L = _lowest_terms([-M[pivot_row[b]][K[-1]] for b in K[:-1]], D)
            found.append((tuple(K), (*X, L)))
        elif len(K) > k + 1:
            found += _scan_circuits(vectors, K, k)
    return sorted(found, key=lambda c: (len(c[0]), c[0]))


def _scan_circuits(vectors: Sequence[Vec], elements: Sequence[int],
                   rank: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The circuits among the given vectors, of the given rank, by a
    depth-first search over their independent prefixes in index order on
    one tableau: the vectors as columns, each coordinate row scaled to
    ints, which keeps every dependence. A dependent prefix holds a
    circuit, so it is not extended, and a prefix of rank - 1 is not
    pivoted: a column j with an entry M[f][j] != 0 in a free row f would
    fill the rank, leaving every free row zero, so a later column j' closes
    a circuit with the prefix and j iff M[f][j'] != 0 and each minor
    M[p][j'] M[f][j] - M[f][j'] M[p][j] over a prefix row p is nonzero,
    and the dependence, in ints, is -s minor at the prefix's elements,
    -s D M[f][j'] at j and D |M[f][j]| at j', s the sign of M[f][j]."""
    found = []

    def visit(M: list, D: int, prefix: tuple[int, ...], rows: tuple[int, ...]) -> None:
        # M / D is pivoted on the prefix's columns, in these rows
        free = [r for r in range(len(M)) if r not in rows]
        last = len(prefix) == rank - 1
        for j in range(prefix[-1] + 1 if prefix else 0, len(elements)):
            f = next((r for r in free if M[r][j]), None)
            if f is None:
                if all(M[p][j] for p in rows):  # j depends on all of the prefix: a circuit
                    X, L = _lowest_terms([-M[p][j] for p in rows], D)
                    found.append((tuple(elements[i] for i in (*prefix, j)), (*X, L)))
            elif not last:  # column j extends the prefix to an independent one
                visit(*_pivot(M, D, f, j), (*prefix, j), (*rows, f))
            else:
                e = M[f][j]
                s = 1 if e > 0 else -1
                for k in range(j + 1, len(elements)):
                    if (g := M[f][k]) and all(
                            minors := [M[p][k] * e - g * M[p][j] for p in rows]):
                        X, L = _lowest_terms([-s * x for x in minors] + [-s * g * D], D * s * e)
                        found.append((tuple(elements[i] for i in (*prefix, j, k)), (*X, L)))

    visit([_integers(row)[0] for row in zip(*(vectors[i] for i in elements))], 1, (), ())
    return found
