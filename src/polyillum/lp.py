"""Exact linear feasibility over the rationals.

A phase-one simplex with Bland's rule decides systems of the form
A y = b, y >= 0 exactly, and returns the proof of whichever answer holds:
a solution y, or a Farkas certificate z with z A <= 0 and z b > 0
(Schrijver, *Theory of Linear and Integer Programming*, 1986, section
7.3). Every cone question of the package is posed in this one form.

The tableau is a matrix M of Python ints over one positive denominator D,
so that M / D is the rational tableau (Applegate, Cook, Dash and
Espinoza, *Exact solutions to linear programming problems*, Oper. Res.
Lett. 2007). Each pivot is `kernel._pivot`, Edmonds' integer pivot (J.
Res. NBS, 1967), which divides nothing and divides out the common gcd of
M and D after it. Ratios are compared by cross-multiplying, so every sign
and every tie, and with them every pivot, are those of the rational
tableau. `Fraction`s are built only for the returned vector.

`_bland` is the one pivot loop, with two drivers. `solve_eq_nonneg` runs
it on all columns, for membership and Farkas directions.
`position.signed_separators`, the one separation LP, runs it on the
columns of one prefix of the given sign vectors at a time.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, InternalInvariantError
from .kernel import _pivot


def solve_eq_nonneg(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
                    ) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """(y, None) with y >= 0 and rows @ y == rhs, or (None, z) with
    z @ rows <= 0 column by column and z @ rhs > 0.

    Phase-one simplex minimizing the sum of artificials; Bland's rule
    (lowest entering index, lowest-index basic variable on ratio ties)
    guarantees termination. When no column prices out, the simplex
    multipliers pi_i = 1 - (reduced cost of artificial i) satisfy
    pi A' <= 0 and pi b' = the artificial sum, where A', b' have the rows
    with b_i < 0 negated; undoing those signs gives z. Whichever vector is
    returned is checked exactly against the input, scaled to integers by
    the lcm of its denominators, a positive factor that keeps every
    equation and every sign.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise InputError("ragged constraint matrix")
    if len(rhs) != m:
        raise InputError(f"{len(rhs)} right-hand sides for {m} constraint rows")
    scale = lcm(*(x.denominator for x in chain(rhs, *rows)))
    A = [[x.numerator * (scale // x.denominator) for x in r] for r in rows]
    b = [h.numerator * (scale // h.denominator) for h in rhs]
    # rows with a negative right-hand side are negated, so that b >= 0
    signs = [-1 if h < 0 else 1 for h in b]
    M, D, basis = _phase_one(A, b, signs, scale)

    if all(basis[i] < n or M[i][-1] == 0 for i in range(m)):
        # y_j = v / D for each basic column j with value v
        support = [(basis[i], M[i][-1]) for i in range(m) if basis[i] < n and M[i][-1]]
        if any(sum(a[j] * v for j, v in support) != h * D for a, h in zip(A, b)):
            raise InternalInvariantError("phase-one solution fails its substitution check")
        y = [Fraction(0)] * n
        for j, v in support:
            y[j] = Fraction(v, D)
        return y, None
    # z = Z / D
    Z = [s * (D - M[m][n + i]) for i, s in enumerate(signs)]
    if (any(sum(zi * a[j] for zi, a in zip(Z, A)) > 0 for j in range(n))
            or sum(zi * h for zi, h in zip(Z, b)) <= 0):
        raise InternalInvariantError("Farkas certificate fails its check")
    return None, [Fraction(zi, D) for zi in Z]


def _phase_one(A: list[list[int]], b: list[int], signs: list[int], D: int,
               columns: Optional[Sequence[int]] = None
               ) -> tuple[list[list[int]], int, list[int]]:
    """The tableau M over D, and its basis, after Bland's phase one on the
    given columns of A (all by default) from the sign-normalised rows,
    artificial columns D * I and the right-hand side as the last column.
    The last row holds the reduced costs of the artificial sum."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[s * x for x in a] + [D if j == i else 0 for j in range(m)] + [s * h]
         for i, (s, a, h) in enumerate(zip(signs, A, b))]
    M.append([-sum(r[j] for r in M) for j in range(n)] + [0] * m
             + [-sum(r[-1] for r in M)])
    return _bland(M, D, [n + i for i in range(m)], range(n) if columns is None else columns)


def _bland(M: list[list[int]], D: int, basis: list[int], columns: Sequence[int]
           ) -> tuple[list[list[int]], int, list[int]]:
    """Bland's rule until none of `columns`, in increasing order, prices
    out: the first negative reduced cost enters, the least ratio leaves,
    ties to the lowest basic column. Returns a new (M, D, basis): `_pivot`
    changes no row in place, so callers may share the tableau."""
    basis = basis[:]
    while True:
        enter = next((j for j in columns if M[-1][j] < 0), None)
        if enter is None:
            return M, D, basis
        pr = None
        for i in range(len(basis)):
            f = M[i][enter]
            # b_i / f against b_pr / f_pr, both denominators positive
            if f > 0 and (pr is None or (c := M[i][-1] * M[pr][enter] - M[pr][-1] * f) < 0
                          or c == 0 and basis[i] < basis[pr]):
                pr = i
        if pr is None:
            raise InternalInvariantError(
                "phase-one simplex unbounded, though the artificial sum is "
                "bounded below by zero")
        M, D = _pivot(M, D, pr, enter)
        basis[pr] = enter
