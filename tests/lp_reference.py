"""The `Fraction` phase-one simplex that `polyillum.lp` replaced, kept as
the reference its integer tableau is compared against: the same pivots,
the same Bland's rule and the same checks, on a tableau of `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from polyillum.errors import InputError, InternalInvariantError
from polyillum.kernel import dot


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
    returned is checked against the input by exact dot products.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise InputError("ragged constraint matrix")
    # rows with a negative right-hand side are negated, so that b >= 0
    signs = [-1 if h < 0 else 1 for h in rhs]
    T = [[Fraction(x) if s > 0 else -Fraction(x) for x in r]
         + [Fraction(int(j == i)) for j in range(m)] for i, (s, r) in enumerate(zip(signs, rows))]
    b = [s * Fraction(h) for s, h in zip(signs, rhs)]
    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the artificial sum; artificial columns start at 0
    red = [-sum(T[i][j] for i in range(m)) for j in range(n)] + [Fraction(0)] * m

    while True:
        enter = next((j for j in range(n) if red[j] < 0), None)
        if enter is None:
            break
        pr = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = b[i] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pr]):
                    best = ratio
                    pr = i
        if pr is None:
            raise InternalInvariantError(
                "phase-one simplex unbounded, though the artificial sum is "
                "bounded below by zero")
        piv = T[pr][enter]
        T[pr] = [x / piv for x in T[pr]]
        b[pr] /= piv
        for i in range(m):
            if i != pr and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[pr])]
                b[i] -= f * b[pr]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, T[pr])]
        basis[pr] = enter

    if all(basis[i] < n or b[i] == 0 for i in range(m)):
        support = [(basis[i], b[i]) for i in range(m) if basis[i] < n and b[i]]
        if any(sum(r[j] * v for j, v in support if r[j]) != h for r, h in zip(rows, rhs)):
            raise InternalInvariantError("phase-one solution fails its substitution check")
        y = [Fraction(0)] * n
        for j, v in support:
            y[j] = v
        return y, None
    z = [s * (1 - red[n + i]) for i, s in enumerate(signs)]
    if any(dot(z, [r[j] for r in rows]) > 0 for j in range(n)) or dot(z, rhs) <= 0:
        raise InternalInvariantError("Farkas certificate fails its check")
    return None, z
