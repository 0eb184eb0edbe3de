"""Exact linear feasibility over the rationals.

A phase-one simplex with Bland's rule decides systems of the form
A y = b, y >= 0 exactly; `feasible` wraps it for free variables and
mixed >= / == constraints. Instances here are tiny (a few dozen
constraints, dimension <= ~6), so no effort is spent on efficiency
beyond avoiding cycling.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError
from .kernel import Vec, zero_vec

GE = ">="
EQ = "=="

Constraint = tuple[Vec, Fraction, str]


def solve_eq_nonneg(rows: Sequence[Sequence[Fraction]],
                    rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Find y >= 0 with rows @ y == rhs, or None if infeasible.

    Phase-one simplex minimizing the sum of artificials; Bland's rule
    (lowest entering index, lowest-index basic variable on ratio ties)
    guarantees termination.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return []
    T = [list(map(Fraction, r)) for r in rows]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if len(T[i]) != n:
            raise InputError("ragged constraint matrix")
        if b[i] < 0:
            T[i] = [-x for x in T[i]]
            b[i] = -b[i]
    total = n + m
    for i in range(m):
        T[i].extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
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
            # the artificial sum is bounded below by zero, so this cannot happen
            raise InputError("phase-one simplex unbounded")
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

    if any(basis[i] >= n and b[i] != 0 for i in range(m)):
        return None
    y = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            y[basis[i]] = b[i]
    return y


def feasible(constraints: Sequence[Constraint], dim: Optional[int] = None) -> Optional[Vec]:
    """Exact witness v with <a_i, v> rel c_i for every constraint, or None.

    Relations are ">=" or "==". An empty constraint list is vacuously
    feasible with witness 0 (dim must then be given).
    """
    if not constraints:
        if dim is None:
            raise InputError("empty constraint list needs an explicit dimension")
        return zero_vec(dim)
    d = len(constraints[0][0])
    if dim is not None and dim != d:
        raise InputError(f"dimension mismatch: {dim} vs {d}")
    slacks = []
    for a, _, rel in constraints:
        if len(a) != d:
            raise InputError("constraints do not share one dimension")
        if rel not in (GE, EQ):
            raise InputError(f"unknown relation {rel!r}")
        if rel == GE:
            slacks.append(len(slacks))
        else:
            slacks.append(None)
    nslack = sum(1 for s in slacks if s is not None)
    # v = u - w with u, w >= 0; a.v - s = c for >=, a.v = c for ==
    rows = []
    rhs = []
    for (a, c, rel), s in zip(constraints, slacks):
        row = list(a) + [-x for x in a] + [Fraction(0)] * nslack
        if s is not None:
            row[2 * d + s] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(c))
    y = solve_eq_nonneg(rows, rhs)
    if y is None:
        return None
    return tuple(y[i] - y[d + i] for i in range(d))

