"""Pointwise geometric predicates: conical position, positive-hull
membership, primitivity. The sign pattern of a normal over a basis is read
off the basis inverse where it is needed, in `skeleton.refine_basis`.

Every negative verdict carries a witness so it can be re-checked without
trusting the code path that produced it. A cone question asks whether x
lies in the positive hull of some generators, and `lp` answers it either
way with a proof, the coefficients or a Farkas direction: one
`solve_eq_nonneg` call each. Separation, whether the origin is a convex
combination of some signed points, is posed only in `signed_separators`,
for many sign vectors on one tableau; `separator` is its answer for the
all +1 sign vector. Verdicts about subsets of a normal set are decided
over its circuit table in `classify`; the predicates here re-check each
emitted certificate once, with no LP where the generators are independent:
`is_primitive` by one `kernel.coordinates`, and `is_conical_position` on
n + 1 points of rank n by their one dependence and one `kernel.inverse`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import InputError, InternalInvariantError
from .kernel import Vec, _integers, coordinates, inverse, simplex_dependence
from .lp import _bland, _phase_one, solve_eq_nonneg


def _cone_query(x: Vec, generators: Sequence[Vec]):
    """(mu, None) with mu >= 0 and x == sum(mu_i * g_i), or (None, z) with
    <g, z> <= 0 for every generator and <x, z> > 0."""
    n = _dimension([x, *generators])
    return solve_eq_nonneg([[g[i] for g in generators] for i in range(n)], x)


def _dimension(vectors: Sequence[Vec]) -> int:
    """The common length of the vectors, which is positive, 0 if there are none."""
    n = len(vectors[0]) if vectors else 0
    if any(len(v) != n for v in vectors):
        raise InputError("dimension mismatch in a cone question")
    if vectors and not n:
        raise InputError("a cone question needs vectors of positive length")
    return n


def cone_membership(x: Vec, generators: Sequence[Vec]) -> Optional[tuple[Fraction, ...]]:
    """Nonnegative mu with x == sum(mu_i * g_i), or None if x is outside
    the positive hull of the generators."""
    mu, _ = _cone_query(x, generators)
    return None if mu is None else tuple(mu)


def farkas_direction(x: Vec, generators: Sequence[Vec]) -> Optional[Vec]:
    """d with <g, d> <= 0 for every generator and <x, d> == 1, or None if
    x lies in the positive hull of the generators."""
    _, z = _cone_query(x, generators)
    if z is None:
        return None
    (X, k), (Z, _) = _integers(x), _integers(z)
    s = sum(a * b for a, b in zip(X, Z))  # x = X / k, z = Z / l: z / <x, z> = k Z / s
    return tuple(Fraction(k * c, s) for c in Z)


def separator(points: Sequence[Vec]) -> Optional[Vec]:
    """v with <p, v> >= 1 for every point, or None if some convex
    combination of the points is the origin: `signed_separators` on the
    sign vector that is +1 everywhere."""
    return next(signed_separators(points, [(1 << len(points)) - 1]))[1]


def signed_separators(points: Sequence[Vec], masks: Sequence[int]
                      ) -> Iterator[tuple[int, Optional[Vec]]]:
    """(plus, v) for each of the distinct sign vectors s given by their +1
    masks `plus`, in `product((1, -1))` order: v has <s_j p_j, v> >= 1 for
    every j, or is None if some convex combination of the signed points
    s_j p_j is the origin, that is, if (0, 1) lies in pos{(s_j p_j, 1)}.
    Otherwise a Farkas direction (d, d_n) with d_n > 0 has
    <s_j p_j, d> + d_n <= 0, so v = -d / d_n.

    One tableau holds (p_j, 1) and (-p_j, 1), scaled, as columns 2j and
    2j + 1, and each prefix of the given sign vectors pivots once, by
    Bland's rule on the columns it chose. That rule enters the lowest
    column that prices out, so these are the first pivots of every sign
    vector below it, and each ends on the basis of its own LP."""
    if not points:
        raise InputError("a separator needs a nonempty set of points")
    m, n, chosen = 2 * len(points), _dimension(points), []
    flat, scale = _integers([x for p in points for x in p])
    columns = [[s * x for x in flat[j:j + n]] + [scale]
               for j in range(0, len(flat), n) for s in (1, -1)]

    def search(masks, M, D, basis):
        k = len(chosen)
        if 2 * k < m:
            for c, below in ((2 * k, [p for p in masks if p >> k & 1]),
                             (2 * k + 1, [p for p in masks if not p >> k & 1])):
                if below:
                    chosen.append(c)
                    yield from search(below, *_bland(M, D, basis, chosen))
                    chosen.pop()
        elif any(c >= m and M[i][-1] for i, c in enumerate(basis)):
            # z = Z / D, with <z, column c> <= 0 for each chosen c and z_n > 0
            Z = [D - M[-1][m + i] for i in range(n + 1)]
            if Z[n] <= 0 or any(sum(z * a for z, a in zip(Z, columns[c])) > 0 for c in chosen):
                raise InternalInvariantError("Farkas certificate fails its check")
            yield masks[0], tuple(Fraction(-z, Z[n]) for z in Z[:n])
        else:
            # y_c = v / D on each basic chosen column c with value v
            support = [(c, M[i][-1]) for i, c in enumerate(basis) if c < m and M[i][-1]]
            if any(sum(columns[c][r] * v for c, v in support) != (r == n) * scale * D
                   for r in range(n + 1)):
                raise InternalInvariantError("phase-one solution fails its substitution check")
            yield masks[0], None

    yield from search(masks, *_phase_one([list(r) for r in zip(*columns)], [0] * n + [scale],
                                     [1] * (n + 1), scale, ()))


class ConicalVerdict(NamedTuple):
    in_conical_position: bool
    # witness for a positive verdict: a vector v with <s, v> >= 1 for all s
    separator: Optional[Vec] = None
    # witnesses for a negative verdict
    not_separated: bool = False
    hull_member: Optional[Vec] = None
    hull_coefficients: Optional[tuple[Fraction, ...]] = None

    def __bool__(self) -> bool:
        return self.in_conical_position


def is_conical_position(points: Sequence[Vec]) -> ConicalVerdict:
    """A set is in conical position iff it is strictly separated from the
    origin and no point lies in the positive hull of the others. On n + 1
    points of rank n, with lam their one dependence: they are separated iff
    lam has both signs; p_i lies in pos(others) iff lam_i != 0 and no other
    entry has its sign, as sum(-lam_j / lam_i p_j); and else v = B^-1 1,
    for B all points but the first i with lam_i * sum(lam) < 0 (lam_i != 0
    if the sum is 0), has <p_i, v> = 1 - sum(lam) / lam_i >= 1 too. Any
    other set takes LPs: a separator and a membership per point."""
    if not points:
        raise InputError("is_conical_position needs a nonempty set")
    n = _dimension(points)
    if len(points) != n + 1 or (lam := simplex_dependence(points)) is None:
        if (v := separator(points)) is None:
            return ConicalVerdict(False, not_separated=True)
        for i, p in enumerate(points):
            if (mu := cone_membership(p, points[:i] + points[i + 1:])) is not None:
                return ConicalVerdict(False, hull_member=p, hull_coefficients=mu)
        return ConicalVerdict(True, separator=v)
    flat, scale = _integers([x for p in points for x in p])
    P, (L, _) = [flat[j * n:j * n + n] for j in range(n + 1)], _integers(lam)
    if any(sum(c * p[r] for c, p in zip(L, P)) for r in range(n)):
        raise InternalInvariantError("dependence fails its substitution check")
    if min(L) >= 0 or max(L) <= 0:
        return ConicalVerdict(False, not_separated=True)
    for i, c in enumerate(L):
        if c and all(c * d <= 0 for j, d in enumerate(L) if j != i):
            return ConicalVerdict(False, hull_member=points[i], hull_coefficients=tuple(
                -lam[j] / lam[i] for j in range(n + 1) if j != i))
    i = next(i for i, c in enumerate(L) if c * sum(L) < 0 or c and not sum(L))
    Q, D = inverse(points[:i] + points[i + 1:])
    V = [sum(q[r] for q in Q) for r in range(n)]
    if any(sum(map(mul, p, V)) < scale * D for p in P):
        raise InternalInvariantError("separator fails its check")
    return ConicalVerdict(True, separator=tuple(Fraction(x, D) for x in V))


def captured(subset: Sequence[Vec], normals: Sequence[Vec]) -> Iterator[Vec]:
    """The normals outside the subset that lie in its positive hull, in
    order. Lazy: a caller that stops at the first one runs no further LP."""
    return (m for m in normals
            if m not in subset and cone_membership(m, subset) is not None)


def is_primitive(subset: Sequence[Vec], all_normals: Sequence[Vec]) -> bool:
    """Independent normals whose positive hull contains no other normal: no
    normal's `coordinates` over them are all >= 0."""
    _dimension([*subset, *all_normals])
    found = coordinates(subset, [m for m in all_normals if m not in subset])
    return found is not None and not any(
        mu is not None and all(c >= 0 for c in mu) for mu, _ in found)
