"""Construction of the illumination set from a skeleton, with exact delta
and epsilon, plus the two independent verification checks.

One cone per choice of a dropped element from each skeleton part; its
direction is the unique vector pairing to 1 with every generator. Each
vertex is assigned the first cone, in product order, that contains all
its tight normals. Containment splits over the parts, so the cone is
read part by part off the normals' expansions over the skeleton basis,
with no LP. One inverse per cone gives its direction, as the row sums,
and re-checks every containment, as integer products with its columns. The
slack bound delta is half the minimum positive vertex-facet slack, and
epsilon = delta / max |<n, v_j>| over the strictly negative products, so
that stepping by epsilon*v never crosses a non-tight facet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .errors import AssignmentError, InputError, InternalInvariantError
from .kernel import Vec, _integers, dot, format_vector, inverse, solve_linear, vscale
from .polytope import HPolytope, _slacks
from .skeleton import Skeleton, extract_skeleton


@dataclass(frozen=True)
class IlluminationSet:
    directions: tuple[Vec, ...]
    epsilon: Fraction
    scaled: tuple[Vec, ...]
    assignment: tuple[int, ...]  # per vertex, aligned with P.vertices
    delta: Fraction


@dataclass(frozen=True)
class VertexReport:
    point: Vec
    direction_index: Optional[int]
    directional_ok: bool
    interior_ok: bool

    @property
    def ok(self) -> bool:
        return self.directional_ok and self.interior_ok


def cone_selections(skeleton: Skeleton) -> tuple[tuple[Vec, ...], ...]:
    """For every choice of one dropped element per part, the union of the
    remaining generators: exactly n vectors each, independent, listed in
    deterministic product order. `build_illumination_set` checks their
    independence as it inverts them."""
    n = sum(len(s) for s in skeleton.part_supports)
    selections = []
    for drop in product(*(range(len(part)) for part in skeleton.parts)):
        gens = tuple(g for part, d in zip(skeleton.parts, drop)
                     for i, g in enumerate(part) if i != d)
        if len(gens) != n:
            raise InternalInvariantError("cone selection is not a full basis")
        selections.append(gens)
    return tuple(selections)


def compute_delta(P: HPolytope) -> Fraction:
    """Half the minimum positive vertex-facet slack; small enough that the
    slack-delta tight set at every vertex equals the exact tight set.

    Both are read off one table of slacks, a row per vertex, as ints over
    one denominator K: no slack may be negative, and the normals with
    slack at most delta must be exactly the vertex's tight normals."""
    points = [_integers(v.point) for v in P.vertices]
    K = lcm(*(c for _, _, c in P.rows)) * lcm(*(k for _, k in points))
    table = [[s * (K // (c * k)) for s, (_, _, c) in zip(_slacks(P.rows, X, k), P.rows)]
             for X, k in points]
    least = min((s for row in table for s in row if s > 0), default=0)
    if not least:
        raise InternalInvariantError("no positive vertex-facet slack")
    delta = Fraction(least, 2 * K)
    for v, row in zip(P.vertices, table):
        if min(row) < 0 or v.mask != sum(1 << i for i, s in enumerate(row) if 2 * s <= least):
            raise InternalInvariantError(
                f"slack {delta} does not isolate the tight set at "
                f"{format_vector(v.point)}")
    return delta


def compute_epsilon(P: HPolytope, directions: Sequence[Vec],
                    delta: Fraction) -> Fraction:
    """delta divided by the largest |<n, v_j>| over strictly negative
    products; delta itself in the (degenerate) absence of any."""
    if delta <= 0:
        raise InputError("delta must be positive")
    scaled = [_integers(v, P.dim) for v in directions]
    # <m, v> == <a, V> / (c k) for row (a, b, c) and v = V / k
    K = lcm(*(c for _, _, c in P.rows)) * lcm(*(k for _, k in scaled))
    top = Fraction(max((-sum(map(mul, a, V)) * (K // (c * k))
                        for V, k in scaled for a, _, c in P.rows), default=0), K)
    epsilon = delta / top if top > 0 else delta
    if epsilon <= 0 or (top > 0 and epsilon * top > delta):
        raise InternalInvariantError("epsilon bound failed its own check")
    return epsilon


def _allowed_drops(skeleton: Skeleton,
                   normals: Sequence[Vec]) -> list[tuple[frozenset[int], ...]]:
    """Per normal, by its index, and per part, the drops d (indices into
    the part) whose cones contain the normal, whatever is dropped from the
    other parts.

    Part l carries the positive dependence sum(c_x x) == 0 over its
    elements, with c == 1 at x_l and c == -(coefficient of x_l) at each of
    its basis elements. A normal m is the sum of its components a over the
    parts (a_{x_l} == 0); within part l it equals sum((a_x - t c_x) x) for
    every t, and the cone that drops d takes t == a_d / c_d. All those
    coefficients are nonnegative iff d minimises a_x / c_x over the part.
    """
    dependences = [solve_linear(skeleton.basis, part[-1]) for part in skeleton.parts]
    allowed = []
    for m in normals:
        a = solve_linear(skeleton.basis, m)
        per_part = []
        for c, support in zip(dependences, skeleton.part_supports):
            ratios = [a[i] / -c[i] for i in support] + [Fraction(0)]
            low = min(ratios)
            per_part.append(frozenset(d for d, r in enumerate(ratios) if r == low))
        allowed.append(tuple(per_part))
    return allowed


def build_illumination_set(P: HPolytope) -> IlluminationSet:
    """The illumination set of P, one direction per cone selection, each
    vertex assigned the first cone that contains its tight normals.

    With G the matrix whose rows are a selection's generators, the
    direction v solves G v == 1, so it is the row sums of G^-1, and a
    normal m is sum(lam_j g_j) with lam_j = <m, column j of G^-1>; the
    signs of lam are read off the integer row of m against the columns
    scaled to ints."""
    skeleton = extract_skeleton(P.normal_set)
    selections = cone_selections(skeleton)
    directions, columns = [], []
    for gens in selections:
        inv = inverse(gens)
        if inv is None:
            raise InternalInvariantError("cone selection is not a full basis")
        v = tuple(sum(row) for row in inv)
        if any(dot(g, v) != 1 for g in gens):
            raise InternalInvariantError("direction does not pair to 1 exactly")
        directions.append(v)
        columns.append([_integers(col)[0] for col in zip(*inv)])
    directions = tuple(directions)
    if len(directions) > 2 ** P.dim:
        raise InternalInvariantError("more cones than 2^n")
    delta = compute_delta(P)
    epsilon = compute_epsilon(P, directions, delta)
    allowed = _allowed_drops(skeleton, P.normal_set.normals)
    assignment = []
    for vert in P.vertices:
        tight = [i for i in range(len(P.rows)) if vert.mask >> i & 1]
        j = 0
        for k, part in enumerate(skeleton.parts):
            drops = set(range(len(part)))
            for i in tight:
                drops &= allowed[i][k]
            if not drops:
                raise AssignmentError(
                    f"no cone contains the tight normals of vertex "
                    f"{format_vector(vert.point)}; "
                    f"the covering claim fails")
            j = j * len(part) + min(drops)
        for i in tight:
            a = P.rows[i][0]
            if any(sum(map(mul, a, col)) < 0 for col in columns[j]):
                raise InternalInvariantError(
                    f"assigned cone does not contain the tight normal "
                    f"{format_vector(P.normal_set.normals[i])} of vertex "
                    f"{format_vector(vert.point)}")
        assignment.append(j)
    return IlluminationSet(
        directions=directions,
        epsilon=epsilon,
        scaled=tuple(vscale(epsilon, v) for v in directions),
        assignment=tuple(assignment),
        delta=delta,
    )


def _verify_with_assignment(P: HPolytope, directions: Sequence[Vec],
                            epsilon: Fraction,
                            assignment: Sequence[Optional[int]]):
    scaled = [_integers(v, P.dim) for v in directions]
    steps = [([epsilon.numerator * x for x in V], epsilon.denominator * l) for V, l in scaled]
    reports = []
    for vert, j in zip(P.vertices, assignment):
        if j is None:
            reports.append(VertexReport(vert.point, None, False, False))
            continue
        (V, _), (W, l), (X, k) = scaled[j], steps[j], _integers(vert.point)
        directional = all(sum(map(mul, a, V)) > 0
                          for i, (a, _, _) in enumerate(P.rows) if vert.mask >> i & 1)
        # x == X / k and epsilon v == W / l, so x - epsilon v == (l X - k W) / (k l)
        interior = min(_slacks(P.rows, [l * x - k * w for x, w in zip(X, W)], k * l)) > 0
        reports.append(VertexReport(vert.point, j, directional, interior))
    return all(r.ok for r in reports), tuple(reports)


def verify_illumination(P: HPolytope, ill: IlluminationSet):
    """Two independent checks, both required: the assigned direction has
    strictly positive product with every tight normal of its vertex, and
    the explicitly displaced vertex lands strictly inside P. Tight sets of
    all boundary points are contained in vertex tight sets, so passing at
    the vertices covers the whole boundary."""
    if len(ill.assignment) != len(P.vertices):
        raise InputError("assignment length does not match the vertex count")
    return _verify_with_assignment(P, ill.directions, ill.epsilon, ill.assignment)


def verify_directions(P: HPolytope, directions: Sequence[Vec],
                      epsilon: Fraction):
    """Assignment-free variant for externally supplied direction sets: each
    vertex takes the first direction illuminating it, if any."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    # bit i of positive[j]: normal i pairs positively with direction j
    positive = [sum(1 << i for i, (a, _, _) in enumerate(P.rows) if sum(map(mul, a, V)) > 0)
                for V, _ in (_integers(v, P.dim) for v in directions)]
    assignment = [next((j for j, p in enumerate(positive) if v.mask & p == v.mask), None)
                  for v in P.vertices]
    return _verify_with_assignment(P, directions, epsilon, assignment)
