"""The references the construction of `polyillum.illuminate` is compared
against:

- the cone selections: for every choice of one dropped element per
  skeleton part, in product order, the union of the remaining generators;
- the directions by one inverse per cone, the route the construction
  replaced: the row sums of the inverse of the matrix whose rows are a
  selection's generators, the unique v with <g, v> == 1 for each of them;
- the assignment by LP: each vertex takes the first selection whose cone
  contains all its tight normals;
- the build per vertex, the loop the construction replaced: the allowed
  drops by `Fraction` ratios, each vertex's drops the AND over every one of
  its tight normals, and the chosen cone re-checked at every vertex, with
  one `Fraction` per direction entry and one product per scaled entry;
  each direction paired with its cone's generators, and epsilon read off
  every (row, direction) pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, mul

from polyillum.errors import AssignmentError, InternalInvariantError
from polyillum.illuminate import IlluminationSet, _shares, compute_delta, compute_epsilon
from polyillum.kernel import Vec, _integers, dot, format_vector, vscale
from polyillum.polytope import HPolytope
from polyillum.position import cone_membership
from polyillum.skeleton import Skeleton, extract_skeleton
from tests.kernel_reference import inverse
from tests.polytope_reference import tight_normals


def cone_selections(skeleton: Skeleton) -> tuple[tuple[Vec, ...], ...]:
    """Exactly n generators per selection, in deterministic product order."""
    n = sum(len(s) for s in skeleton.part_supports)
    selections = []
    for drop in product(*(range(len(part)) for part in skeleton.parts)):
        gens = tuple(g for part, d in zip(skeleton.parts, drop)
                     for i, g in enumerate(part) if i != d)
        if len(gens) != n:
            raise InternalInvariantError("cone selection is not a full basis")
        selections.append(gens)
    return tuple(selections)


def cone_directions(skeleton: Skeleton) -> tuple[Vec, ...]:
    """One direction per selection, by one inverse each."""
    directions = []
    for gens in cone_selections(skeleton):
        inv = inverse(gens)
        if inv is None:
            raise InternalInvariantError("cone selection is not a full basis")
        v = tuple(sum(row) for row in inv)
        if any(dot(g, v) != 1 for g in gens):
            raise InternalInvariantError("direction does not pair to 1 exactly")
        directions.append(v)
    return tuple(directions)


def lp_assignment(P: HPolytope) -> tuple[int, ...]:
    selections = cone_selections(extract_skeleton(P.normal_set))
    return tuple(next(j for j, gens in enumerate(selections)
                      if all(cone_membership(m, gens) is not None
                             for m in tight_normals(P, v.point)))
                 for v in P.vertices)


def fraction_allowed_drops(expansions, dependences) -> list[tuple[int, ...]]:
    """Per normal and per part, the bitmask of the drops d that minimise
    the ratio a_x / c_x over the part, compared as `Fraction`s."""
    def drops(a, c):
        ratios = [Fraction(a_x, c_x) for a_x, c_x in zip(a, c)]
        low = min(ratios)
        return sum(1 << d for d, r in enumerate(ratios) if r == low)
    return [tuple(map(drops, per_normal, dependences)) for per_normal in expansions]


def per_vertex_build(P: HPolytope) -> IlluminationSet:
    """The illumination set with every containment decided and re-checked
    per (vertex, tight normal, part)."""
    skeleton = extract_skeleton(P.normal_set)
    columns, D = skeleton.columns, skeleton.denominator
    expansions = [[[A[i] for i in support] + [0] for support in skeleton.part_supports]
                  for A in ([sum(map(mul, a, col)) for col in columns] for a, _, _ in P.rows)]
    normals = P.normal_set.normals
    apexes = [normals.index(part[-1]) for part in skeleton.parts]
    dependences = [[-a for a in expansions[x][l][:-1]] + [P.rows[x][2] * D]
                   for l, x in enumerate(apexes)]
    shares, K = _shares(skeleton.part_supports, columns, dependences)
    generators = [[_integers(g) for g in part] for part in skeleton.parts]
    directions = []
    for drop in product(*(range(len(part)) for part in skeleton.parts)):
        V = [sum(x) for x in zip(*(share[d] for share, d in zip(shares, drop)))]
        if any(e != d and sum(map(mul, G, V)) != k * D * K
               for part, d in zip(generators, drop) for e, (G, k) in enumerate(part)):
            raise InternalInvariantError("direction does not pair to 1 exactly")
        directions.append(tuple(Fraction(x, D * K) for x in V))
    if len(directions) > 2 ** P.dim:
        raise InternalInvariantError("more cones than 2^n")
    delta = compute_delta(P)
    epsilon = compute_epsilon(P, directions, delta)
    allowed = fraction_allowed_drops(expansions, dependences)
    assignment = []
    for vert in P.vertices:
        tight = [i for i in range(len(P.rows)) if vert.mask >> i & 1]
        j, chosen = 0, []
        for l, c in enumerate(dependences):
            drops = reduce(and_, (allowed[i][l] for i in tight), (1 << len(c)) - 1)
            if not drops:
                raise AssignmentError(f"no cone contains the tight normals of vertex "
                                      f"{format_vector(vert.point)}; the covering claim fails")
            chosen.append((drops & -drops).bit_length() - 1)
            j = j * len(c) + chosen[-1]
        for i in tight:
            if any(a_x * c[d] - a[d] * c_x < 0
                   for a, c, d in zip(expansions[i], dependences, chosen)
                   for a_x, c_x in zip(a, c)):
                raise InternalInvariantError(
                    f"assigned cone does not contain the tight normal {format_vector(normals[i])}"
                    f" of vertex {format_vector(vert.point)}")
        assignment.append(j)
    return IlluminationSet(directions=tuple(directions), epsilon=epsilon, delta=delta,
                           scaled=tuple(vscale(epsilon, v) for v in directions),
                           assignment=tuple(assignment))
