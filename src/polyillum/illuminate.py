"""Construction of the illumination set from a skeleton, with exact delta
and epsilon, plus the two independent verification checks.

One cone per choice of a dropped element from each skeleton part; its
direction is the unique vector pairing to 1 with every generator. The
parts span a direct sum, so each direction is a sum of one share per
part, and the inverse of the skeleton basis that the skeleton's last pass
made gives all the shares and the normals' expansions over the basis,
with no row reduction here. Whether a cone contains a normal depends only
on the normal, the part and the element it drops, not on the vertex: each
normal allows a bitmask of drops per part, found by comparing ratios as
cross-multiplied ints, and every allowed drop is re-checked coefficient
by coefficient once per build. Each vertex is then assigned the first
cone, in product order, that contains all its tight normals, reading per
part only the normals that do not allow every drop, with no LP. The
directions stay ints over one denominator until they are returned, with
one `Fraction` per distinct entry. The slack bound delta is half the
minimum positive vertex-facet slack, and epsilon = delta / max |<n, v_j>|
over the strictly negative products, so that stepping by epsilon*v never
crosses a non-tight facet.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import AssignmentError, InputError, InternalInvariantError
from .kernel import Vec, _integers, format_vector
from .polytope import HPolytope, _slacks
from .skeleton import extract_skeleton


class IlluminationSet(NamedTuple):
    directions: tuple[Vec, ...]
    epsilon: Fraction
    scaled: tuple[Vec, ...]
    assignment: tuple[int, ...]  # per vertex, aligned with P.vertices
    delta: Fraction


class VertexReport(NamedTuple):
    point: Vec
    direction_index: Optional[int]
    directional_ok: bool
    interior_ok: bool

    @property
    def ok(self) -> bool:
        return self.directional_ok and self.interior_ok


def compute_delta(P: HPolytope) -> Fraction:
    """Half the minimum positive vertex-facet slack; small enough that the
    slack-delta tight set at every vertex equals the exact tight set.

    Both are read off one table of slacks, a row per vertex, as ints over
    one denominator K L, L the rows' scale: no slack may be negative, and
    the normals with slack at most delta must be exactly the vertex's
    tight normals."""
    L = P.scale
    K = lcm(*(c for _, _, c in P.rows)) * lcm(*(k for _, k in P.vertex_table))
    table = [[s * (K // (c * k))
              for s, (_, _, c) in zip(_slacks(P.rows, [L * x for x in X], k), P.rows)]
             for X, k in P.vertex_table]
    least = min((s for row in table for s in row if s > 0), default=0)
    if not least:
        raise InternalInvariantError("no positive vertex-facet slack")
    delta = Fraction(least, 2 * K * L)
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
    scaled = [_integers(v, P.dim) for v in directions]
    # <m, v> == <a, V> / (c k) for row (a, b, c) and v = V / k
    K = lcm(*(c for _, _, c in P.rows)) * lcm(*(k for _, k in scaled))
    top = max((-sum(map(mul, a, V)) * (K // (c * k)) for V, k in scaled for a, _, c in P.rows),
              default=0)
    return _epsilon(delta, Fraction(top, K))


def _epsilon(delta: Fraction, top: Fraction) -> Fraction:
    """delta / top, top the largest -<n, v_j>, or delta if top <= 0."""
    if delta <= 0:
        raise InputError("delta must be positive")
    epsilon = delta / top if top > 0 else delta
    if epsilon <= 0 or (top > 0 and epsilon * top > delta):
        raise InternalInvariantError("epsilon bound failed its own check")
    return epsilon


def _shares(supports: Sequence[Sequence[int]], columns: Sequence[Sequence[int]],
            dependences: Sequence[Sequence[int]]) -> tuple[list[list[list[int]]], int]:
    """Per part and per drop d, the part's share of the direction of every
    cone that drops d, as ints over D K, K the lcm of the dependences. The
    direction pairs to 1 with the kept elements, so, by the dependence, to
    1 - sum(c) / c_d with the dropped one; it is sum(<b_i, v> Q_i) / D, and
    the share is (sum(Q_i) - sum(c) / c_d Q_d) / D, Q_d == 0 at x_l."""
    K = lcm(*(c for dependence in dependences for c in dependence))
    shares = []
    for support, c in zip(supports, dependences):
        whole = [K * sum(x) for x in zip(*(columns[i] for i in support))]
        shares.append([[w - K // c_d * sum(c) * q for w, q in zip(whole, columns[i])]
                       for i, c_d in zip(support, c)] + [whole])
    return shares, K


def _allowed_drops(expansions: Sequence[Sequence[Sequence[int]]],
                   dependences: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Per normal, by its index, and per part, the bitmask of the drops d
    (indices into the part) whose cones contain the normal, whatever is
    dropped from the other parts. Within the part the normal is
    sum(a_x x), a == 0 at x_l, so it is sum((a_x - t c_x) x) for every t,
    and the cone that drops d takes t == a_d / c_d: all those coefficients
    are nonnegative iff d minimises a_x / c_x over the part. With every c_x
    positive, a_x / c_x < a_y / c_y iff a_x c_y < a_y c_x, on ints."""
    if any(c_x <= 0 for c in dependences for c_x in c):
        raise InternalInvariantError("a part dependence has a nonpositive coefficient")

    def drops(a, c):
        low = 0
        for d in range(1, len(c)):
            if a[d] * c[low] < a[low] * c[d]:
                low = d
        return sum(1 << d for d in range(len(c)) if a[d] * c[low] == a[low] * c[d])
    return [tuple(map(drops, per_normal, dependences)) for per_normal in expansions]


def _contains(a: Sequence[int], c: Sequence[int], d: int) -> bool:
    """Whether the cone that drops d from a part of dependence c contains
    a normal of coefficients a over the part: each of its coefficients
    a_x - a_d c_x / c_d over the cone's generators is nonnegative."""
    return all(a_x * c[d] - a[d] * c_x >= 0 for a_x, c_x in zip(a, c))


def build_illumination_set(P: HPolytope) -> IlluminationSet:
    """The illumination set of P, one direction per cone, each vertex
    assigned the first cone, in product order, that contains its tight
    normals. The skeleton's inverse of its basis B gives all of it as ints
    over one denominator D, column i of B^-1 being Q_i / D: row (a, _, c)
    has the coefficients <a, Q_i> over B, c D times those of its normal,
    so x_l's part has the positive dependence c D x_l - sum(<a, Q_i> b_i)
    == 0, with (a, _, c) the row of x_l."""
    skeleton = extract_skeleton(P.normal_set)
    columns, D = skeleton.columns, skeleton.denominator
    # per row and per part: its coefficients over the part's elements
    expansions = [[[A[i] for i in support] + [0] for support in skeleton.part_supports]
                  for A in ([sum(map(mul, a, col)) for col in columns] for a, _, _ in P.rows)]
    dependences = [[-a for a in expansions[part[-1]][l][:-1]] + [P.rows[part[-1]][2] * D]
                   for l, part in enumerate(skeleton.part_indices)]
    shares, K = _shares(skeleton.part_supports, columns, dependences)
    # v == V / (D K) sums one share per part, so g == G / k pairs to 1 with every v
    # whose cone keeps g iff <G, S> is k D K at its part's other drops, 0 at other parts
    for l, part in enumerate(skeleton.part_indices):
        for e, (G, _, k) in enumerate(P.rows[i] for i in part):
            if any(sum(map(mul, G, S)) != (k * D * K if m == l else 0)
                   for m, share in enumerate(shares)
                   for d, S in enumerate(share) if m != l or d != e):
                raise InternalInvariantError("direction does not pair to 1 exactly")
    integral = [[sum(x) for x in zip(*(share[d] for share, d in zip(shares, drop)))]
                for drop in product(*(range(len(part)) for part in skeleton.parts))]
    if len(integral) > 2 ** P.dim:
        raise InternalInvariantError("more cones than 2^n")
    delta = compute_delta(P)
    # -<a, V> is largest at the largest -<a, S> per part; <m, v> == <a, V> / (c D K)
    L = lcm(*(c for _, _, c in P.rows))
    epsilon = _epsilon(delta, Fraction(max(
        sum(max(-sum(map(mul, a, S)) for S in share) for share in shares) * (L // c)
        for a, _, c in P.rows), L * D * K))
    # re-checked without the producer, once per allowed drop of each normal; only
    # a normal that does not allow every drop of a part narrows a vertex's choice
    constraining = [[] for _ in dependences]
    for i, per_normal in enumerate(_allowed_drops(expansions, dependences)):
        for l, (drops, a, c) in enumerate(zip(per_normal, expansions[i], dependences)):
            for d in range(len(c)):
                if drops >> d & 1 and not _contains(a, c, d):
                    raise InternalInvariantError(
                        f"the cone that drops element {d} of part {l} does not contain "
                        f"the normal {format_vector(P.normal_set.normals[i])}")
            if drops != (1 << len(c)) - 1:
                constraining[l].append((1 << i, drops))
    assignment = []
    for vert in P.vertices:
        j = 0
        for pairs, c in zip(constraining, dependences):
            drops = (1 << len(c)) - 1
            for bit, mask in pairs:
                if vert.mask & bit:
                    drops &= mask
            if not drops:
                raise AssignmentError(f"no cone contains the tight normals of vertex "
                                      f"{format_vector(vert.point)}; the covering claim fails")
            j = j * len(c) + (drops & -drops).bit_length() - 1
        assignment.append(j)
    # one Fraction per distinct entry of the directions, and of their steps
    values = {x for V in integral for x in V}
    e, f = epsilon.numerator, epsilon.denominator * D * K
    fractions = {x: Fraction(x, D * K) for x in values}
    steps = {x: Fraction(e * x, f) for x in values}
    return IlluminationSet(
        directions=tuple(tuple(map(fractions.__getitem__, V)) for V in integral),
        scaled=tuple(tuple(map(steps.__getitem__, V)) for V in integral),
        epsilon=epsilon, delta=delta, assignment=tuple(assignment))


def _checks(P: HPolytope, directions: Sequence[Vec], epsilon: Fraction):
    """Both checks of each direction v_j, scaled to ints once: the bitmask
    of the normals pairing positively with it, and inside(X, k, j), whether
    x - epsilon v_j is strictly inside P, x == X / k from the vertex table."""
    scaled = [_integers(v, P.dim) for v in directions]
    positive = [sum(1 << i for i, (a, _, _) in enumerate(P.rows) if sum(map(mul, a, V)) > 0)
                for V, _ in scaled]
    steps = [([epsilon.numerator * x for x in V], epsilon.denominator * l) for V, l in scaled]
    L = P.scale

    def inside(X: Sequence[int], k: int, j: int) -> bool:
        # epsilon v == W / l, so L (x - epsilon v) == L (l X - k W) / (k l)
        W, l = steps[j]
        return min(_slacks(P.rows, [L * (l * x - k * w) for x, w in zip(X, W)], k * l)) > 0
    return positive, inside


def verify_illumination(P: HPolytope, ill: IlluminationSet):
    """Two independent checks, both required: the assigned direction has
    strictly positive product with every tight normal of its vertex, and
    the explicitly displaced vertex lands strictly inside P. Tight sets of
    all boundary points are contained in vertex tight sets, so passing at
    the vertices covers the whole boundary."""
    if len(ill.assignment) != len(P.vertices):
        raise InputError("assignment length does not match the vertex count")
    positive, inside = _checks(P, ill.directions, ill.epsilon)
    reports = tuple(VertexReport(v.point, j, v.mask & positive[j] == v.mask, inside(X, k, j))
                    for v, (X, k), j in zip(P.vertices, P.vertex_table, ill.assignment))
    return all(r.ok for r in reports), reports


def verify_directions(P: HPolytope, directions: Sequence[Vec],
                      epsilon: Fraction):
    """Assignment-free variant for externally supplied direction sets: each
    vertex takes the first direction passing both checks, else the first
    passing the directional one, else none, so the verdict does not depend
    on the order of the directions."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    positive, inside = _checks(P, directions, epsilon)
    reports = []
    for v, (X, k) in zip(P.vertices, P.vertex_table):
        lit = (j for j, p in enumerate(positive) if v.mask & p == v.mask)
        first = next(lit, None)
        j = first if first is None or inside(X, k, first) else next(
            (j for j in lit if inside(X, k, j)), None)
        reports.append(VertexReport(v.point, first if j is None else j, first is not None,
                                    j is not None))
    return all(r.ok for r in reports), tuple(reports)
