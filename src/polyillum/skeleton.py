"""Skeleton extraction for strongly monotypic normal sets.

A set that is not strongly monotypic is rejected first, with the
conical-position certificate of the cached exhaustive check. Otherwise a
swap-stable basis B is grown inside the normal set until every other normal
expands over B with all-nonpositive or all-nonnegative coefficients. Each
pass inverts B once, as ints Q_i / D for the columns of B^-1, and reads
every other normal's coefficient signs off the integer dot products
<X, Q_i>, X the normal scaled to ints; the skeleton is read off the pass
over the final basis, and keeps that inverse for the illumination build.
The all-nonpositive normals' supports, bitmasks over the basis indices,
form a laminar family; the inclusion-maximal supports partition the basis
indices and each yields one part X_l = {b_i : i in S_l} + {x_l}, a simplex
with the origin in its relative interior, its apex x_l the first normal
with support S_l. No LP here, and normals are known by their indices; the
basis and the parts are listed as vectors only for output.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import mul, or_
from typing import NamedTuple

from .classify import check_strong_monotypy
from .errors import InternalInvariantError, NotStronglyMonotypicError
from .kernel import Vec, _integers, inverse, rank, simplex_dependence
from .polytope import NormalSet


class Skeleton(NamedTuple):
    basis: tuple[Vec, ...]
    parts: tuple[tuple[Vec, ...], ...]
    part_supports: tuple[tuple[int, ...], ...]
    # per part, the indices into the normals of its vectors, the apex last
    part_indices: tuple[tuple[int, ...], ...]
    # column i of the basis inverse is columns[i] / denominator, as ints
    columns: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def product_of_part_sizes(self) -> int:
        return reduce(mul, map(len, self.parts), 1)


def refine_basis(N: NormalSet) -> tuple[tuple[int, ...], tuple, tuple]:
    """The indices into `N.normals` of a swap-stable basis B within N, its
    inverse (Q, D) as `kernel.inverse` gives it, and the (index, signs)
    pair of every other normal, in order: signs[i] is <X, Q_i>, a positive
    multiple of the normal's i-th coefficient over B, and they are all
    nonpositive or all nonnegative.

    A mixed pattern (two positive signs and a negative one) puts {x} + B in
    conical position, so a set that is not strongly monotypic is rejected
    first. Starting from the lexicographically first independent n-subset,
    `N.basis`, each pass inverts B once; the first normal with a single
    positive sign among negative ones replaces the basis element of that
    sign, which strictly enlarges pos(B), so the pass's count of normals
    with no negative sign (those in pos(B)) grows with every swap.
    """
    strong, cert = check_strong_monotypy(N)
    if not strong:
        raise NotStronglyMonotypicError(
            "skeleton extraction requires strong monotypy", cert)
    basis = list(N.basis)
    scaled = [_integers(x)[0] for x in N.normals]
    count = -1
    for _ in range(len(N.normals) + 1):
        if (inv := inverse([N.normals[j] for j in basis])) is None:
            raise InternalInvariantError("skeleton basis is singular")
        signs = tuple((j, tuple(sum(map(mul, X, q)) for q in inv[0]))
                      for j, X in enumerate(scaled) if j not in basis)
        straddling = [(j, [i for i, c in enumerate(a) if c > 0])
                      for j, a in signs if min(a) < 0 < max(a)]
        if any(len(positive) > 1 for _, positive in straddling):
            raise InternalInvariantError("strongly monotypic set gave a mixed sign pattern")
        now = sum(min(a) >= 0 for _, a in signs)
        if now <= count:
            raise InternalInvariantError("swap failed to enlarge the captured normal count")
        count = now
        if not straddling:
            return tuple(basis), inv, signs
        j, (i,) = straddling[0]
        basis[i] = j
    raise InternalInvariantError("basis refinement did not terminate")


def extract_skeleton(N: NormalSet) -> Skeleton:
    """The skeleton of a strongly monotypic normal set. A swap-stable basis
    with laminar supports is necessary for strong monotypy but not
    sufficient, so `refine_basis` runs the exhaustive check first."""
    basis, (columns, D), signs = refine_basis(N)
    negatives = [(j, sum(1 << i for i, c in enumerate(a) if c)) for j, a in signs if max(a) <= 0]
    for (_, s), (_, t) in combinations(negatives, 2):
        if s & t not in (0, s, t):
            raise InternalInvariantError(
                "strongly monotypic set has overlapping non-nested supports")
    # one pass keeps each inclusion-maximal support with its first normal
    maximal: list[tuple[int, int]] = []
    for j, s in negatives:
        if all(s & t != s for t, _ in maximal):  # s lies in no kept support
            maximal = [(t, k) for t, k in maximal if t & s != t] + [(s, j)]
    maximal.sort(key=lambda p: p[0] & -p[0])
    union = reduce(or_, (s for s, _ in maximal), 0)
    if sum(s for s, _ in maximal) != union:
        raise InternalInvariantError("maximal supports are not disjoint")
    if union != (1 << N.dim) - 1:
        # an uncovered index i would make b_i* >= 0 on every normal, so the
        # normals would not positively span
        raise InternalInvariantError("maximal supports do not cover the basis")
    part_supports = [tuple(i for i in range(N.dim) if s >> i & 1) for s, _ in maximal]
    indices = [tuple(basis[i] for i in key) + (j,) for key, (_, j) in zip(part_supports, maximal)]
    skeleton = Skeleton(tuple(N.normals[j] for j in basis),
                        tuple(tuple(N.normals[j] for j in part) for part in indices),
                        tuple(part_supports), tuple(indices), columns, D)
    verify_skeleton(N, skeleton)
    return skeleton


def verify_skeleton(N: NormalSet, skeleton: Skeleton) -> None:
    """Independent recheck of the structural claims: the parts are
    pairwise disjoint sets of normals of N, told apart by their indices,
    each part is a simplex with the origin in its relative interior, the
    part spans are independent, and they sum to the whole space."""
    n, m = N.dim, len(N.normals)
    if len(skeleton.part_indices) != len(skeleton.parts):
        raise InternalInvariantError("part elements are not distinct normals of the set")
    seen = 0  # bitmask of the normals' indices in N, so no vector is hashed
    for part, indices, support in zip(skeleton.parts, skeleton.part_indices,
                                      skeleton.part_supports):
        if len(part) != len(support) + 1:
            raise InternalInvariantError("part size does not match its support")
        mask = sum(1 << i for i in set(indices) if 0 <= i < m)
        if mask.bit_count() != len(indices) or tuple(N.normals[i] for i in indices) != part:
            raise InternalInvariantError("part elements are not distinct normals of the set")
        if seen & mask:
            raise InternalInvariantError("parts are not pairwise disjoint")
        seen |= mask
        dep = simplex_dependence(part)
        if dep is None:
            raise InternalInvariantError("part is not a simplex with a unique dependence")
        if any(c == 0 for c in dep):
            raise InternalInvariantError("part dependence has a zero coefficient")
        if not (all(c > 0 for c in dep) or all(c < 0 for c in dep)):
            raise InternalInvariantError(
                "origin is not in the relative interior of a part's convex hull")
    total_rank = rank([v for part in skeleton.parts for v in part])
    if total_rank != sum(len(s) for s in skeleton.part_supports) or total_rank != n:
        raise InternalInvariantError("part spans do not directly sum to the space")
    if skeleton.product_of_part_sizes > 2 ** n:
        raise InternalInvariantError("part size product exceeds 2^n")
