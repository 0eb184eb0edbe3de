"""Skeleton extraction for strongly monotypic normal sets.

A swap-stable basis B is grown inside the normal set until every other
normal expands over B with all-nonpositive or all-nonnegative
coefficients. The all-nonpositive normals' supports form a laminar
family; the inclusion-maximal supports partition the basis indices and
each yields one part X_l = {b_i : i in S_l} + {x_l}, a simplex with the
origin in its relative interior. A set that is not strongly monotypic
is rejected by the exhaustive check with its conical-position
certificate, reported as NotStronglyMonotypic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .classify import check_strong_monotypy, validate_normal_set
from .errors import CoverageError, InternalInvariantError, NotStronglyMonotypicError
from .kernel import Vec, rank, simplex_dependence
from .polytope import NormalSet
from .position import (ALL_NONNEGATIVE, ALL_NONPOSITIVE, MIXED, SINGLE_POSITIVE,
                       classify_signs, is_conical_position)


@dataclass(frozen=True)
class Skeleton:
    basis: tuple[Vec, ...]
    parts: tuple[tuple[Vec, ...], ...]
    part_supports: tuple[tuple[int, ...], ...]

    @property
    def product_of_part_sizes(self) -> int:
        q = 1
        for part in self.parts:
            q *= len(part)
        return q


def _first_independent_subset(N: NormalSet) -> tuple[Vec, ...]:
    for subset in combinations(N.normals, N.dim):
        if rank(subset) == N.dim:
            return subset
    raise InternalInvariantError("validated normal set has no independent subset")


def _captured_count(basis: Sequence[Vec], normals: Sequence[Vec]) -> int:
    """The number of normals outside an independent basis that lie in its
    positive hull: those whose expansion over it is all nonnegative."""
    return sum(1 for x in normals
               if x not in basis and classify_signs(basis, x).tag == ALL_NONNEGATIVE)


def refine_basis(N: NormalSet, start: Optional[Sequence[Vec]] = None) -> tuple[Vec, ...]:
    """Swap-stable basis B within N: every other normal classifies as
    all_nonpositive or all_nonnegative over B.

    Starting from the lexicographically first independent n-subset (or the
    given start), the first normal with a single_positive pattern replaces
    the positively-weighted basis element, which strictly enlarges pos(B);
    a mixed pattern is a conical-position certificate and aborts.
    """
    validate_normal_set(N)
    basis = list(start) if start is not None else list(_first_independent_subset(N))
    if rank(basis) != N.dim:
        raise InternalInvariantError("starting basis is not independent")
    count = _captured_count(basis, N.normals)
    swaps = 0
    while True:
        for x in N.normals:
            if x in basis:
                continue
            sc = classify_signs(basis, x)
            if sc.tag == MIXED:
                cert = tuple(sorted([x] + basis, reverse=True))
                if not is_conical_position(cert):
                    raise InternalInvariantError(
                        "mixed sign pattern did not yield a conical certificate")
                raise NotStronglyMonotypicError(
                    "mixed sign pattern during basis refinement", cert)
            if sc.tag == SINGLE_POSITIVE:
                basis[sc.positive_index] = x
                swaps += 1
                if swaps > len(N.normals):
                    raise InternalInvariantError("basis refinement did not terminate")
                now = _captured_count(basis, N.normals)
                if now <= count:
                    raise InternalInvariantError(
                        "swap failed to enlarge the captured normal count")
                count = now
                break
        else:
            return tuple(basis)


def cartesian_support(basis: Sequence[Vec], x: Vec) -> tuple[int, ...]:
    """Indices of the nonzero coefficients of x over the basis."""
    sc = classify_signs(basis, x)
    return tuple(i for i, c in enumerate(sc.coefficients) if c != 0)


def extract_skeleton(N: NormalSet) -> Skeleton:
    """The skeleton of a strongly monotypic normal set.

    A swap-stable basis with laminar supports is necessary for strong
    monotypy but not sufficient, so the exhaustive check runs first and
    its conical certificate rejects every other set.
    """
    strong, cert = check_strong_monotypy(N)
    if not strong:
        raise NotStronglyMonotypicError(
            "skeleton extraction requires strong monotypy", cert)
    basis = refine_basis(N)
    negatives: list[tuple[Vec, tuple[int, ...]]] = []
    for x in N.normals:
        if x in basis:
            continue
        sc = classify_signs(basis, x)
        if sc.tag not in (ALL_NONPOSITIVE, ALL_NONNEGATIVE):
            raise InternalInvariantError("stable basis produced a mixed pattern")
        if sc.tag == ALL_NONPOSITIVE:
            negatives.append((x, tuple(i for i, c in enumerate(sc.coefficients)
                                       if c != 0)))

    for (_, sx), (_, sy) in combinations(negatives, 2):
        fx, fy = set(sx), set(sy)
        if fx & fy and not (fx <= fy or fy <= fx):
            raise InternalInvariantError(
                "strongly monotypic set has overlapping non-nested supports")

    supports = {frozenset(s) for _, s in negatives}
    maximal = sorted((s for s in supports
                      if not any(s < t for t in supports)),
                     key=min)
    covered: set[int] = set()
    for s in maximal:
        if covered & s:
            raise InternalInvariantError("maximal supports are not disjoint")
        covered |= s
    if covered != set(range(N.dim)):
        raise CoverageError(
            "maximal supports do not cover the basis; the origin is not "
            "interior to the convex hull of the normals")

    parts = []
    part_supports = []
    for s in maximal:
        key = tuple(sorted(s))
        x_l = next(x for x, sup in negatives if tuple(sorted(sup)) == key)
        parts.append(tuple(basis[i] for i in key) + (x_l,))
        part_supports.append(key)
    skeleton = Skeleton(tuple(basis), tuple(parts), tuple(part_supports))
    verify_skeleton(N, skeleton)
    return skeleton


def verify_skeleton(N: NormalSet, skeleton: Skeleton) -> None:
    """Independent recheck of the three structural claims: each part is a
    simplex with the origin in its relative interior, the part spans are
    independent, and they sum to the whole space."""
    n = N.dim
    seen: set[Vec] = set()
    for part, support in zip(skeleton.parts, skeleton.part_supports):
        if len(part) != len(support) + 1:
            raise InternalInvariantError("part size does not match its support")
        if seen & set(part):
            raise InternalInvariantError("parts are not pairwise disjoint")
        seen |= set(part)
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
