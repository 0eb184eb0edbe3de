"""Monotypy and strong monotypy verdicts with re-checkable certificates.

Three routes are implemented and cross-checked in the tests: the
conical-position test for strong monotypy, the conical-position-with-
captured-normal test for monotypy, and the disjoint-primitive-subsets
test for monotypy. Verdicts depend only on the normal set, so results
are cached per NormalSet.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

from .errors import InputError, ScaleLimitError
from .kernel import Vec, rank, vadd, zero_vec
from .lp import solve_eq_nonneg
from .polytope import NormalSet
from .position import cone_membership, is_conical_position, is_primitive

MAX_SUBSET_COUNT = 10 ** 7
# Entries kept by each per-NormalSet cache, so a long-lived process holds
# the verdicts of the most recent normal sets only.
NORMAL_SET_CACHE_SIZE = 128

ConicalCertificate = tuple[Vec, ...]
# (V1, V2, common nonzero point of both positive hulls)
MssCertificate = tuple[tuple[Vec, ...], tuple[Vec, ...], Vec]


@dataclass(frozen=True)
class ClassificationVerdict:
    strongly_monotypic: bool
    monotypic: bool
    strong_certificate: Optional[ConicalCertificate] = None
    mono_certificate: Optional[ConicalCertificate] = None

    @property
    def certificate(self):
        return self.mono_certificate if not self.monotypic else self.strong_certificate


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def validate_normal_set(N: NormalSet) -> None:
    """A valid facet-normal set spans the space and has the origin interior
    to its convex hull (equivalently, its positive hull is everything)."""
    if rank(N.normals) < N.dim:
        raise InputError("normals do not span the space")
    # 0 = sum(lam_i n_i) with every lam_i >= 1, via lam = 1 + lam', lam' >= 0
    rows = [[m[i] for m in N.normals] for i in range(N.dim)]
    total = zero_vec(N.dim)
    for m in N.normals:
        total = vadd(total, m)
    if solve_eq_nonneg(rows, [-t for t in total]) is None:
        raise InputError("origin is not interior to the convex hull of the normals")


def _guard(N: NormalSet) -> None:
    count = comb(len(N.normals), N.dim + 1)
    if count > MAX_SUBSET_COUNT:
        raise ScaleLimitError(
            f"{count} subsets of size {N.dim + 1} exceed the enumeration guard "
            f"({MAX_SUBSET_COUNT})")


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_strong_monotypy(N: NormalSet) -> tuple[bool, Optional[ConicalCertificate]]:
    """True iff no (n+1)-subset of the normals is in conical position.

    A false verdict returns the first such subset in lexicographic order
    over the canonical normal order.
    """
    validate_normal_set(N)
    _guard(N)
    for subset in combinations(N.normals, N.dim + 1):
        if is_conical_position(subset):
            return False, subset
    return True, None


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_monotypy(N: NormalSet) -> tuple[bool, Optional[ConicalCertificate]]:
    """True iff every (n+1)-subset in conical position has its positive hull
    containing some further normal of N."""
    validate_normal_set(N)
    _guard(N)
    for subset in combinations(N.normals, N.dim + 1):
        if not is_conical_position(subset):
            continue
        inside = set(subset)
        captured = any(cone_membership(m, subset) is not None
                       for m in N.normals if m not in inside)
        if not captured:
            return False, subset
    return True, None


def _primitive_subsets(N: NormalSet) -> list[tuple[Vec, ...]]:
    out = []
    for size in range(1, N.dim + 1):
        for subset in combinations(N.normals, size):
            if is_primitive(subset, N.normals):
                out.append(subset)
    return out


def _cones_meet(v1: tuple[Vec, ...], v2: tuple[Vec, ...]) -> Optional[Vec]:
    """A common nonzero point of pos(v1) and pos(v2), or None.

    Solves sum(lam_i x_i) == sum(theta_j y_j) with lam, theta >= 0 and
    sum(lam) == 1; the normalization rules out the trivial point, and the
    witness is nonzero because the x_i are linearly independent.
    """
    d = len(v1[0])
    rows = [[x[i] for x in v1] + [-y[i] for y in v2] for i in range(d)]
    rows.append([Fraction(1)] * len(v1) + [Fraction(0)] * len(v2))
    rhs = [Fraction(0)] * d + [Fraction(1)]
    sol = solve_eq_nonneg(rows, rhs)
    if sol is None:
        return None
    point = zero_vec(d)
    for lam, x in zip(sol[:len(v1)], v1):
        point = vadd(point, tuple(lam * c for c in x))
    return point


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_monotypy_mss(N: NormalSet) -> tuple[bool, Optional[MssCertificate]]:
    """True iff every two disjoint primitive subsets have positive hulls
    meeting only at the origin."""
    validate_normal_set(N)
    _guard(N)
    prims = _primitive_subsets(N)
    for a in range(len(prims)):
        for b in range(a + 1, len(prims)):
            v1, v2 = prims[a], prims[b]
            if set(v1) & set(v2):
                continue
            point = _cones_meet(v1, v2)
            if point is not None:
                return False, (v1, v2, point)
    return True, None


def classify_normal_set(N: NormalSet) -> ClassificationVerdict:
    strong, strong_cert = check_strong_monotypy(N)
    mono, mono_cert = check_monotypy(N)
    return ClassificationVerdict(strong, mono, strong_cert, mono_cert)
