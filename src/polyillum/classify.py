"""Monotypy and strong monotypy verdicts with re-checkable certificates.

Strong monotypy is decided over the signed circuits of the normals, and
monotypy by two routes that the `classify` command cross-checks: the
conical-position-with-captured-normal test, and the disjoint-primitive-
subsets test, which reads the same circuits. Verdicts depend only on the
normal set, so results, and the circuit table they share, are cached per
NormalSet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, dropwhile
from math import comb
from typing import Optional

from .errors import InputError, InternalInvariantError, ScaleLimitError
from .kernel import Vec, circuits, rank, vadd, vneg, vscale, zero_vec
from .polytope import NormalSet
from .position import captured, cone_membership, is_conical_position, is_primitive

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
    total = zero_vec(N.dim)
    for m in N.normals:
        total = vadd(total, m)
    if cone_membership(vneg(total), N.normals) is None:
        raise InputError("origin is not interior to the convex hull of the normals")


def _guard(N: NormalSet) -> None:
    count = comb(len(N.normals), N.dim + 1)
    if count > MAX_SUBSET_COUNT:
        raise ScaleLimitError(
            f"{count} subsets of size {N.dim + 1} exceed the enumeration guard "
            f"({MAX_SUBSET_COUNT})")


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def circuit_table(N: NormalSet) -> tuple[tuple[tuple[int, ...], Vec], ...]:
    """The circuits of the normals, as listed by `kernel.circuits`."""
    return tuple(circuits(N.normals))


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_strong_monotypy(N: NormalSet) -> tuple[bool, Optional[ConicalCertificate]]:
    """True iff no (n+1)-subset of the normals is in conical position.

    A false verdict returns the first such subset in lexicographic order
    over the canonical normal order.

    Decided over the circuits of N (Gordan's alternative and conformal
    decomposition, as in `check_monotypy_mss`): a subset is strictly
    separated from the origin iff no circuit inside it has a single sign,
    and none of its points lies in the positive hull of the others iff no
    circuit inside it has a single element of one sign. So a subset is in
    conical position iff every circuit inside it is balanced, with at least
    two positive and two negative signs. A balanced circuit is in conical
    position itself and extends to n+1 normals by adding normals outside
    its span, so N is strongly monotypic iff it has no balanced circuit.
    The certificate is re-checked by LP.
    """
    validate_normal_set(N)
    _guard(N)
    table = circuit_table(N)
    unbalanced = [sum(1 << i for i in idx) for idx, mu in table  # support bitmasks
                  if not 2 <= sum(1 for c in mu if c > 0) <= len(mu) - 2]
    if len(unbalanced) == len(table):
        return True, None
    for idx in combinations(range(len(N.normals)), N.dim + 1):
        mask = sum(1 << i for i in idx)
        if not any(mask & support == support for support in unbalanced):
            subset = tuple(N.normals[i] for i in idx)
            if not is_conical_position(subset):
                raise InternalInvariantError(
                    "subset without an unbalanced circuit is not in conical position")
            return False, subset
    raise InternalInvariantError("balanced circuit extends to no conical (n+1)-subset")


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_monotypy(N: NormalSet) -> tuple[bool, Optional[ConicalCertificate]]:
    """True iff every (n+1)-subset in conical position has its positive hull
    containing some further normal of N.

    Starts from `check_strong_monotypy`: a strongly monotypic set has no
    such subset, and otherwise every subset before its certificate is
    known not to be in conical position, so the scan resumes there.
    """
    strong, first_conical = check_strong_monotypy(N)
    if strong:
        return True, None
    subsets = combinations(N.normals, N.dim + 1)
    for subset in dropwhile(lambda s: s != first_conical, subsets):
        if ((subset == first_conical or is_conical_position(subset))
                and not any(captured(subset, N.normals))):
            return False, subset
    return True, None


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_monotypy_mss(N: NormalSet) -> tuple[bool, Optional[MssCertificate]]:
    """True iff every two disjoint primitive subsets have positive hulls
    meeting only at the origin.

    Decided over the circuits of N. If pos(V1) and pos(V2) share a point
    p != 0, then p = sum(lam_i x_i) = sum(theta_j y_j) is a dependence,
    positive on V1 and negative on V2, and every such dependence is a
    conformal sum of circuits (Rockafellar 1969). Any circuit in that sum
    has its positive half in V1 and its negative half in V2; neither half
    is empty because V1 and V2 are independent, and both are primitive
    because subsets of primitive sets are. Conversely a circuit mu whose
    halves are both primitive gives the common point sum over mu_i > 0 of
    mu_i n_i, nonzero since its positive half is independent. A false
    verdict returns the first such circuit's halves, in the order of
    `kernel.circuits`, and that point.
    """
    validate_normal_set(N)
    _guard(N)
    for idx, mu in circuit_table(N):
        v1 = tuple(N.normals[i] for i, c in zip(idx, mu) if c > 0)
        v2 = tuple(N.normals[i] for i, c in zip(idx, mu) if c < 0)
        if v1 and v2 and is_primitive(v1, N.normals) and is_primitive(v2, N.normals):
            point = zero_vec(N.dim)
            for i, c in zip(idx, mu):
                if c > 0:
                    point = vadd(point, vscale(c, N.normals[i]))
            return False, (v1, v2, point)
    return True, None


def classify_normal_set(N: NormalSet) -> ClassificationVerdict:
    strong, strong_cert = check_strong_monotypy(N)
    mono, mono_cert = check_monotypy(N)
    return ClassificationVerdict(strong, mono, strong_cert, mono_cert)
