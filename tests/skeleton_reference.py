"""The basis refinement that `polyillum.skeleton.refine_basis` replaced,
kept as the reference it is compared against: each pass solves one
`Fraction` system per normal outside the basis and tags its coefficients'
sign pattern, where the program inverts the basis once per pass and reads
every sign off that inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from polyillum.classify import check_strong_monotypy
from polyillum.errors import (InputError, InternalInvariantError,
                              NotStronglyMonotypicError)
from polyillum.kernel import Vec
from polyillum.polytope import NormalSet
from tests.kernel_reference import solve_rows

ALL_NONPOSITIVE = "all_nonpositive"
ALL_NONNEGATIVE = "all_nonnegative"
SINGLE_POSITIVE = "single_positive"
MIXED = "mixed"


@dataclass(frozen=True)
class SignClass:
    tag: str
    coefficients: Vec
    positive_index: Optional[int] = None


def sign_tag(coefficients: Sequence) -> str:
    """The tag of a sign pattern, whatever positive multiple it is read off."""
    pos = [i for i, c in enumerate(coefficients) if c > 0]
    if not pos:
        return ALL_NONPOSITIVE
    if all(c >= 0 for c in coefficients):
        return ALL_NONNEGATIVE
    return SINGLE_POSITIVE if len(pos) == 1 else MIXED


def classify_signs(basis: Sequence[Vec], x: Vec) -> SignClass:
    """Sign pattern of the unique expansion of x over an independent basis.

    all_nonpositive: every coefficient <= 0 (the set {x} + basis is not
    strictly separable from the origin); all_nonnegative / single_positive:
    one of the points lies in the positive hull of the others; mixed
    (>= 2 positive, >= 1 negative): {x} + basis is in conical position.
    """
    lam = solve_rows([tuple(b[i] for b in basis) for i in range(len(x))], x)
    if lam is None:
        raise InputError("singular basis in classify_signs")
    tag = sign_tag(lam)
    if tag == SINGLE_POSITIVE:
        return SignClass(tag, lam, positive_index=next(i for i, c in enumerate(lam) if c > 0))
    return SignClass(tag, lam)


def refine_basis(N: NormalSet) -> tuple[tuple[Vec, ...], tuple]:
    """Swap-stable basis B within N, with the (normal, SignClass) pair over
    B of every other normal: each pass classifies every other normal once,
    and the first single_positive one replaces the positively-weighted
    basis element."""
    strong, cert = check_strong_monotypy(N)
    if not strong:
        raise NotStronglyMonotypicError(
            "skeleton extraction requires strong monotypy", cert)
    basis = [N.normals[i] for i in N.basis]
    count = -1
    for _ in range(len(N.normals) + 1):
        signs = tuple((x, classify_signs(basis, x)) for x in N.normals if x not in basis)
        tags = [sc.tag for _, sc in signs]
        if MIXED in tags:
            raise InternalInvariantError("strongly monotypic set gave a mixed sign pattern")
        now = tags.count(ALL_NONNEGATIVE)
        if now <= count:
            raise InternalInvariantError("swap failed to enlarge the captured normal count")
        count = now
        for x, sc in signs:
            if sc.tag == SINGLE_POSITIVE:
                basis[sc.positive_index] = x
                break
        else:
            return tuple(basis), signs
    raise InternalInvariantError("basis refinement did not terminate")
