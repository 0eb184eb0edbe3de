"""Monotypy and strong monotypy verdicts with re-checkable certificates.

Every position fact a verdict rests on is read off one table of the
signed circuits of the normals, kept as index bitmasks (Gordan's
alternative and conformal decomposition into circuits, Rockafellar
1969). For a subset S of the normals:

- S is independent iff no circuit lies inside S;
- a normal m outside S lies in pos(S) iff m is the only element of one
  sign of a circuit inside S + {m} (S *captures* m);
- S is primitive iff it is independent and captures nothing;
- S is in conical position iff every circuit inside it is balanced, with
  two or more elements of each sign: else the origin or one point of S
  lies in the positive hull of the others.

So each listing of subsets is one search, `avoiding`, for the masks S
with no S & support == pattern over some circuits (Avis and Fukuda,
*Reverse search for enumeration*, 1996): no C(m, k) scan. Monotypy is
decided by two routes that `classify_normal_set` cross-checks: the
conical-position-with-captured-normal test, and the disjoint-primitive-
subsets test. Each emitted certificate is re-checked once by the
predicates of `position`. A NormalSet positively spans by construction,
so no verdict validates its input again. Verdicts depend only on the
normal set, so results, and the circuit table they share, are cached per
NormalSet.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import InternalInvariantError, ScaleLimitError
from .kernel import Vec, circuits, vadd, vscale
from .polytope import NormalSet
from .position import captured, is_conical_position, is_primitive

MAX_SUBSET_COUNT = 10 ** 7
# Entries kept by each per-NormalSet cache, so a long-lived process holds
# the verdicts of the most recent normal sets only.
NORMAL_SET_CACHE_SIZE = 128

ConicalCertificate = tuple[Vec, ...]
# (V1, V2, common nonzero point of both positive hulls)
MssCertificate = tuple[tuple[Vec, ...], tuple[Vec, ...], Vec]


class ClassificationVerdict(NamedTuple):
    strongly_monotypic: bool
    monotypic: bool
    strong_certificate: Optional[ConicalCertificate] = None
    mono_certificate: Optional[ConicalCertificate] = None
    mss_certificate: Optional[MssCertificate] = None


class Circuit(NamedTuple):
    """A circuit, with its dependence as the coprime ints of `kernel.circuits`."""
    indices: tuple[int, ...]
    dependence: tuple[int, ...]
    plus: int   # index bitmask of the normals with a positive coefficient
    minus: int  # index bitmask of the normals with a negative coefficient


def bitmask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


def _guard(N: NormalSet) -> None:
    count = comb(len(N.normals), N.dim + 1)
    if count > MAX_SUBSET_COUNT:
        raise ScaleLimitError(
            f"{count} subsets of size {N.dim + 1} exceed the enumeration guard "
            f"({MAX_SUBSET_COUNT})")


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def circuit_table(N: NormalSet) -> tuple[Circuit, ...]:
    """The circuits of the normals, in the order of `kernel.circuits`,
    each with the bitmasks of its positive and its negative elements."""
    _guard(N)
    table = []
    for idx, mu in circuits(N.normals):
        signs = [0, 0]  # plus, minus: no coefficient is zero
        for i, c in zip(idx, mu):
            signs[c < 0] |= 1 << i
        table.append(Circuit(idx, mu, *signs))
    return tuple(table)


def circuits_inside(mask: int, table: tuple[Circuit, ...]) -> Iterator[Circuit]:
    """The circuits whose elements all lie in the index set `mask`."""
    return (c for c in table if (c.plus | c.minus) & ~mask == 0)


def capture_index(table: tuple[Circuit, ...]) -> dict[int, int]:
    """Per `rest` of the capture patterns, the bitmask of its lone elements."""
    index: dict[int, int] = {}
    for support, rest in capture_patterns(table):
        index[rest] = index.get(rest, 0) | support ^ rest
    return index


def captures(mask: int, index: dict[int, int]) -> int:
    """Bitmask of the normals outside `mask` in the positive hull of those
    inside it: each is the lone element of one sign of a circuit whose
    other sign is a submask of `mask`, in that submask's index entry."""
    found, sub = 0, mask
    while sub:
        found, sub = found | index.get(sub, 0), sub - 1 & mask
    return found & ~mask


def capture_patterns(table: tuple[Circuit, ...]) -> Iterator[tuple[int, int]]:
    """(support, rest) for each circuit with a single element of one sign and
    rest the other sign: a mask with `mask & support == rest` captures it."""
    return ((c.plus | c.minus, rest) for c in table
            for lone, rest in ((c.plus, c.minus), (c.minus, c.plus))
            if lone and lone & (lone - 1) == 0)


def _unbalanced(table: tuple[Circuit, ...]) -> list[tuple[int, int]]:
    """(support, support) for each circuit with fewer than two elements of
    one sign: a mask in conical position holds none of their supports."""
    return [(c.plus | c.minus,) * 2 for c in table
            if c.plus.bit_count() < 2 or c.minus.bit_count() < 2]


def avoiding(m: int, patterns: Iterable[tuple[int, int]],
             size: Optional[int] = None) -> Iterator[int]:
    """Lazily, the masks over range(m), with `size` bits if given, that have
    `mask & support != pattern` for every pair, in `product((1, 0))` order
    (for a size, `combinations` order). A prefix is dropped once it matches
    a pair whose highest support bit it has just set, or has too many or
    too few bits."""
    filed = [[] for _ in range(m)]
    for support, pattern in patterns:
        filed[support.bit_length() - 1].append((support, pattern))
    low, high = (-m, m) if size is None else (size - m, size)
    stack = [(0, 0)]
    while stack:
        k, prefix = stack.pop()
        if k == m:
            yield prefix
            continue
        for p in (prefix, prefix | 1 << k):  # pushed unset first, so set comes first
            if low + k < p.bit_count() <= high:
                for s, t in filed[k]:
                    if p & s == t:
                        break
                else:
                    stack.append((k + 1, p))


def _first(N: NormalSet, patterns: list[tuple[int, int]]) -> Optional[tuple[Vec, ...]]:
    """The first (n+1)-subset of the normals that matches no pattern."""
    mask = next(avoiding(len(N.normals), patterns, N.dim + 1), None)
    return None if mask is None else tuple(x for i, x in enumerate(N.normals) if mask >> i & 1)


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_strong_monotypy(N: NormalSet) -> tuple[bool, Optional[ConicalCertificate]]:
    """True iff no (n+1)-subset of the normals is in conical position.

    A false verdict returns the first such subset in lexicographic order
    over the canonical normal order, re-checked by `is_conical_position`.
    A balanced circuit is in conical position itself and extends to n+1
    normals by adding normals outside its span, so N is strongly monotypic
    iff it has no balanced circuit.
    """
    table = circuit_table(N)
    unbalanced = _unbalanced(table)
    if len(unbalanced) == len(table):
        return True, None
    if (subset := _first(N, unbalanced)) is None:
        raise InternalInvariantError("balanced circuit extends to no conical (n+1)-subset")
    if not is_conical_position(subset):
        raise InternalInvariantError(
            "subset without an unbalanced circuit is not in conical position")
    return False, subset


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_monotypy(N: NormalSet) -> tuple[bool, Optional[ConicalCertificate]]:
    """True iff every (n+1)-subset in conical position has its positive hull
    containing some further normal of N.

    A false verdict returns the first uncaptured conical subset, re-checked
    by an LP per further normal; the strong certificate has been re-checked
    for conical position already.
    """
    strong, first_conical = check_strong_monotypy(N)
    if strong:
        return True, None
    table = circuit_table(N)
    if (subset := _first(N, [*_unbalanced(table), *capture_patterns(table)])) is None:
        return True, None
    if ((subset != first_conical and not is_conical_position(subset))
            or any(captured(subset, N.normals))):
        raise InternalInvariantError("uncaptured conical subset fails its re-check")
    return False, subset


@lru_cache(maxsize=NORMAL_SET_CACHE_SIZE)
def check_monotypy_mss(N: NormalSet) -> tuple[bool, Optional[MssCertificate]]:
    """True iff every two disjoint primitive subsets have positive hulls
    meeting only at the origin.

    If pos(V1) and pos(V2) share a point p != 0, then p = sum(lam_i x_i) =
    sum(theta_j y_j) is a dependence, positive on V1 and negative on V2,
    and every such dependence is a conformal sum of circuits (Rockafellar
    1969). Any circuit in that sum has its positive half in V1 and its
    negative half in V2; neither half is empty because V1 and V2 are
    independent, and both are primitive because subsets of primitive sets
    are. Conversely a circuit mu whose halves are both primitive gives the
    common point sum over mu_i > 0 of mu_i n_i / mu_last, nonzero since its
    positive half is independent. A false verdict returns the first such
    circuit's halves, in the order of `kernel.circuits`, and that point;
    both halves are re-checked by one elimination each. A half is a proper subset of
    its circuit, so it is independent and no circuit lies inside it: it is
    primitive iff it captures no normal, one lookup per submask in the
    table's `capture_index`: no more work than the table, as a spanning
    component of corank 1 is one positive circuit, so `kernel.circuits`
    pivoted every subset of each two-signed circuit's halves. Each
    distinct half, shared by circuits, is tested once.
    """
    table = circuit_table(N)
    index = capture_index(table)
    primitive_half = lru_cache(maxsize=None)(lambda mask: not captures(mask, index))
    for c in table:
        if c.plus and c.minus and primitive_half(c.plus) and primitive_half(c.minus):
            v1 = tuple(N.normals[i] for i, mu in zip(c.indices, c.dependence) if mu > 0)
            v2 = tuple(N.normals[i] for i, mu in zip(c.indices, c.dependence) if mu < 0)
            if not (is_primitive(v1, N.normals) and is_primitive(v2, N.normals)):
                raise InternalInvariantError("circuit halves fail their primitivity re-check")
            point = reduce(vadd, (vscale(Fraction(mu, c.dependence[-1]), N.normals[i])
                                  for i, mu in zip(c.indices, c.dependence) if mu > 0))
            return False, (v1, v2, point)
    return True, None


def classify_normal_set(N: NormalSet) -> ClassificationVerdict:
    """All three verdicts; the two monotypy routes must agree."""
    strong, strong_cert = check_strong_monotypy(N)
    mono, mono_cert = check_monotypy(N)
    mono_mss, mss_cert = check_monotypy_mss(N)
    if mono != mono_mss:
        raise InternalInvariantError("the two monotypy characterizations disagree")
    return ClassificationVerdict(strong, mono, strong_cert, mono_cert, mss_cert)
