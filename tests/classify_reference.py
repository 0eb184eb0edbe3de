"""The scans that `polyillum.classify.avoiding` replaced, kept as the
references its listings are compared against: every (n+1)-subset, in
`combinations` order, tested against every circuit that is not balanced,
and each conical one tested for captures by a loop over the whole
circuit table, the loop that `classify.captures` replaced by lookups in
the capture index; and the primitivity test of one subset that the
fan's scan of every n-subset called."""

from __future__ import annotations

from itertools import combinations

from polyillum.classify import Circuit, bitmask, circuit_table, circuits_inside
from polyillum.polytope import NormalSet


def captures(mask: int, table: tuple[Circuit, ...]) -> int:
    """Bitmask of the normals outside `mask` that are the only element of
    one sign of a circuit whose other elements lie inside `mask`."""
    found = 0
    for c in table:
        for lone, rest in ((c.plus, c.minus), (c.minus, c.plus)):
            if (lone and lone & (lone - 1) == 0 and not lone & mask
                    and rest & ~mask == 0):
                found |= lone
    return found


def primitive(mask: int, table: tuple[Circuit, ...]) -> bool:
    """Independent normals whose positive hull holds no other normal."""
    return not any(circuits_inside(mask, table)) and not captures(mask, table)


def conical_subsets(N: NormalSet) -> list[int]:
    """The masks of the (n+1)-subsets that hold no circuit with fewer than
    two elements of one sign, in `combinations` order."""
    unbalanced = [c.plus | c.minus for c in circuit_table(N)
                  if c.plus.bit_count() < 2 or c.minus.bit_count() < 2]
    return [mask for idx in combinations(range(len(N.normals)), N.dim + 1)
            for mask in (bitmask(idx),)
            if not any(mask & support == support for support in unbalanced)]


def uncaptured_conical_subsets(N: NormalSet) -> list[int]:
    """The conical subsets, in order, that capture no normal."""
    table = circuit_table(N)
    return [mask for mask in conical_subsets(N) if not captures(mask, table)]
