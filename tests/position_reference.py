"""The LP forms of `polyillum.position.is_conical_position` and
`is_primitive` that one elimination each replaced, kept as the reference
the linear-algebra answers are compared against: a separator LP and a
membership LP per point, and a membership LP per further normal.
"""

from __future__ import annotations

from typing import Sequence

from polyillum.kernel import Vec, rank
from polyillum.position import ConicalVerdict, captured, cone_membership, separator


def is_conical_position(points: Sequence[Vec]) -> ConicalVerdict:
    """A set is in conical position iff it is strictly separated from the
    origin and no point lies in the positive hull of the others."""
    v = separator(points)
    if v is None:
        return ConicalVerdict(False, not_separated=True)
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        mu = cone_membership(p, others)
        if mu is not None:
            return ConicalVerdict(False, hull_member=p, hull_coefficients=mu)
    return ConicalVerdict(True, separator=v)


def is_primitive(subset: Sequence[Vec], all_normals: Sequence[Vec]) -> bool:
    """Independent normals whose positive hull contains no other normal."""
    return rank(subset) == len(subset) and not any(captured(subset, all_normals))
