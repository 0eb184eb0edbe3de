"""Built-in instance families and deterministic offset randomization.

The randomizer draws offsets in [1, 2] with denominator 16 from a
splitmix64 stream, so the same seed reproduces the same polytope
bit-for-bit in any implementation of the same stream.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .kernel import format_vector
from .polytope import HPolytope, vertex_guard

FAMILIES = ("box", "simplex", "simplex_product", "square_pyramid")

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ z>>30) * 0xBF58476D1CE4E5B9; z = (z ^ z>>27) * 0x94D049BB133111EB;
    return z ^ z>>31. All arithmetic mod 2^64."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def simplex_product_normals(dims) -> list[tuple[Fraction, ...]]:
    total = sum(dims)
    normals = []
    offset = 0
    for d in dims:
        normals.extend(_unit(total, offset + i) for i in range(d))
        normals.append(tuple(Fraction(-1 if offset <= j < offset + d else 0)
                             for j in range(total)))
        offset += d
    return normals


SQUARE_PYRAMID_NORMALS = [(0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]


def generate(family: str, dims: tuple[int, ...] = ()) -> HPolytope:
    """The built-in instance with unit offsets."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if any(d <= 0 for d in dims):
        raise InputError(f"dimensions must be positive, got {dims}")
    if family == "square_pyramid":
        if dims:
            raise InputError("square_pyramid takes no dimensions")
        return HPolytope.from_facets(3, [(m, Fraction(1)) for m in SQUARE_PYRAMID_NORMALS])
    if family != "simplex_product" and len(dims) != 1:
        raise InputError(f"{family} takes exactly one dimension")
    if not dims:
        raise InputError("simplex_product takes at least one factor dimension")
    # a box is n segments, a simplex one factor; guarded before any normal exists
    dim = sum(dims)
    vertex_guard(2 * dim if family == "box" else dim + len(dims), dim)
    normals = simplex_product_normals([1] * dim if family == "box" else dims)
    return HPolytope.from_facets(dim, [(m, Fraction(1)) for m in normals])


def randomize_offsets(P: HPolytope, seed: int) -> HPolytope:
    """Same normals, offsets drawn as (16 + z mod 17)/16 in [1, 2] per
    normal in canonical order; redraws (up to 100 times) if the result
    fails validation."""
    rng = SplitMix64(seed)
    last_error = None
    for _ in range(100):
        offsets = tuple(Fraction(16 + rng.next() % 17, 16)
                        for _ in P.normal_set.normals)
        try:
            return HPolytope(P.normal_set, offsets)
        except InputError as err:
            last_error = err
    raise InputError(
        f"100 offset draws failed for normal set {format_vector(P.normal_set.normals)}: "
        f"{last_error}")
