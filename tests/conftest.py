import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from polyillum import HPolytope, NormalSet, lp, oracle, position
from polyillum.errors import InputError
from polyillum.generators import generate
from polyillum.kernel import vec
from polyillum.lp import solve_eq_nonneg
from polyillum.position import signed_separators

HEXAGON_FACETS = [
    ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1),
    ((0, -1), 1), ((1, 1), 1), ((-1, -1), 1),
]

TRIANGLE_FACETS = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]


def hexagon() -> HPolytope:
    return HPolytope.from_facets(2, HEXAGON_FACETS)


def triangle() -> HPolytope:
    return HPolytope.from_facets(2, TRIANGLE_FACETS)


def box(n: int) -> HPolytope:
    return generate("box", (n,))


def simplex(n: int) -> HPolytope:
    return generate("simplex", (n,))


def simplex_product(dims) -> HPolytope:
    return generate("simplex_product", tuple(dims))


def square_pyramid() -> HPolytope:
    return generate("square_pyramid")


def cut_box_facets(n: int) -> list[tuple]:
    """The facets of the box [-1, 1]^n cut by x_1 + ... + x_n <= n - 2. The
    cut passes through the n box vertices with one coordinate -1, so each
    of them has n + 1 tight normals."""
    units = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return [(u, 1) for u in units] + [((1,) * n, n - 2)]


def set_n() -> HPolytope:
    """Not strongly monotypic, though its refined basis is swap-stable and
    its negative supports are laminar."""
    return HPolytope.from_facets(3, [((1, 1, 1), 1), ((1, 1, -1), 1), ((0, -1, -1), 1),
                                     ((-1, 1, -1), 1), ((-1, 0, 1), 1)])


def n_over_apex() -> HPolytope:
    """N with the offsets of a pyramid over the origin: four facets meet at
    the origin, so the polytope is not simple."""
    N = set_n().normal_set
    return HPolytope(N, tuple(Fraction(m == vec(0, -1, -1)) for m in N.normals))


def rank_three_certificates() -> HPolytope:
    """Nine normals of R^4 at unit offsets, with 16 vertices. Their first
    five, the conical and the uncaptured certificate both, span only the
    hyperplane x_4 = 0, so neither is n + 1 points of rank n."""
    return HPolytope.from_facets(4, [(v, 1) for v in (
        (2, 0, 1, 0), (1, 2, 1, 0), (0, -2, 1, 0), (-1, 2, 1, 0), (-2, 0, 1, 0),
        (-4, 2, -2, -1), (-5, 2, 3, 2), (-5, 1, -3, 3), (-5, -1, -3, 0))])


def sign_vectors_26() -> HPolytope:
    """The 26 nonzero vectors of {-1, 0, 1}^3 as normals, each at offset
    3 + |v|^2; they hold 5,805 circuits."""
    return HPolytope.from_facets(3, [(v, 3 + sum(x * x for x in v))
                                     for v in product((-1, 0, 1), repeat=3) if any(v)])


def count_lps(monkeypatch):
    """Patch both LP drivers; the returned list collects one entry per
    `solve_eq_nonneg` solve, its rows, and one per `signed_separators`
    tableau, its points."""
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return solve_eq_nonneg(rows, rhs)

    def counting_signed(points, masks):
        calls.append(points)
        return signed_separators(points, masks)

    monkeypatch.setattr(lp, "solve_eq_nonneg", counting)
    monkeypatch.setattr(position, "solve_eq_nonneg", counting)
    monkeypatch.setattr(position, "signed_separators", counting_signed)
    monkeypatch.setattr(oracle, "signed_separators", counting_signed)
    return calls


def count_fractions(monkeypatch):
    """Patch `Fraction.__new__`; the returned list collects the arguments
    of each `Fraction` made, by a call or by `Fraction` arithmetic."""
    new, calls = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls


def counting_bland(monkeypatch):
    """Patch the shared-tableau pivot loop; the returned list collects one
    entry per prefix pivoted."""
    bland, calls = position._bland, []

    def counting(M, D, basis, columns):
        calls.append(tuple(columns))
        return bland(M, D, basis, columns)

    monkeypatch.setattr(position, "_bland", counting)
    return calls


@st.composite
def valid_normal_sets(draw, dims=(2, 3)):
    """A valid normal set in R^n, n drawn from dims, with entries in -2..2.

    Few random draws are valid, so invalid ones are redrawn from a stream
    seeded by hypothesis instead of being filtered out by it.
    """
    dim = draw(st.sampled_from(dims))
    size = draw(st.integers(min_value=dim + 1, max_value=dim + 3))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    while True:
        vectors = [[rnd.randint(-2, 2) for _ in range(dim)] for _ in range(size)]
        try:
            return NormalSet.from_vectors(dim, vectors).normals
        except InputError:
            continue


@st.composite
def fractional_polytopes(draw, dims=(2, 3, 4)):
    """A polytope in R^n, n drawn from dims, with up to n + 5 normals whose
    entries have denominators up to 3, and offsets close to the normals'
    lengths, so that no facet is redundant. Invalid draws are redrawn from
    a stream seeded by hypothesis."""
    dim = draw(st.sampled_from(dims))
    size = draw(st.integers(min_value=dim + 1, max_value=dim + 5))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    while True:
        vectors = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(dim)]
                   for _ in range(size)]
        try:
            N = NormalSet.from_vectors(dim, vectors)
            return HPolytope(N, tuple(Fraction(round(1000 * math.hypot(*map(float, m))), 1000)
                                      for m in N.normals))
        except InputError:
            continue


def integer_or_fractional_normal_sets():
    """A NormalSet drawn by `valid_normal_sets(dims=(2, 3, 4))` or by
    `fractional_polytopes()`."""
    return st.one_of(valid_normal_sets(dims=(2, 3, 4)).map(
        lambda normals: NormalSet.from_vectors(len(normals[0]), normals)),
        fractional_polytopes().map(lambda P: P.normal_set))


@pytest.fixture
def hex_polytope():
    return hexagon()


@pytest.fixture
def cube():
    return box(3)


@pytest.fixture
def pyramid():
    return square_pyramid()
