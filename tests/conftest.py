import random

import pytest
from hypothesis import strategies as st

from polyillum import HPolytope, NormalSet, lp, position
from polyillum.errors import InputError
from polyillum.generators import generate
from polyillum.lp import solve_eq_nonneg

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


def set_n() -> HPolytope:
    """Not strongly monotypic, though its refined basis is swap-stable and
    its negative supports are laminar."""
    return HPolytope.from_facets(3, [((1, 1, 1), 1), ((1, 1, -1), 1), ((0, -1, -1), 1),
                                     ((-1, 1, -1), 1), ((-1, 0, 1), 1)])


def count_lps(monkeypatch):
    """Patch the LP entry point; the returned list collects one entry per solve."""
    calls = []

    def counting(rows, rhs):
        calls.append(rows)
        return solve_eq_nonneg(rows, rhs)

    monkeypatch.setattr(lp, "solve_eq_nonneg", counting)
    monkeypatch.setattr(position, "solve_eq_nonneg", counting)
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


@pytest.fixture
def hex_polytope():
    return hexagon()


@pytest.fixture
def cube():
    return box(3)


@pytest.fixture
def pyramid():
    return square_pyramid()
