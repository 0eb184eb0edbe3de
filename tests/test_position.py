import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polyillum import position
from polyillum.errors import InputError, InternalInvariantError
from polyillum.kernel import circuits, dot, rank, vec, vscale
from polyillum.position import (cone_membership, farkas_direction, is_conical_position,
                                is_primitive, separator, signed_separators)
from tests.conftest import count_lps, counting_bland
from tests.oracle_reference import lifted_separator
from tests.polytope_reference import zero_vec
from tests.skeleton_reference import (ALL_NONNEGATIVE, ALL_NONPOSITIVE, MIXED,
                                      SINGLE_POSITIVE, classify_signs)

F = Fraction

small_fraction = st.fractions(min_value=-8, max_value=8, max_denominator=4)
vec2 = st.tuples(small_fraction, small_fraction).map(lambda t: vec(*t))
nonzero_vec2 = vec2.filter(lambda v: any(c != 0 for c in v))


class TestClassifySigns:
    def test_all_nonpositive(self):
        sc = classify_signs([vec(1, 0), vec(0, 1)], vec(-1, -2))
        assert sc.tag == ALL_NONPOSITIVE
        assert sc.coefficients == vec(-1, -2)

    def test_single_positive(self):
        sc = classify_signs([vec(1, 0), vec(0, 1)], vec(1, -1))
        assert sc.tag == SINGLE_POSITIVE
        assert sc.positive_index == 0

    def test_mixed_pyramid_case(self):
        sc = classify_signs([vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1)],
                            vec(0, -1, 1))
        assert sc.tag == MIXED
        assert sc.coefficients == vec(1, 1, -1)

    def test_singular_basis_rejected(self):
        with pytest.raises(InputError):
            classify_signs([vec(1, 0), vec(2, 0)], vec(0, 1))

    def test_zero_heavy_patterns(self):
        basis = [vec(1, 0), vec(0, 1)]
        assert classify_signs(basis, vec(1, 0)).tag == ALL_NONNEGATIVE
        assert classify_signs(basis, vec(-1, 0)).tag == ALL_NONPOSITIVE


class TestConicalPosition:
    def test_point_in_hull_of_others(self):
        verdict = is_conical_position([vec(1, 0), vec(0, 1), vec(1, 1)])
        assert not verdict
        assert verdict.hull_member == vec(1, 1)

    def test_not_separated(self):
        verdict = is_conical_position([vec(1, 0), vec(0, 1), vec(-1, -1)])
        assert not verdict
        assert verdict.not_separated

    def test_pyramid_slants_are_conical(self):
        pts = [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)]
        verdict = is_conical_position(pts)
        assert verdict
        assert all(dot(p, verdict.separator) >= 1 for p in pts)

    def test_separates_on_the_shared_tableau(self, monkeypatch):
        # one pivot per prefix of the all +1 sign vector, on the +p_j
        # columns 2j; the membership LPs go to `solve_eq_nonneg`
        pts = [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)]
        pivots, lps = counting_bland(monkeypatch), count_lps(monkeypatch)
        assert is_conical_position(pts)
        assert pivots == [(0,), (0, 2), (0, 2, 4), (0, 2, 4, 6)]
        assert lps[0] == pts and len(lps) == 1 + len(pts)

    @settings(max_examples=60)
    @given(st.lists(nonzero_vec2, min_size=3, max_size=3))
    def test_no_planar_triple_is_conical(self, pts):
        assert not is_conical_position(pts)

    @settings(max_examples=40)
    @given(st.lists(nonzero_vec2, min_size=2, max_size=4),
           st.lists(st.fractions(min_value=F(1, 4), max_value=4,
                                 max_denominator=4), min_size=4, max_size=4),
           st.randoms(use_true_random=False))
    def test_invariant_under_rescaling_and_permutation(self, pts, scales, rnd):
        base = bool(is_conical_position(pts))
        scaled = [vscale(s, p) for s, p in zip(scales, pts)]
        assert bool(is_conical_position(scaled)) == base
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        assert bool(is_conical_position(shuffled)) == base


def origin_in_convex_hull(points):
    """The reference for `separator`, by Gordan's alternative: a convex
    combination of nonzero points vanishes iff some circuit of the points
    has a dependence of one sign."""
    return any(all(c > 0 for c in mu) or all(c < 0 for c in mu)
               for _, mu in circuits(points))


@st.composite
def point_sets(draw):
    """1 to 6 points in R^1 to R^4 with small rational entries, zeros and
    zero points among them."""
    dim = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(F(0)), small_fraction)
    return draw(st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=6))


class TestSeparator:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(nonzero_vec2, min_size=1, max_size=5))
    def test_none_exactly_when_a_convex_combination_vanishes(self, pts):
        v = separator(pts)
        assert (v is None) == origin_in_convex_hull(pts)
        if v is not None:
            assert all(dot(p, v) >= 1 for p in pts)

    @settings(max_examples=300, deadline=None)
    @given(point_sets())
    @example([vec(1, F(1, 2)), vec(-2, -1), vec(0, 3)])
    def test_equals_the_lifted_lp(self, pts):
        # the shared tableau on the all +1 sign vector ends on the basis,
        # and so on the vector, of the lifted LP
        assert separator(pts) == lifted_separator(pts)


def test_a_wrong_none_fails_its_substitution_check(monkeypatch):
    # with every value zeroed no artificial stays basic, so the answer is
    # None, but no chosen column then solves the system
    bland = position._bland

    def zero_values(M, D, basis, columns):
        M, D, basis = bland(M, D, basis, columns)
        return [row[:-1] + [0] for row in M], D, basis

    monkeypatch.setattr(position, "_bland", zero_values)
    with pytest.raises(InternalInvariantError, match="substitution check"):
        separator([vec(1, 0), vec(0, 1)])


@pytest.mark.parametrize("ask", [lambda pts: list(signed_separators(pts, [3])),
                                 separator, is_conical_position],
                         ids=["signed_separators", "separator", "is_conical_position"])
def test_ragged_points_are_an_input_error(ask):
    with pytest.raises(InputError, match="dimension mismatch in a cone question"):
        ask([vec(1, 0), vec(0, 1, 1)])


@pytest.mark.parametrize("ask", [lambda pts: list(signed_separators(pts, [0])), separator],
                         ids=["signed_separators", "separator"])
def test_no_points_are_an_input_error(ask):
    # as for `is_conical_position`, not an IndexError from the first point
    with pytest.raises(InputError, match="nonempty set of points"):
        ask([])


class TestConeMembership:
    def test_member(self):
        assert cone_membership(vec(1, 1), [vec(1, 0), vec(0, 1)]) == (F(1), F(1))

    def test_not_member(self):
        assert cone_membership(vec(-1, 0), [vec(1, 0), vec(0, 1)]) is None

    def test_below_pyramid_slants(self):
        gens = [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)]
        assert cone_membership(vec(0, 0, -1), gens) is None

    def test_empty_generators(self):
        assert cone_membership(zero_vec(2), []) == ()
        assert cone_membership(vec(1, 0), []) is None

    @settings(max_examples=80, deadline=None)
    @given(nonzero_vec2, st.lists(nonzero_vec2, min_size=1, max_size=4))
    def test_farkas_direction_pairs_to_one_with_x(self, x, generators):
        # fractional entries, so the certificate is rescaled over x's denominators
        d = farkas_direction(x, generators)
        assert (d is None) == (cone_membership(x, generators) is not None)
        if d is not None:
            assert dot(x, d) == 1
            assert all(dot(g, d) <= 0 for g in generators)


class TestPrimitivity:
    HEX = [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, 1), vec(-1, -1)]

    def test_captured_pair_not_primitive(self):
        assert not is_primitive([vec(1, 0), vec(0, 1)], self.HEX)

    def test_adjacent_pair_primitive(self):
        assert is_primitive([vec(1, 0), vec(1, 1)], self.HEX)

    def test_dependent_not_primitive(self):
        assert not is_primitive([vec(1, 0), vec(-1, 0)], self.HEX)


def random_fraction(rnd):
    return F(rnd.randint(-12, 12), rnd.randint(1, 6))


def random_basis_and_point(rnd, n):
    while True:
        basis = [tuple(random_fraction(rnd) for _ in range(n)) for _ in range(n)]
        if rank(basis) == n:
            break
    x = tuple(random_fraction(rnd) for _ in range(n))
    while all(c == 0 for c in x):
        x = tuple(random_fraction(rnd) for _ in range(n))
    return basis, x


def equivalence_case(basis, x):
    """Cross-check a sign classification against the independent
    separation and positive-hull tests on {x} + basis."""
    sc = classify_signs(basis, x)
    pts = [x] + list(basis)
    separated = separator(pts) is not None
    in_hull = any(
        cone_membership(p, [q for j, q in enumerate(pts) if j != i]) is not None
        for i, p in enumerate(pts))
    conical = bool(is_conical_position(pts))
    if sc.tag == ALL_NONPOSITIVE:
        assert not separated
    elif sc.tag in (ALL_NONNEGATIVE, SINGLE_POSITIVE):
        assert in_hull
    else:
        assert conical
    assert conical == (sc.tag == MIXED)


class TestSignEquivalence:
    def test_random_instances(self):
        rnd = random.Random(20240817)
        for n in (2, 3, 4):
            for _ in range(12):
                basis, x = random_basis_and_point(rnd, n)
                equivalence_case(basis, x)
