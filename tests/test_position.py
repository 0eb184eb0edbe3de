import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polyillum import kernel, position
from polyillum.errors import InputError, InternalInvariantError
from polyillum.kernel import circuits, dot, rank, vec, vscale
from polyillum.position import (cone_membership, farkas_direction, is_conical_position,
                                is_primitive, separator, signed_separators)
from tests import position_reference as reference
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

    def test_pyramid_slants_pose_no_lp(self, monkeypatch):
        # four points of rank 3: one dependence and one inverse decide them
        lps = count_lps(monkeypatch)
        assert is_conical_position(SLANTS)
        assert lps == []

    def test_separates_on_the_shared_tableau(self, monkeypatch):
        # four coplanar points in R^3 have rank 2, so they take the LPs: one
        # pivot per prefix of the all +1 sign vector, on the +p_j columns
        # 2j, then membership LPs in `solve_eq_nonneg` until the third,
        # (1, 0, 1) / 2 + (-1, 0, 1) / 2, is found in the others' hull
        pts = [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 0, 1), vec(1, 0, 2)]
        pivots, lps = counting_bland(monkeypatch), count_lps(monkeypatch)
        verdict = is_conical_position(pts)
        assert verdict.hull_member == vec(0, 0, 1)
        assert verdict.hull_coefficients == (F(1, 2), F(1, 2), F(0))
        assert pivots == [(0,), (0, 2), (0, 2, 4), (0, 2, 4, 6)]
        assert lps[0] == pts and len(lps) == 1 + 3

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
                                 separator, is_conical_position,
                                 lambda pts: is_conical_position([*pts, vec(1, 1)]),
                                 lambda pts: is_primitive(pts[:1], pts),
                                 lambda pts: is_primitive(pts, [])],
                         ids=["signed_separators", "separator", "is_conical_position",
                              "is_conical_position_n_plus_1", "is_primitive_normals",
                              "is_primitive_subset"])
def test_ragged_points_are_an_input_error(ask):
    with pytest.raises(InputError, match="dimension mismatch in a cone question"):
        ask([vec(1, 0), vec(0, 1, 1)])


@pytest.mark.parametrize("ask", [lambda pts: list(signed_separators(pts, [0])), separator],
                         ids=["signed_separators", "separator"])
def test_no_points_are_an_input_error(ask):
    # as for `is_conical_position`, not an IndexError from the first point
    with pytest.raises(InputError, match="nonempty set of points"):
        ask([])


@pytest.mark.parametrize("ask", [lambda pts: list(signed_separators(pts, [1])),
                                 lambda pts: list(signed_separators(pts * 2, [1, 2])),
                                 separator, lambda pts: separator(pts * 2),
                                 is_conical_position, lambda pts: is_conical_position(pts * 2)],
                         ids=["signed_separators", "signed_separators_two", "separator",
                              "separator_two", "is_conical_position",
                              "is_conical_position_two"])
def test_zero_length_points_are_an_input_error(ask):
    # not a ValueError from slicing the integer columns by a step of 0
    with pytest.raises(InputError, match="vectors of positive length"):
        ask([()])


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


SLANTS = [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)]

# Fixed degenerate sets: zero dependence entries (conical, captured and one
# signed), zero points, repeated directions, a dependence summing to
# nonzero, four coplanar points in R^3 and sizes other than n + 1.
DEGENERATE_SETS = [
    [vec(1, 0, 1, 0), vec(-1, 0, 1, 0), vec(0, 1, 1, 0), vec(0, -1, 1, 0), vec(0, 0, 0, 1)],
    [vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0), vec(0, 0, 1)],
    [vec(1, 0), vec(-1, 0), vec(0, 1)],
    [vec(0, 0), vec(1, 0), vec(0, 1)],
    [vec(1, 0), vec(2, 0), vec(0, 1)],
    [vec(1, 0), vec(-2, 0), vec(0, 1)],
    [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 2), vec(0, -1, 2)],
    SLANTS,
    [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 0, 1), vec(1, 0, 2)],
    [vec(1, 0, 1), vec(-1, 0, 1), vec(1, 0, 2), vec(-1, 0, 2)],
    [vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1)],
    SLANTS + [vec(1, 1, 1), vec(0, 0, 1)],
    [vec(2)], [vec(1), vec(-1)], [vec(1), vec(2)], [vec(1), vec(0)], [vec(0)],
]


@st.composite
def conical_questions(draw, balanced=False):
    """Point sets in R^1 to R^4: n + 1 points with a dependence drawn with
    zero entries, of one sign or alternating; n + 1 points of rank below
    n, such as four coplanar points in R^3; or 1 to n + 3 points. Zero
    points and repeated or opposite directions are mixed in. `balanced`
    draws only n + 1 points in R^3 or R^4 with alternating signs, most of
    them in conical position."""
    dim = draw(st.integers(min_value=3 if balanced else 1, max_value=4))
    point = st.tuples(*[st.one_of(st.just(F(0)), small_fraction)] * dim)
    coefficient = st.integers(min_value=-2, max_value=2)
    shape = "dependence" if balanced else draw(
        st.sampled_from(["dependence", "dependence", "flat", "any"]))
    if shape == "dependence":
        # n points, triangular or free, and the last from the dependence
        if draw(st.booleans()):
            points = [tuple(F(r == j) if r <= j else draw(small_fraction) for r in range(dim))
                      for j in range(dim)]
        else:
            points = draw(st.lists(point, min_size=dim, max_size=dim))
        lam = draw(st.lists(st.sampled_from([1, 2, 0]), min_size=dim, max_size=dim))
        if balanced or draw(st.booleans()):  # balanced from n = 3 on, but for zeros
            lam = [c * (-1) ** j for j, c in enumerate(lam)]
        last = draw(st.sampled_from([-2, -1, 1, 2]))
        points.append(tuple(-sum(c * p[r] for c, p in zip(lam, points)) / last
                            for r in range(dim)))
    elif shape == "flat":
        rank_ = draw(st.integers(min_value=0, max_value=dim - 1))
        basis = draw(st.lists(point, min_size=rank_, max_size=rank_))
        points = [tuple(F(sum(c * b[r] for c, b in zip(cs, basis))) for r in range(dim))
                  for cs in draw(st.lists(st.lists(coefficient, min_size=rank_, max_size=rank_),
                                          min_size=dim + 1, max_size=dim + 1))]
    else:
        points = draw(st.lists(point, min_size=1, max_size=dim + 3))
    indices = st.integers(min_value=0, max_value=len(points) - 1)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i, j = draw(indices), draw(indices)
        points[j] = vscale(draw(st.sampled_from([2, F(1, 2), -1])), points[i])
    draw(st.randoms(use_true_random=False)).shuffle(points)
    return points


@st.composite
def primitivity_questions(draw):
    """(subset, normals) in R^1 to R^4: up to n + 1 of 1 to 7 drawn
    vectors, with zero vectors, repeated directions and combinations of two
    subset elements, nonnegative or not, among the normals."""
    dim = draw(st.integers(min_value=1, max_value=4))
    point = st.tuples(*[st.one_of(st.just(F(0)), small_fraction)] * dim)
    normals = draw(st.lists(point, min_size=1, max_size=7))
    indices = st.integers(min_value=0, max_value=len(normals) - 1)
    subset = [normals[i] for i in draw(st.lists(indices, max_size=dim + 1, unique=True))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a, b = (draw(st.sampled_from([F(0), F(1), F(2), F(1, 2), F(-1)])) for _ in "ab")
        g, h = (draw(st.sampled_from(subset)) for _ in "gh") if subset else (normals[0],) * 2
        normals.append(tuple(a * x + b * y for x, y in zip(g, h)))
    return subset, normals


def conical_fields(verdict):
    return (bool(verdict), verdict.not_separated, verdict.hull_member,
            verdict.hull_coefficients)


class TestAgainstTheLpReference:
    """The linear-algebra re-checks against their LP forms in
    `tests/position_reference.py`."""

    @pytest.mark.parametrize("points", DEGENERATE_SETS)
    def test_degenerate_conical_sets(self, points):
        self.check_conical(points)

    @settings(max_examples=200, deadline=None)
    @given(conical_questions())
    def test_conical_position(self, points):
        self.check_conical(points)

    @settings(max_examples=150, deadline=None)
    @given(conical_questions(balanced=True))
    def test_balanced_dependences(self, points):
        self.check_conical(points)

    @staticmethod
    def check_conical(points):
        verdict = is_conical_position(points)
        assert conical_fields(verdict) == conical_fields(reference.is_conical_position(points))
        if verdict:
            assert all(dot(p, verdict.separator) >= 1 for p in points)

    @pytest.mark.parametrize("subset,normals", [
        ([], []), ([], [vec(0, 0)]), ([], [vec(1, 0)]),
        ([vec(1, 0), vec(0, 0)], [vec(1, 1)]),
        ([vec(1, 0)], [vec(2, 0)]), ([vec(1, 0)], [vec(-1, 0)]),
        ([vec(1, 0, 0), vec(0, 1, 0)], [vec(1, 1, 0), vec(0, 0, 1)]),
        ([vec(1, 0, 0), vec(0, 1, 0)], [vec(1, -1, 0), vec(0, 0, 1)]),
        *(([vec(1, 0), vec(1, 1)], [m]) for m in TestPrimitivity.HEX),
    ])
    def test_degenerate_primitivity(self, subset, normals):
        assert is_primitive(subset, normals) == reference.is_primitive(subset, normals)

    @settings(max_examples=200, deadline=None)
    @given(primitivity_questions())
    def test_primitivity(self, question):
        assert is_primitive(*question) == reference.is_primitive(*question)


class TestRechecksAreExact:
    """One corrupted entry of a linear-algebra answer is an internal error."""

    @staticmethod
    def corrupt_reduction(monkeypatch, row, column):
        reduce = kernel._row_reduce

        def corrupted(rows):
            M, D, pivots = reduce(rows)
            M = [list(r) for r in M]
            M[row][column] += 1
            return M, D, pivots

        monkeypatch.setattr(kernel, "_row_reduce", corrupted)

    def test_a_corrupted_coefficient(self, monkeypatch):
        # [g1 g2 | x | I] reduces to [I | (1, 1) | I]: x = g1 + g2
        self.corrupt_reduction(monkeypatch, 0, 2)
        with pytest.raises(InternalInvariantError, match="coordinates fail"):
            is_primitive([vec(1, 0), vec(0, 1)], [vec(1, 1)])

    def test_a_corrupted_separating_row(self, monkeypatch):
        # [g | x | I] = [(1, 0) | (0, 1) | I]: z = (0, 1), row 1 of I, and
        # its first entry becomes 1
        self.corrupt_reduction(monkeypatch, 1, 2)
        with pytest.raises(InternalInvariantError, match="separating row fails"):
            is_primitive([vec(1, 0)], [vec(0, 1)])

    def test_a_corrupted_dependence(self, monkeypatch):
        dependence = position.simplex_dependence
        monkeypatch.setattr(position, "simplex_dependence",
                            lambda points: (dependence(points)[0] + 1, *dependence(points)[1:]))
        with pytest.raises(InternalInvariantError, match="dependence fails"):
            is_conical_position(SLANTS)

    def test_a_corrupted_separator(self, monkeypatch):
        # each slant has third entry 1, so lowering the third entry of v
        # takes <p, v> below 1 at the points of B
        inverse = position.inverse

        def corrupted(rows):
            Q, D = inverse(rows)
            return ((*Q[0][:2], Q[0][2] - 1), *Q[1:]), D

        monkeypatch.setattr(position, "inverse", corrupted)
        with pytest.raises(InternalInvariantError, match="separator fails"):
            is_conical_position(SLANTS)


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
