from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings

from polyillum import skeleton
from polyillum.classify import check_strong_monotypy
from polyillum.errors import InternalInvariantError, NotStronglyMonotypicError
from polyillum.kernel import rank, vec
from polyillum.polytope import NormalSet
from polyillum.position import (ALL_NONNEGATIVE, ALL_NONPOSITIVE, MIXED, SignClass,
                                captured, classify_signs, is_conical_position)
from polyillum.skeleton import extract_skeleton, refine_basis, verify_skeleton
from tests.conftest import (box, hexagon, set_n, simplex, simplex_product, square_pyramid,
                            valid_normal_sets)

F = Fraction


def first_independent_subset_scan(N):
    """The reference: the first n-subset, in `combinations` order, of rank n."""
    return next(subset for subset in combinations(N.normals, N.dim) if rank(subset) == N.dim)


class TestFirstIndependentSubset:
    @settings(max_examples=100, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)))
    def test_pivot_columns_are_the_first_independent_subset(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assert skeleton._first_independent_subset(N) == first_independent_subset_scan(N)

    def test_skips_a_dependent_prefix(self):
        # the normals are sorted in reverse, and the first three are dependent
        N = NormalSet.from_vectors(3, [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                       (0, 0, -1), (-1, -1, 0)])
        assert N.normals[:3] == (vec(1, 1, 0), vec(1, 0, 0), vec(0, 1, 0))
        assert skeleton._first_independent_subset(N) == (
            vec(1, 1, 0), vec(1, 0, 0), vec(0, 0, 1)) == first_independent_subset_scan(N)


class TestRefineBasis:
    def test_hexagon_single_swap(self):
        # the first independent pair is {(1,1),(1,0)}, and the normal (0,1)
        # has coefficients (1,-1) over it: single positive at (1,1), which
        # gets swapped out
        N = hexagon().normal_set
        sc = classify_signs((vec(1, 1), vec(1, 0)), vec(0, 1))
        assert sc.coefficients == vec(1, -1) and sc.positive_index == 0
        B, _ = refine_basis(N)
        assert B == (vec(0, 1), vec(1, 0))

    def test_cube_start_is_already_stable(self):
        B, signs = refine_basis(box(3).normal_set)
        assert B == (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))
        assert [sc.tag for _, sc in signs] == [ALL_NONPOSITIVE] * 3

    def test_pyramid_mixed_certificate(self):
        # a mixed pattern over a basis is a conical (n+1)-subset, so the
        # exhaustive check rejects the set before any refinement
        sc = classify_signs((vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1)), vec(0, -1, 1))
        assert sc.tag == MIXED and sc.coefficients == vec(1, 1, -1)
        N = square_pyramid().normal_set
        with pytest.raises(NotStronglyMonotypicError) as exc:
            refine_basis(N)
        assert set(exc.value.certificate) == {
            vec(0, -1, 1), vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1)}
        assert exc.value.certificate == check_strong_monotypy(N)[1]

    def test_default_start_reaches_stability(self):
        for N in (hexagon().normal_set, box(4).normal_set, simplex(3).normal_set):
            B, signs = refine_basis(N)
            assert [x for x, _ in signs] == [x for x in N.normals if x not in B]
            for x, sc in signs:
                assert sc == classify_signs(B, x)
                assert sc.tag in (ALL_NONPOSITIVE, ALL_NONNEGATIVE)

    @settings(max_examples=40, deadline=None)
    @given(valid_normal_sets())
    def test_captured_count_agrees_with_lp(self, normals):
        # every pass counts the normals its basis captures; record each
        # pass's basis and count and compare them with the LP
        passes = []

        def recording(basis, x):
            sc = classify_signs(basis, x)
            if not passes or passes[-1][0] != tuple(basis):
                passes.append((tuple(basis), 0))
            if sc.tag == ALL_NONNEGATIVE:
                passes[-1] = (passes[-1][0], passes[-1][1] + 1)
            return sc

        N = NormalSet.from_vectors(len(normals[0]), normals)
        assume(check_strong_monotypy(N)[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(skeleton, "classify_signs", recording)
            refine_basis(N)
        assert passes
        for basis, count in passes:
            assert count == sum(1 for _ in captured(basis, normals))


class TestCartesianSupport:
    """The supports of the all-nonpositive normals, read off the final pass."""

    def test_full_support(self):
        assert extract_skeleton(simplex(3).normal_set).part_supports == ((0, 1, 2),)

    def test_partial_support(self):
        assert extract_skeleton(simplex_product([2, 1]).normal_set).part_supports == (
            (0, 1), (2,))

    def test_singleton_in_three_dimensions(self):
        sk = extract_skeleton(box(3).normal_set)
        assert sk.part_supports == ((0,), (1,), (2,))
        assert sk.parts[1] == (vec(0, 1, 0), vec(0, -1, 0))


class TestExtractSkeleton:
    def test_cube(self):
        sk = extract_skeleton(box(3).normal_set)
        assert len(sk.parts) == 3
        assert all(len(part) == 2 for part in sk.parts)
        assert {frozenset(p) for p in sk.parts} == {
            frozenset({vec(1, 0, 0), vec(-1, 0, 0)}),
            frozenset({vec(0, 1, 0), vec(0, -1, 0)}),
            frozenset({vec(0, 0, 1), vec(0, 0, -1)}),
        }
        assert sk.product_of_part_sizes == 8

    def test_hexagon(self):
        sk = extract_skeleton(hexagon().normal_set)
        assert len(sk.parts) == 1
        assert set(sk.parts[0]) == {vec(1, 0), vec(0, 1), vec(-1, -1)}
        assert sk.part_supports == ((0, 1),)
        assert sk.product_of_part_sizes == 3

    def test_prism(self):
        sk = extract_skeleton(simplex_product([2, 1]).normal_set)
        assert sorted(len(p) for p in sk.parts) == [2, 3]
        assert sk.product_of_part_sizes == 6

    def test_simplex_is_one_part(self):
        for n in (2, 3, 4):
            sk = extract_skeleton(simplex(n).normal_set)
            assert len(sk.parts) == 1
            assert sk.product_of_part_sizes == n + 1

    def test_pyramid_rejected_with_conical_certificate(self):
        with pytest.raises(NotStronglyMonotypicError) as exc:
            extract_skeleton(square_pyramid().normal_set)
        assert is_conical_position(exc.value.certificate)

    def test_stable_laminar_basis_is_not_enough(self):
        N = set_n().normal_set
        strong, cert = check_strong_monotypy(N)
        assert not strong
        with pytest.raises(NotStronglyMonotypicError) as exc:
            extract_skeleton(N)
        assert exc.value.certificate == cert

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets())
    def test_succeeds_iff_strongly_monotypic(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        try:
            extract_skeleton(N)
            extracted = True
        except NotStronglyMonotypicError:
            extracted = False
        assert extracted == check_strong_monotypy(N)[0]

    def test_invariants_reverified(self):
        for N in (box(4).normal_set, hexagon().normal_set,
                  simplex_product([2, 2]).normal_set):
            sk = extract_skeleton(N)
            verify_skeleton(N, sk)  # raises on violation
            assert sk.product_of_part_sizes <= 2 ** N.dim

    def test_classifies_each_normal_once_per_basis(self, monkeypatch):
        # box(6) starts from a stable basis: one pass over its 6 other normals
        calls = []

        def counting(basis, x):
            calls.append(x)
            return classify_signs(basis, x)

        monkeypatch.setattr(skeleton, "classify_signs", counting)
        extract_skeleton(box(6).normal_set)
        assert len(calls) == 6

    def test_mixed_pattern_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(skeleton, "classify_signs",
                            lambda basis, x: SignClass(MIXED, classify_signs(basis, x).coefficients))
        with pytest.raises(InternalInvariantError, match="mixed"):
            extract_skeleton(box(3).normal_set)

    def test_no_mixed_pattern_on_strongly_monotypic_input(self):
        for N in (box(3).normal_set, hexagon().normal_set,
                  simplex(4).normal_set):
            sk = extract_skeleton(N)
            for x in N.normals:
                if x in sk.basis:
                    continue
                assert classify_signs(sk.basis, x).tag != MIXED
