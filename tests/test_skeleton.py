import sys
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import assume, given, settings

from polyillum import kernel, skeleton
from polyillum.classify import check_strong_monotypy
from polyillum.cli import run_command
from polyillum.errors import InternalInvariantError, NotStronglyMonotypicError
from polyillum.formats import dump, polytope_to_doc
from polyillum.kernel import _integers, inverse, rank, vec, vscale
from polyillum.polytope import NormalSet
from polyillum.position import captured, is_conical_position
from polyillum.skeleton import extract_skeleton, refine_basis, verify_skeleton
from tests import skeleton_reference as reference
from tests.conftest import (box, hexagon, set_n, simplex, simplex_product, square_pyramid,
                            valid_normal_sets)
from tests.skeleton_reference import (ALL_NONNEGATIVE, ALL_NONPOSITIVE, MIXED,
                                      classify_signs, sign_tag)

F = Fraction


def first_independent_subset_scan(N):
    """The reference: the first n-subset, in `combinations` order, of rank n."""
    return next(subset for subset in combinations(N.normals, N.dim) if rank(subset) == N.dim)


def start_basis(N):
    """The basis refinement's start: the normals at `N.basis`."""
    return tuple(N.normals[i] for i in N.basis)


class TestFirstIndependentSubset:
    @settings(max_examples=100, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)))
    def test_pivot_columns_are_the_first_independent_subset(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assert start_basis(N) == first_independent_subset_scan(N)

    def test_skips_a_dependent_prefix(self):
        # the normals are sorted in reverse, and the first three are dependent
        N = NormalSet.from_vectors(3, [(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                                       (0, 0, -1), (-1, -1, 0)])
        assert N.normals[:3] == (vec(1, 1, 0), vec(1, 0, 0), vec(0, 1, 0))
        assert N.basis == (0, 1, 3)
        assert start_basis(N) == (
            vec(1, 1, 0), vec(1, 0, 0), vec(0, 0, 1)) == first_independent_subset_scan(N)

    def test_the_basis_is_not_part_of_equality(self):
        N = box(3).normal_set
        M = NormalSet(N.dim, N.normals)
        assert M.basis == N.basis and M == N and hash(M) == hash(N)
        assert "basis" not in repr(N)


def refined(N):
    """`refine_basis` with its indices mapped through `N.normals`: the
    basis vectors, the inverse, and the (normal, signs) pairs."""
    B, inv, signs = refine_basis(N)
    return tuple(N.normals[i] for i in B), inv, tuple((N.normals[j], a) for j, a in signs)


class TestRefineBasis:
    def test_hexagon_single_swap(self):
        # the first independent pair is {(1,1),(1,0)}, and the normal (0,1)
        # has coefficients (1,-1) over it: single positive at (1,1), which
        # gets swapped out
        N = hexagon().normal_set
        sc = classify_signs((vec(1, 1), vec(1, 0)), vec(0, 1))
        assert sc.coefficients == vec(1, -1) and sc.positive_index == 0
        B, _, _ = refine_basis(N)
        assert B == (2, 1)
        assert tuple(N.normals[i] for i in B) == (vec(0, 1), vec(1, 0))

    def test_cube_start_is_already_stable(self):
        B, _, signs = refined(box(3).normal_set)
        assert B == (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1))
        assert [sign_tag(a) for _, a in signs] == [ALL_NONPOSITIVE] * 3

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
            B, (_, D), signs = refined(N)
            assert [x for x, _ in signs] == [x for x in N.normals if x not in B]
            for x, a in signs:
                # <X, Q_i> is k D times the i-th coefficient, x == X / k
                sc = classify_signs(B, x)
                assert tuple(F(c, D) for c in a) == vscale(_integers(x)[1], sc.coefficients)
                assert sign_tag(a) == sc.tag in (ALL_NONPOSITIVE, ALL_NONNEGATIVE)

    @settings(max_examples=40, deadline=None)
    @given(valid_normal_sets())
    def test_captured_count_agrees_with_lp(self, normals):
        # every pass counts the normals its basis captures, those with no
        # negative sign over its inverse; record each pass's basis and
        # inverse and compare that count with the LP
        passes = []

        def recording(basis):
            passes.append((tuple(basis), inverse(basis)))
            return passes[-1][1]

        N = NormalSet.from_vectors(len(normals[0]), normals)
        assume(check_strong_monotypy(N)[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(skeleton, "inverse", recording)
            refine_basis(N)
        assert passes
        for basis, (columns, _) in passes:
            count = sum(all(sum(map(mul, _integers(x)[0], q)) >= 0 for q in columns)
                        for x in normals if x not in basis)
            assert count == sum(1 for _ in captured(basis, normals))

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)))
    def test_agrees_with_the_reference(self, normals):
        # the same final basis, and the same sign tag for every other normal
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assume(check_strong_monotypy(N)[0])
        B, _, signs = refined(N)
        expected_B, expected = reference.refine_basis(N)
        assert B == expected_B
        assert [(x, sign_tag(a)) for x, a in signs] == [(x, sc.tag) for x, sc in expected]


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

    def test_a_part_element_that_is_no_normal_fails_the_recheck(self):
        N = box(3).normal_set
        sk = extract_skeleton(N)
        (x, y), *rest = sk.parts
        with pytest.raises(InternalInvariantError, match="not distinct normals"):
            verify_skeleton(N, sk._replace(parts=((vscale(2, x), y), *rest)))

    def test_overlapping_parts_fail_the_recheck(self):
        N = box(3).normal_set
        sk = extract_skeleton(N)
        first, _, third = sk.parts
        i, _, k = sk.part_indices
        with pytest.raises(InternalInvariantError, match="not pairwise disjoint"):
            verify_skeleton(N, sk._replace(parts=(first, first, third),
                                           part_indices=(i, i, k)))

    def test_an_index_shared_by_two_parts_fails_the_recheck(self):
        # the second part becomes {e_2, -e_1}, named consistently by its
        # indices, so only the first part's -e_1 overlaps it
        N = box(3).normal_set
        sk = extract_skeleton(N)
        (a, b), (c, _), third = sk.part_indices
        parts = tuple(tuple(N.normals[i] for i in part) for part in ((a, b), (c, b), third))
        assert parts[1] == (vec(0, 1, 0), vec(-1, 0, 0))
        with pytest.raises(InternalInvariantError, match="not pairwise disjoint"):
            verify_skeleton(N, sk._replace(parts=parts, part_indices=((a, b), (c, b), third)))

    def test_an_index_naming_another_normal_fails_the_recheck(self):
        # the first part's indices name its elements in the wrong order, and
        # then its apex by the second part's apex
        N = box(3).normal_set
        sk = extract_skeleton(N)
        (a, b), (c, d), third = sk.part_indices
        for first in ((b, a), (a, d)):
            with pytest.raises(InternalInvariantError,
                               match="^part elements are not distinct normals of the set$"):
                verify_skeleton(N, sk._replace(part_indices=(first, (c, d), third)))

    def test_indices_for_fewer_parts_fail_the_recheck(self):
        N = box(3).normal_set
        sk = extract_skeleton(N)
        with pytest.raises(InternalInvariantError, match="not distinct normals"):
            verify_skeleton(N, sk._replace(part_indices=sk.part_indices[:2]))

    @pytest.mark.parametrize("P", [box(3), hexagon(), simplex_product([2, 2, 1]), simplex(4)],
                             ids=["box3", "hexagon", "sp221", "simplex4"])
    def test_part_indices_name_the_part_vectors(self, P):
        # per part, the basis elements in support order, then the apex
        N = P.normal_set
        sk = extract_skeleton(N)
        assert sk.parts == tuple(tuple(N.normals[i] for i in part) for part in sk.part_indices)
        B = refine_basis(N)[0]
        assert sk.basis == tuple(N.normals[i] for i in B)
        assert [part[:-1] for part in sk.part_indices] == [
            tuple(B[i] for i in support) for support in sk.part_supports]

    def test_classifies_each_normal_once_per_basis(self, monkeypatch):
        # box(6) starts from a stable basis, and the hexagon swaps once: one
        # inverse per pass classifies every other normal
        calls = []

        def counting(basis):
            calls.append(tuple(basis))
            return inverse(basis)

        monkeypatch.setattr(skeleton, "inverse", counting)
        for P, passes in ((box(6), 1), (hexagon(), 2)):
            calls.clear()
            extract_skeleton(P.normal_set)
            assert len(calls) == passes

    @pytest.mark.parametrize("P,passes", [(hexagon(), 2), (box(4), 1)],
                             ids=["hexagon", "box4"])
    def test_row_reductions(self, monkeypatch, P, passes):
        # with the circuit table warm, one inverse per pass, then the
        # re-check's dependence per part and its one rank; the start basis
        # is the normal set's, which costs none
        N = P.normal_set
        extract_skeleton(N)
        calls = []
        row_reduce = kernel._row_reduce

        def counting(matrix):
            frame = sys._getframe(1)
            while frame.f_code.co_name not in ("inverse", "simplex_dependence", "rank"):
                frame = frame.f_back
            calls.append(frame.f_code.co_name)
            return row_reduce(matrix)

        monkeypatch.setattr(kernel, "_row_reduce", counting)
        sk = extract_skeleton(N)
        assert calls == ["inverse"] * passes + ["simplex_dependence"] * len(sk.parts) + ["rank"]

    def test_mixed_pattern_is_an_internal_error(self, monkeypatch):
        # over the box's basis e_1, e_2, e_3, these columns give -e_3 the
        # signs (1, 1, -1)
        monkeypatch.setattr(skeleton, "inverse",
                            lambda basis: (((1, 0, -1), (0, 1, -1), (0, 0, 1)), 1))
        with pytest.raises(InternalInvariantError, match="mixed"):
            extract_skeleton(box(3).normal_set)

    @pytest.mark.parametrize("command", ["skeleton", "illuminate"])
    def test_singular_basis_is_an_internal_error(self, monkeypatch, capsys, tmp_path,
                                                 command):
        path = tmp_path / "box3.json"
        path.write_text(dump(polytope_to_doc(box(3))))
        monkeypatch.setattr(skeleton, "inverse", lambda basis: None)
        with pytest.raises(InternalInvariantError, match="singular"):
            extract_skeleton(box(3).normal_set)
        assert run_command([command, str(path)]) == 3
        assert capsys.readouterr().out == '{"error":"skeleton basis is singular"}\n'

    def test_no_mixed_pattern_on_strongly_monotypic_input(self):
        for N in (box(3).normal_set, hexagon().normal_set,
                  simplex(4).normal_set):
            sk = extract_skeleton(N)
            for x in N.normals:
                if x in sk.basis:
                    continue
                assert classify_signs(sk.basis, x).tag != MIXED
