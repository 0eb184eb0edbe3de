from fractions import Fraction

import pytest

from polyillum import polytope
from polyillum.errors import InputError
from polyillum.kernel import rank, vec
from polyillum.polytope import (BOUNDARY, INTERIOR, OUTSIDE, HPolytope,
                                NormalSet)
from tests.conftest import box, square_pyramid, triangle

F = Fraction


class TestNormalSet:
    def test_canonical_order_is_descending(self):
        N = NormalSet.from_vectors(2, [(0, 1), (1, 0), (-1, -1)])
        assert N.normals == (vec(1, 0), vec(0, 1), vec(-1, -1))

    def test_rejects_zero_normal(self):
        with pytest.raises(InputError, match="zero"):
            NormalSet.from_vectors(2, [(1, 0), (0, 0)])

    def test_rejects_positive_multiples(self):
        with pytest.raises(InputError, match="positive multiple"):
            NormalSet.from_vectors(2, [(1, 0), (2, 0)])

    def test_negatives_are_distinct_directions(self):
        N = NormalSet.from_vectors(2, [(1, 0), (-1, 0)])
        assert len(N.normals) == 2


class TestVertexEnumeration:
    def test_square(self):
        P = HPolytope.from_facets(
            2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
        points = {v.point for v in P.vertices}
        assert points == {vec(1, 1), vec(1, -1), vec(-1, 1), vec(-1, -1)}

    def test_triangle(self):
        points = {v.point for v in triangle().vertices}
        assert points == {vec(1, 1), vec(1, -2), vec(-2, 1)}

    def test_cube(self):
        points = {v.point for v in box(3).vertices}
        assert points == {vec(*p) for p in
                          [(sx, sy, sz) for sx in (1, -1)
                           for sy in (1, -1) for sz in (1, -1)]}

    def test_vertices_are_deterministic_and_sorted(self):
        P = triangle()
        Q = triangle()
        assert [v.point for v in P.vertices] == [v.point for v in Q.vertices]
        assert [v.point for v in P.vertices] == sorted(v.point for v in P.vertices)

    def test_every_vertex_tight_set_spans(self):
        for P in (box(3), triangle(), square_pyramid()):
            for v in P.vertices:
                assert rank(v.tight) == P.dim
                assert P.point_location(v.point) == BOUNDARY

    def test_unbounded_rejected_with_witness(self):
        with pytest.raises(InputError, match="unbounded") as exc:
            HPolytope.from_facets(2, [((1, 0), 1), ((0, 1), 1)])
        assert exc.value.witness is not None

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty"):
            HPolytope.from_facets(1, [((1,), -2), ((-1,), 1)])

    def test_building_runs_no_feasibility_lp(self, monkeypatch):
        # a bounded system is empty exactly when it has no vertex
        calls = []
        monkeypatch.setattr(polytope, "feasible", lambda *a: calls.append(a))
        box(3)
        assert calls == []


class TestIrredundancy:
    def test_never_tight_facet_rejected(self):
        with pytest.raises(InputError, match="redundant"):
            HPolytope.from_facets(
                2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
                    ((1, 1), 3)])

    def test_tight_only_at_a_vertex_rejected(self):
        # x + y <= 2 touches the square exactly at (1,1): a face, not a facet
        with pytest.raises(InputError, match="redundant"):
            HPolytope.from_facets(
                2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
                    ((1, 1), 2)])

    def test_support_equals_stored_offset(self):
        for P in (box(3), triangle(), square_pyramid()):
            for n, h in zip(P.normal_set.normals, P.offsets):
                assert P.support_value(n) == h


class TestQueries:
    def test_support_values(self):
        assert box(3).support_value(vec(1, 0, 0)) == 1
        square = HPolytope.from_facets(
            2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
        assert square.support_value(vec(1, 1)) == 2
        assert triangle().support_value(vec(1, 1)) == 2

    def test_support_of_zero_rejected(self):
        with pytest.raises(InputError):
            box(3).support_value(vec(0, 0, 0))

    def test_tight_normals(self):
        square = HPolytope.from_facets(
            2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
        assert set(square.tight_normals(vec(1, 1))) == {vec(1, 0), vec(0, 1)}
        assert set(triangle().tight_normals(vec(1, -2))) == {vec(1, 0), vec(-1, -1)}

    def test_pyramid_apex_is_not_simple(self):
        P = square_pyramid()
        apex = vec(0, 0, 1)
        assert set(P.tight_normals(apex)) == {
            vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)}
        assert not P.is_simple
        assert [v.point for v in P.non_simple_vertices()] == [apex]

    def test_tight_normals_outside_rejected(self):
        with pytest.raises(InputError, match="outside"):
            box(3).tight_normals(vec(2, 0, 0))

    def test_point_location(self):
        P = box(3)
        assert P.point_location(vec(0, 0, 0)) == INTERIOR
        assert P.point_location(vec(1, 0, 0)) == BOUNDARY
        assert P.point_location(vec(2, 0, 0)) == OUTSIDE

    def test_slack_widens_tight_set(self):
        P = triangle()
        assert len(P.tight_normals(vec(1, 1), F(3))) == 3
