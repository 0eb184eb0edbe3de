import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from polyillum import classify, fan, kernel
from polyillum.classify import bitmask
from polyillum.errors import InputError
from polyillum.fan import (FanCone, enumerate_primitive_bases, is_complete_fan,
                           normal_fan, verify_fan_uniqueness)
from polyillum.generators import randomize_offsets
from polyillum.kernel import rank, vadd, vec
from polyillum.polytope import NormalSet
from polyillum.position import cone_membership
from tests.conftest import (box, count_fractions, count_lps, hexagon,
                            integer_or_fractional_normal_sets, simplex, simplex_product,
                            square_pyramid, triangle, valid_normal_sets)
from tests.fan_reference import per_cone_complete_fan
from tests.oracle_reference import enumerate_direction_classes
from tests.polytope_reference import masked, tight_normals, vneg, vsub, zero_vec
from tests.position_reference import is_primitive as lp_primitive

F = Fraction


class TestPrimitiveBases:
    def test_square(self):
        N = NormalSet.from_vectors(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        cones = enumerate_primitive_bases(N)
        assert {frozenset(c.generators) for c in cones} == {
            frozenset({vec(1, 0), vec(0, 1)}),
            frozenset({vec(1, 0), vec(0, -1)}),
            frozenset({vec(-1, 0), vec(0, 1)}),
            frozenset({vec(-1, 0), vec(0, -1)}),
        }

    def test_hexagon_has_six_adjacent_pairs(self):
        cones = enumerate_primitive_bases(hexagon().normal_set)
        assert len(cones) == 6

    def test_triangle(self):
        assert len(enumerate_primitive_bases(triangle().normal_set)) == 3


class TestNormalFan:
    def test_cube_has_eight_orthants(self):
        cones = normal_fan(box(3))
        assert len(cones) == 8
        gens = {frozenset(c.generators) for c in cones}
        assert frozenset({vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)}) in gens

    def test_triangle_matches_primitive_bases(self):
        P = triangle()
        assert ({frozenset(c.generators) for c in normal_fan(P)}
                == {frozenset(c.generators)
                    for c in enumerate_primitive_bases(P.normal_set)})

    def test_pyramid_apex_errors(self):
        with pytest.raises(InputError, match="not simple"):
            normal_fan(square_pyramid())


class TestUniqueness:
    @pytest.mark.parametrize("P", [box(3), hexagon(), simplex_product([2, 1])],
                             ids=["cube", "hexagon", "prism"])
    def test_unique(self, P):
        assert verify_fan_uniqueness(P)

    def test_prism_has_six_cones(self):
        assert len(normal_fan(simplex_product([2, 1]))) == 6

    def test_rejects_non_monotypic(self):
        P = square_pyramid()
        with pytest.raises(InputError, match="monotypic"):
            verify_fan_uniqueness(P)

    def test_fan_is_offset_independent(self):
        P = hexagon()
        base = {frozenset(c.generators) for c in normal_fan(P)}
        for seed in range(5):
            Q = randomize_offsets(P, seed)
            assert {frozenset(c.generators) for c in normal_fan(Q)} == base
            assert verify_fan_uniqueness(Q)

    def test_cone_count_equals_vertex_count(self):
        for P in (box(3), hexagon(), triangle(), simplex(3)):
            assert (len(enumerate_primitive_bases(P.normal_set))
                    == len(P.vertices))

    def test_vertex_tight_sets_are_primitive_bases(self):
        for P in (box(3), hexagon(), simplex(3)):
            cones = enumerate_primitive_bases(P.normal_set)
            bases = {frozenset(c.generators) for c in cones}
            for v in P.vertices:
                assert frozenset(tight_normals(P, v.point)) in bases
                assert v.mask in {c.mask for c in cones}

    @pytest.mark.parametrize("P", [box(3), hexagon(), simplex_product([2, 1]),
                                   randomize_offsets(simplex_product([2, 2]), 3)],
                             ids=["box3", "hexagon", "prism", "sp22-r3"])
    def test_cone_masks_name_their_generators(self, P):
        for c in enumerate_primitive_bases(P.normal_set) + normal_fan(P):
            assert masked(P, c.mask) == c.generators
        assert [c.mask for c in normal_fan(P)] == [v.mask for v in P.vertices]

    def test_direction_classes_lie_in_some_cone(self):
        for P in (hexagon(), box(3)):
            cones = enumerate_primitive_bases(P.normal_set)
            for cls in enumerate_direction_classes(P):
                assert any(cone_membership(cls.representative, c.generators)
                           is not None for c in cones)


def lp_primitive_bases(N):
    """The reference: independent n-subsets that LP finds primitive."""
    return tuple(FanCone(subset, bitmask(idx))
                 for idx in combinations(range(len(N.normals)), N.dim)
                 for subset in [tuple(N.normals[i] for i in idx)]
                 if rank(subset) == N.dim and lp_primitive(subset, N.normals))


def interiors_meet(v1, v2):
    """The reference: do two full-rank simplicial cones share a point
    interior to both? Solves sum((1+lam_i) x_i) == sum((1+theta_j) y_j)
    with lam, theta >= 0 by LP."""
    rhs = zero_vec(len(v1[0]))
    for y in v2:
        rhs = vadd(rhs, y)
    for x in v1:
        rhs = vsub(rhs, x)
    return cone_membership(rhs, v1 + tuple(vneg(y) for y in v2)) is not None


def no_pair_meets(cones):
    return not any(interiors_meet(a.generators, b.generators)
                   for a, b in combinations(cones, 2))


class TestPrimitiveBasesByCircuits:
    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets())
    def test_agrees_with_lp_enumeration(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assert enumerate_primitive_bases(N) == lp_primitive_bases(N)


class TestWallTest:
    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets())
    def test_agrees_with_pairwise_lp_on_random_sets(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        cones = enumerate_primitive_bases(N)
        assert is_complete_fan(N, cones) == no_pair_meets(cones)

    @pytest.mark.parametrize("P", [box(3), box(4), hexagon(), triangle(), simplex(3),
                                   simplex_product([2, 1])],
                             ids=["box3", "box4", "hexagon", "triangle", "simplex3",
                                  "prism"])
    def test_accepts_the_fans_of_monotypic_sets(self, P):
        cones = enumerate_primitive_bases(P.normal_set)
        assert is_complete_fan(P.normal_set, cones) and no_pair_meets(cones)

    def test_rejects_the_pyramid_bases(self):
        # four walls of the pyramid's eight primitive bases lie in three
        # cones each, and interiors overlap
        N = square_pyramid().normal_set
        cones = enumerate_primitive_bases(N)
        assert not is_complete_fan(N, cones) and not per_cone_complete_fan(N, cones)
        assert not no_pair_meets(cones)

    def test_rejects_a_fan_with_a_cone_removed(self):
        # the walls of the missing orthant now lie in one cone each
        N = box(3).normal_set
        cones = enumerate_primitive_bases(N)[1:]
        assert not is_complete_fan(N, cones) and not per_cone_complete_fan(N, cones)
        assert no_pair_meets(cones)

    def test_rejects_an_empty_fan(self):
        assert not is_complete_fan(box(2).normal_set, ())
        assert not per_cone_complete_fan(box(2).normal_set, ())

    def test_rejects_a_fan_that_covers_the_plane_twice(self):
        # the star d0 d2 d4 d1 d3 of five rays winds round the origin twice:
        # every wall lies in two cones on opposite sides, so only the point
        # test sees that the first cone's generator sum lies in another cone
        d = [vec(1, 0), vec(1, 3), vec(-3, 2), vec(-3, -2), vec(1, -3)]
        N = NormalSet(2, tuple(d))
        index = {m: i for i, m in enumerate(N.normals)}
        cones = [FanCone((d[a], d[b]), bitmask((index[d[a]], index[d[b]])))
                 for a, b in [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]]
        assert not is_complete_fan(N, cones) and not per_cone_complete_fan(N, cones)

    def test_rejects_two_fans_that_share_no_wall(self):
        # the fans over {e1, e2, -e1-e2} and over {-e1, -e2, e1+e2} cover
        # the plane once each: every wall lies in two cones on opposite
        # sides, but no crossing from the first cone reaches the second fan
        N = NormalSet.from_vectors(2, [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)])
        first, second = (plane_fan(N, [vec(*r) for r in rays])
                         for rays in ([(1, 0), (0, 1), (-1, -1)], [(-1, 0), (0, -1), (1, 1)]))
        assert is_complete_fan(N, first) and is_complete_fan(N, second)
        assert not is_complete_fan(N, first + second)
        assert not per_cone_complete_fan(N, first + second)

    def test_coverage_makes_no_elimination(self, monkeypatch):
        # the first cone's generator sum is carried across the walls by
        # their circuits: no `simplex_dependence`, no row reduction at all
        for P in (box(4), hexagon(), simplex_product([2, 2])):
            N = P.normal_set
            cones = enumerate_primitive_bases(N)
            reductions = []
            row_reduce = kernel._row_reduce
            monkeypatch.setattr(kernel, "_row_reduce",
                                lambda rows: reductions.append(rows) or row_reduce(rows))
            assert is_complete_fan(N, cones)
            monkeypatch.undo()
            assert reductions == []
        assert not hasattr(fan, "simplex_dependence")

    def test_coverage_makes_no_fraction(self, monkeypatch):
        # q's coefficients are carried as coprime ints from the circuits' ints
        N = box(5).normal_set
        cones = enumerate_primitive_bases(N)
        made = count_fractions(monkeypatch)
        assert is_complete_fan(N, cones)
        monkeypatch.undo()
        assert made == []


def plane_fan(N, rays):
    """The cones over consecutive rays, in the order given, of N in R^2."""
    index = {m: i for i, m in enumerate(N.normals)}
    return [FanCone((r, s), bitmask((index[r], index[s])))
            for r, s in zip(rays, rays[1:] + rays[:1])]


class TestAgainstThePerConeTest:
    @settings(max_examples=80, deadline=None)
    @given(integer_or_fractional_normal_sets(), st.integers(min_value=0))
    def test_the_primitive_bases(self, N, drop):
        # and the same bases with one cone dropped
        cones = enumerate_primitive_bases(N)
        assert is_complete_fan(N, cones) == per_cone_complete_fan(N, cones)
        fewer = cones[:drop % len(cones)] + cones[drop % len(cones) + 1:] if cones else ()
        assert is_complete_fan(N, fewer) == per_cone_complete_fan(N, fewer)

    @settings(max_examples=80, deadline=None)
    @given(valid_normal_sets(dims=(2, 3)), st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(box(2).normal_set.normals, 0)
    def test_shuffled_cone_sets(self, normals, seed):
        # the primitive bases, less some and with other bases added, in a
        # random order: walls in one or three cones, and a first cone anywhere
        N = NormalSet.from_vectors(len(normals[0]), normals)
        rnd = random.Random(seed)
        bases = [FanCone(tuple(N.normals[i] for i in idx), bitmask(idx))
                 for idx in combinations(range(len(N.normals)), N.dim)
                 if rank([N.normals[i] for i in idx]) == N.dim]
        primitive = set(enumerate_primitive_bases(N))
        cones = [c for c in bases if (c in primitive) != (rnd.random() < 0.2)]
        rnd.shuffle(cones)
        assert is_complete_fan(N, cones) == per_cone_complete_fan(N, cones)


class TestFanLpWork:
    @pytest.mark.parametrize("n", [4, 6])
    def test_verify_unique_runs_no_lp(self, monkeypatch, n):
        P = box(n)
        calls = count_lps(monkeypatch)
        for cached in (classify.circuit_table, classify.check_strong_monotypy,
                       classify.check_monotypy, fan.enumerate_primitive_bases):
            cached.cache_clear()
        assert verify_fan_uniqueness(P)
        assert len(enumerate_primitive_bases(P.normal_set)) == 2 ** n
        assert calls == []
