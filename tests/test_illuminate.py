import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyillum import classify, illuminate, kernel, lp, position, skeleton
from polyillum.classify import check_strong_monotypy
from polyillum.errors import (AssignmentError, InputError, InternalInvariantError,
                              NotStronglyMonotypicError)
from polyillum.generators import generate, randomize_offsets
from polyillum.illuminate import (IlluminationSet, build_illumination_set,
                                  compute_delta, compute_epsilon, verify_directions,
                                  verify_illumination)
from polyillum.kernel import dot, vadd, vec, vscale
from polyillum.lp import solve_eq_nonneg
from polyillum.polytope import HPolytope, NormalSet
from polyillum.skeleton import extract_skeleton
from tests.conftest import (box, hexagon, simplex, simplex_product, square_pyramid,
                            triangle, valid_normal_sets)
from tests.illuminate_reference import (cone_directions, cone_selections,
                                        fraction_allowed_drops, lp_assignment,
                                        per_vertex_build)
from tests.polytope_reference import (BOUNDARY, INTERIOR, location, masked, tight_normals,
                                      vneg, vsub)

F = Fraction


class TestConeSelections:
    def test_cube_gives_all_sign_choices(self):
        sk = extract_skeleton(box(3).normal_set)
        sels = cone_selections(sk)
        assert len(sels) == 8
        expected = {
            frozenset({vec(sx, 0, 0), vec(0, sy, 0), vec(0, 0, sz)})
            for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)}
        assert {frozenset(s) for s in sels} == expected

    def test_hexagon_three_pairs(self):
        sk = extract_skeleton(hexagon().normal_set)
        sels = cone_selections(sk)
        assert {frozenset(s) for s in sels} == {
            frozenset({vec(0, 1), vec(-1, -1)}),
            frozenset({vec(1, 0), vec(-1, -1)}),
            frozenset({vec(1, 0), vec(0, 1)}),
        }

    def test_prism_six_triples(self):
        sk = extract_skeleton(simplex_product([2, 1]).normal_set)
        sels = cone_selections(sk)
        assert len(sels) == 6
        assert all(len(s) == 3 for s in sels)


class TestDeltaEpsilon:
    def test_cube_delta(self):
        assert compute_delta(box(3)) == 1

    def test_hexagon_delta(self):
        assert compute_delta(hexagon()) == F(1, 2)

    def test_triangle_delta(self):
        assert compute_delta(triangle()) == F(3, 2)

    def test_cube_epsilon(self):
        P = box(3)
        dirs = build_illumination_set(P).directions
        assert compute_epsilon(P, dirs, F(1)) == 1

    def test_hexagon_epsilon(self):
        assert compute_epsilon(hexagon(),
                               [vec(1, 1), vec(-2, 1), vec(1, -2)],
                               F(1, 2)) == F(1, 4)

    def test_degenerate_branch_returns_delta(self):
        # all products nonnegative: epsilon falls back to delta
        assert compute_epsilon(hexagon(), [], F(1, 2)) == F(1, 2)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(InputError):
            compute_epsilon(hexagon(), [vec(1, 1)], F(0))


class TestBuild:
    def test_cube_sign_vector_directions_and_assignment(self):
        P = box(3)
        ill = build_illumination_set(P)
        assert len(ill.directions) == 8
        assert ill.epsilon == 1 and ill.delta == 1
        signs = {(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)}
        assert {tuple(int(c) for c in v) for v in ill.directions} == signs
        for vert, j in zip(P.vertices, ill.assignment):
            assert ill.directions[j] == vert.point

    def test_simplex_uses_fewer_than_two_to_the_n(self):
        ill = build_illumination_set(simplex(3))
        assert len(ill.directions) == 4 < 8

    def test_hexagon_three_directions(self):
        ill = build_illumination_set(hexagon())
        assert set(ill.directions) == {vec(1, 1), vec(-2, 1), vec(1, -2)}
        assert set(ill.scaled) == {vscale(F(1, 4), v) for v in ill.directions}

    def test_generators_pair_to_one_exactly(self):
        for P in (box(3), hexagon(), simplex_product([2, 1])):
            selections = cone_selections(extract_skeleton(P.normal_set))
            directions = build_illumination_set(P).directions
            assert len(directions) == len(selections)
            for gens, v in zip(selections, directions):
                assert all(dot(g, v) == 1 for g in gens)

    def test_non_strongly_monotypic_rejected(self):
        with pytest.raises(NotStronglyMonotypicError):
            build_illumination_set(square_pyramid())

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(), st.sampled_from([1, 2, 3]))
    def test_directions_equal_one_inverse_per_cone(self, normals, seed):
        # v is unique, so building it part by part from one inverse of the
        # skeleton basis must give the reference's direction exactly
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assume(check_strong_monotypy(N)[0])
        try:
            P = randomize_offsets(HPolytope(N, (F(1),) * len(normals)), seed)
        except InputError:
            assume(False)
        assert build_illumination_set(P).directions == cone_directions(extract_skeleton(N))

    @staticmethod
    def count_row_reductions(monkeypatch):
        """Per row reduction, the names of the functions on the stack."""
        calls = []
        row_reduce = kernel._row_reduce

        def counting(matrix):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            calls.append(names)
            return row_reduce(matrix)

        monkeypatch.setattr(kernel, "_row_reduce", counting)
        return calls

    @pytest.mark.parametrize("n, reductions, cones", [(6, 8, 64), (10, 12, 1024)])
    def test_one_inverse_per_build(self, monkeypatch, n, reductions, cones):
        # with the strong monotypy verdict cached, the skeleton starts from
        # the normal set's first basis, which costs no reduction, makes one
        # pass that reads every sign off one inverse, and its re-check (n
        # part dependences and one rank); the build reuses that inverse and
        # row-reduces nothing of its own
        P = box(n)
        build_illumination_set(P)
        calls = self.count_row_reductions(monkeypatch)
        ill = build_illumination_set(P)
        assert len(ill.directions) == cones
        assert len(calls) == reductions
        assert all("extract_skeleton" in names for names in calls)
        assert [names[:2] for names in calls if "inverse" in names] == [
            ["inverse", "refine_basis"]]

    def test_epsilon_takes_the_builds_own_integer_directions(self, monkeypatch):
        # a cached box6 build scales its 12 normals for the refinement to
        # ints, reads its 12 part generators' ints off the polytope's rows,
        # and scales none of its 64 directions
        P = box(6)
        build_illumination_set(P)
        calls = count_integers(monkeypatch)
        ill = build_illumination_set(P)
        assert len(calls) == 12
        assert ill.epsilon == compute_epsilon(P, ill.directions, ill.delta)

    def test_a_cached_box6_build_hashes_no_fraction(self, monkeypatch):
        # the directions' Fractions are keyed on ints, and the skeleton's
        # parts are told apart by their elements' indices among the normals
        P = box(6)
        build_illumination_set(P)
        callers = []
        fraction_hash = Fraction.__hash__

        def counting(x):
            callers.append(sys._getframe(1).f_code.co_qualname)
            return fraction_hash(x)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        build_illumination_set(P)
        monkeypatch.undo()
        assert callers == []

    def test_a_cold_simplex40_build_compares_one_fraction_per_part_element(self, monkeypatch):
        # normals are told apart by index: the only Fraction comparisons
        # left are the re-check's, of the part dependence's 41 coefficients
        # with 0 (21,481 when the skeleton found its normals by value)
        P = generate("simplex", (40,))
        for cached in (classify.circuit_table, classify.check_strong_monotypy):
            cached.cache_clear()
        calls = []
        fraction_eq = Fraction.__eq__

        def counting(x, y):
            calls.append(sys._getframe(1).f_code.co_qualname)
            return fraction_eq(x, y)

        monkeypatch.setattr(Fraction, "__eq__", counting)
        ill = build_illumination_set(P)
        monkeypatch.undo()
        assert len(ill.directions) == 41
        assert calls == ["verify_skeleton.<locals>.<genexpr>"] * 41

    def test_one_fraction_per_distinct_direction_entry(self):
        # box6's 64 directions have 384 entries of two values, +-1; their
        # steps are epsilon times those
        ill = build_illumination_set(box(6))
        entries = [x for v in ill.directions for x in v]
        assert len(entries) == 384 and len({id(x) for x in entries}) == 2
        assert len({id(x) for v in ill.scaled for x in v}) == 2


class TestPerVertexReference:
    @pytest.mark.parametrize("P", [
        box(3), box(4), box(5), box(6), simplex(3), simplex(4), simplex(5),
        simplex_product([2, 2, 1]), hexagon(),
    ], ids=["box3", "box4", "box5", "box6", "simplex3", "simplex4", "simplex5", "sp221",
            "hexagon"])
    def test_agrees_with_the_per_vertex_build(self, P):
        assert build_illumination_set(P) == per_vertex_build(P)

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(), st.sampled_from([None, 1, 2, 3]))
    def test_agrees_with_the_per_vertex_build_on_random_sets(self, normals, seed):
        # assignment, directions, scaled, delta and epsilon all at once
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assume(check_strong_monotypy(N)[0])
        try:
            P = HPolytope(N, (F(1),) * len(normals))
        except InputError:
            assume(False)
        if seed is not None:
            P = randomize_offsets(P, seed)
        assert build_illumination_set(P) == per_vertex_build(P)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), min_size=2, max_size=5))
    def test_int_ratios_pick_the_fraction_minima(self, pairs):
        a, c = [list(t) for t in zip(*pairs)]
        assert illuminate._allowed_drops([[a]], [c]) == fraction_allowed_drops([[a]], [c])

    def test_a_nonpositive_dependence_coefficient_is_an_internal_error(self):
        # a_x c_y < a_y c_x orders the ratios only when c is positive
        with pytest.raises(InternalInvariantError, match="nonpositive coefficient"):
            illuminate._allowed_drops([[[0, 0]]], [[1, -1]])


class TestAssignment:
    @pytest.mark.parametrize("P", [
        box(3), box(4), simplex(3), simplex(5), simplex_product([2, 2]),
        simplex_product([2, 2, 1]), hexagon(), randomize_offsets(box(3), 7),
        randomize_offsets(simplex_product([2, 1]), 3),
    ], ids=["box3", "box4", "simplex3", "simplex5", "sp22", "sp221", "hexagon",
            "box3-r7", "sp21-r3"])
    def test_agrees_with_lp_scan(self, P):
        assert build_illumination_set(P).assignment == lp_assignment(P)

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(), st.sampled_from([None, 1, 2, 3]))
    def test_agrees_with_lp_scan_on_random_sets(self, normals, seed):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assume(check_strong_monotypy(N)[0])
        try:
            P = HPolytope(N, (F(1),) * len(normals))
        except InputError:
            assume(False)
        if seed is not None:
            P = randomize_offsets(P, seed)
        assert build_illumination_set(P).assignment == lp_assignment(P)

    def test_runs_no_assignment_lp(self, monkeypatch):
        P = box(4)
        build_illumination_set(P)
        calls = []

        def counting(rows, rhs):
            calls.append(rows)
            return solve_eq_nonneg(rows, rhs)

        monkeypatch.setattr(lp, "solve_eq_nonneg", counting)
        monkeypatch.setattr(position, "solve_eq_nonneg", counting)
        build_illumination_set(P)
        # refine_basis counts captured normals off its basis inverse, and
        # the assignment reads cones off the skeleton basis
        assert len(calls) == 0

    def test_empty_part_intersection_is_an_assignment_error(self, monkeypatch):
        sk = extract_skeleton(box(3).normal_set)
        nowhere = (0,) * len(sk.parts)
        monkeypatch.setattr(illuminate, "_allowed_drops",
                            lambda expansions, dependences: [nowhere] * len(expansions))
        with pytest.raises(AssignmentError, match="covering claim"):
            build_illumination_set(box(3))

    def test_cone_that_fails_its_recheck_is_an_internal_error(self, monkeypatch):
        # each box part is {e_i, -e_i}: the opposite drop is the opposite
        # orthant, which the re-check, reading no drop off the producer, refuses
        allowed_drops = illuminate._allowed_drops

        def opposite(expansions, dependences):
            # drop d becomes drop 1 - d: bits 0 and 1 of each mask swap
            return [tuple((drops & 1) << 1 | drops >> 1 for drops in per_normal)
                    for per_normal in allowed_drops(expansions, dependences)]

        monkeypatch.setattr(illuminate, "_allowed_drops", opposite)
        with pytest.raises(InternalInvariantError, match="does not contain"):
            build_illumination_set(box(3))

    def test_an_allowed_drop_no_vertex_picks_is_rechecked(self, monkeypatch):
        # a normal allowing only drop 0 of a part now allows drop 1 too;
        # each vertex still takes the lowest allowed drop, so only a re-check
        # of every allowed drop, not of the chosen ones, finds it
        allowed_drops = illuminate._allowed_drops

        def widened(expansions, dependences):
            return [tuple(drops | 2 if drops == 1 else drops for drops in per_normal)
                    for per_normal in allowed_drops(expansions, dependences)]

        monkeypatch.setattr(illuminate, "_allowed_drops", widened)
        with pytest.raises(InternalInvariantError,
                           match=r"drops element 1 of part \d does not contain the normal"):
            build_illumination_set(box(3))

    @pytest.mark.parametrize("n, rechecks", [(6, 132), (10, 380)])
    def test_one_recheck_per_allowed_drop(self, monkeypatch, n, rechecks):
        # each of the 2n normals +-e_i allows one drop of its own part and
        # both drops of the n - 1 others: 2n (2(n - 1) + 1) re-checks, where
        # a re-check per vertex made 2^n n n steps
        calls = []
        contains = illuminate._contains

        def counting(a, c, d):
            calls.append(d)
            return contains(a, c, d)

        monkeypatch.setattr(illuminate, "_contains", counting)
        build_illumination_set(box(n))
        assert len(calls) == rechecks

    @pytest.mark.parametrize("n", [3, 6])
    def test_a_box_part_is_narrowed_by_its_own_pair(self, monkeypatch, n):
        # +-e_l's part is {e_l, -e_l}; every other normal allows both drops
        allowed_drops = illuminate._allowed_drops
        seen = []

        def keeping(*args):
            seen.append(allowed_drops(*args))
            return seen[-1]

        monkeypatch.setattr(illuminate, "_allowed_drops", keeping)
        P = box(n)
        build_illumination_set(P)
        normals = P.normal_set.normals
        (allowed,) = seen
        assert len(allowed) == 2 * n and all(len(per_normal) == n for per_normal in allowed)
        for l in range(n):
            narrowing = [i for i, per_normal in enumerate(allowed) if per_normal[l] != 0b11]
            assert len(narrowing) == 2
            (x, y) = (normals[i] for i in narrowing)
            assert x == vneg(y)

    @pytest.mark.parametrize("P", [box(3), hexagon(), simplex_product([2, 2, 1])],
                             ids=["box3", "hexagon", "sp221"])
    def test_a_corrupted_share_fails_to_pair_to_one(self, monkeypatch, P):
        shares = illuminate._shares

        def corrupted(*args):
            per_part, K = shares(*args)
            per_part[-1][0][0] += 1
            return per_part, K

        monkeypatch.setattr(illuminate, "_shares", corrupted)
        with pytest.raises(InternalInvariantError, match="does not pair to 1 exactly"):
            build_illumination_set(P)


def reference_choice(P, x, directions, epsilon):
    """The direction `verify_directions` assigns to vertex x, by the
    reference geometry: the first passing both checks, else the first
    passing the directional one, else None."""
    lit = [j for j, v in enumerate(directions)
           if all(dot(m, v) > 0 for m in tight_normals(P, x))]
    return next((j for j in lit if location(P, vsub(x, vscale(epsilon, directions[j])))
                 == INTERIOR), lit[0] if lit else None)


def count_integers(monkeypatch):
    """Patch `_integers` in `illuminate` and `skeleton`; the returned list
    collects one entry per call."""
    calls = []
    integers = kernel._integers

    def counting(v, n=None):
        calls.append(v)
        return integers(v, n)

    monkeypatch.setattr(illuminate, "_integers", counting)
    monkeypatch.setattr(skeleton, "_integers", counting)
    return calls


class TestVerification:
    @pytest.mark.parametrize("P", [box(2), box(3), hexagon(), triangle(),
                                   simplex(3), simplex_product([2, 1])],
                             ids=["box2", "box3", "hexagon", "triangle",
                                  "simplex3", "prism"])
    def test_built_sets_pass_both_checks(self, P):
        ill = build_illumination_set(P)
        ok, reports = verify_illumination(P, ill)
        assert ok
        assert all(r.directional_ok and r.interior_ok for r in reports)

    def test_cube_origin_case(self):
        P = box(3)
        ill = build_illumination_set(P)
        i = [v.point for v in P.vertices].index(vec(1, 1, 1))
        j = ill.assignment[i]
        moved = vsub(vec(1, 1, 1), vscale(ill.epsilon, ill.directions[j]))
        assert moved == vec(0, 0, 0)
        assert location(P, moved) == INTERIOR

    def test_negative_control(self):
        P = box(3)
        ill = build_illumination_set(P)
        i = [v.point for v in P.vertices].index(vec(1, 1, 1))
        j = ill.assignment[i]
        # drop the direction for (1,1,1) and reassign the vertex arbitrarily
        directions = tuple(v for k, v in enumerate(ill.directions) if k != j)
        reindex = [k if k < j else k - 1 for k in ill.assignment]
        reindex[i] = 0
        broken = IlluminationSet(directions, ill.epsilon,
                                 tuple(vscale(ill.epsilon, v) for v in directions),
                                 tuple(reindex), ill.delta)
        ok, reports = verify_illumination(P, broken)
        assert not ok
        assert not reports[i].ok

    def test_edge_midpoints_and_facet_centroids(self):
        # boundary coverage beyond vertices: tight sets of midpoints and
        # centroids are contained in vertex tight sets, so the assigned
        # vertex direction must also illuminate them
        for P in (hexagon(), box(3), simplex(3)):
            ill = build_illumination_set(P)
            points = []
            verts = [v.point for v in P.vertices]
            for a in range(len(verts)):
                for b in range(a + 1, len(verts)):
                    mid = vscale(F(1, 2), vadd(verts[a], verts[b]))
                    if location(P, mid) == BOUNDARY:
                        points.append(mid)
            for m, h in zip(P.normal_set.normals, P.offsets):
                tight_pts = [v for v in verts if dot(m, v) == h]
                c = vscale(F(1, len(tight_pts)),
                           tuple(sum(p[i] for p in tight_pts)
                                 for i in range(P.dim)))
                points.append(c)
            for x in points:
                tight = tight_normals(P, x)
                v = next(v for v in ill.directions
                         if all(dot(m, v) > 0 for m in tight))
                # the direction illuminates x; the step size is adapted to
                # x's own slacks (the global epsilon is calibrated at the
                # vertices, where slacks are smallest per facet)
                steps = [(h - dot(m, x)) / (-2 * dot(m, v))
                         for m, h in zip(P.normal_set.normals, P.offsets)
                         if dot(m, v) < 0 and h - dot(m, x) > 0]
                eps = min([ill.epsilon] + steps)
                assert eps > 0
                assert location(P, vsub(x, vscale(eps, v))) == INTERIOR

    def test_verify_directions_external(self):
        P = hexagon()
        ok, _ = verify_directions(P, [vec(1, 1), vec(-2, 1), vec(1, -2)], F(1, 4))
        assert ok
        ok, reports = verify_directions(P, [vec(1, 1)], F(1, 4))
        assert not ok
        assert any(r.direction_index is None for r in reports)

    def test_verify_directions_rejects_a_direction_of_the_wrong_dimension(self):
        # the first three light every vertex, so the fourth is never chosen
        with pytest.raises(InputError, match="dimension mismatch: 2 vs 3"):
            verify_directions(hexagon(), [vec(1, 1), vec(-2, 1), vec(1, -2), vec(1, 2, 3)],
                              F(1, 4))

    @pytest.mark.parametrize("P", [
        box(4), hexagon(), square_pyramid(), randomize_offsets(simplex_product([2, 1]), 3),
    ], ids=["box4", "hexagon", "pyramid", "sp21-r3"])
    def test_verify_directions_picks_the_first_illuminating_direction(self, P):
        # the vertices and their negatives in a shuffled order, half of them
        # dropped, so some vertices are lit by several directions and some
        # by none; each vertex takes the first direction passing both
        # checks, else the first passing the directional one, else none
        points = [v.point for v in P.vertices]
        directions = points + [vneg(p) for p in points]
        rnd = random.Random(len(points))
        rnd.shuffle(directions)
        directions = directions[:len(points)]
        _, reports = verify_directions(P, directions, F(1, 4))
        expected = [reference_choice(P, vert.point, directions, F(1, 4))
                    for vert in P.vertices]
        assert [r.direction_index for r in reports] == expected
        assert None in expected and len(set(expected)) > 2

    @pytest.mark.parametrize("first", [0, 1])
    def test_verify_directions_does_not_depend_on_the_order(self, first):
        # (10, 1) lights (1, 1) but leaves the square at epsilon 1/2;
        # (1, 1) passes both checks there, listed first or not
        directions = [vec(10, 1), vec(1, 1), vec(-1, -1), vec(1, -1), vec(-1, 1)]
        if first:
            directions[:2] = directions[1::-1]
        P = box(2)
        ok, reports = verify_directions(P, directions, F(1, 2))
        assert ok
        i = [v.point for v in P.vertices].index(vec(1, 1))
        assert reports[i] == (vec(1, 1), 1 - first, True, True)

    def test_verify_directions_reports_a_direction_that_fails_inside(self):
        # no direction passes both checks at (1, 1): the first one lighting
        # it is reported, failing the interior check
        P = box(2)
        directions = [vec(-1, -1), vec(10, 1), vec(1, 10), vec(1, -1), vec(-1, 1)]
        ok, reports = verify_directions(P, directions, F(1, 2))
        assert not ok
        i = [v.point for v in P.vertices].index(vec(1, 1))
        assert reports[i] == (vec(1, 1), 1, True, False)

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(dims=(2, 3)), st.data())
    def test_shuffling_the_directions_keeps_the_verdict(self, normals, data):
        try:
            P = HPolytope(NormalSet(len(normals[0]), normals), (F(1),) * len(normals))
        except InputError:
            assume(False)
        n = P.dim
        directions = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(
            lambda v: vec(*v)), min_size=1, max_size=8))
        epsilon = data.draw(st.fractions(min_value=F(1, 8), max_value=2).filter(bool))
        shuffled = data.draw(st.permutations(directions))
        ok, reports = verify_directions(P, directions, epsilon)
        assert verify_directions(P, shuffled, epsilon)[0] == ok
        assert [r.direction_index for r in reports] == [
            reference_choice(P, v.point, directions, epsilon) for v in P.vertices]

    def test_verify_directions_scales_each_direction_once(self, monkeypatch):
        # the vertices' ints are read off the polytope's vertex table
        P = box(7)
        calls = count_integers(monkeypatch)
        ok, _ = verify_directions(P, [v.point for v in P.vertices], F(1, 4))
        assert ok
        assert len(calls) == 128

    def test_delta_postcondition_at_every_vertex(self):
        for P in (box(3), hexagon(), triangle()):
            delta = compute_delta(P)
            for v in P.vertices:
                assert tight_normals(P, v.point, delta) == masked(P, v.mask)
