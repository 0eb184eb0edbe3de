import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from polyillum import oracle, position
from polyillum.errors import InputError, InternalInvariantError, ScaleLimitError
from polyillum.generators import randomize_offsets
from polyillum.illuminate import (build_illumination_set, compute_delta, compute_epsilon,
                                  verify_directions)
from polyillum.kernel import dot, vec, vscale
from polyillum.oracle import min_illumination_number
from polyillum.polytope import HPolytope, NormalSet
from tests import oracle_reference
from tests.conftest import (box, count_lps, counting_bland, fractional_polytopes, hexagon,
                            n_over_apex, simplex, simplex_product, square_pyramid, triangle,
                            valid_normal_sets)
from tests.oracle_reference import (cell_separators, cell_sign_vectors,
                                    enumerate_direction_classes, lifted_separator)
from tests.polytope_reference import tight_normals

F = Fraction


def lp_cells(normals):
    """Sign vectors whose open cell the lifted LP finds nonempty."""
    return {signs for signs in product((1, -1), repeat=len(normals))
            if lifted_separator([vscale(s, m) for s, m in zip(signs, normals)]) is not None}


def assert_lit_sets_match_definition(P):
    for c in enumerate_direction_classes(P):
        assert c.illuminated == tuple(
            i for i, v in enumerate(P.vertices)
            if all(dot(m, c.representative) > 0 for m in tight_normals(P, v.point)))


def assert_optimal_directions_illuminate(P):
    # checked by explicit interior displacement, apart from the oracle
    k, dirs = min_illumination_number(P)
    assert len(dirs) == k <= len(list(cell_sign_vectors(P.normal_set)))
    ok, _ = verify_directions(P, dirs, compute_epsilon(P, dirs, compute_delta(P)))
    assert ok


class TestDirectionClasses:
    def test_square_quadrants(self):
        P = simplex_product([1, 1])
        classes = enumerate_direction_classes(P)
        assert len(classes) == 4
        assert all(len(c.illuminated) == 1 for c in classes)

    def test_hexagon_six_cells(self):
        assert len(enumerate_direction_classes(hexagon())) == 6

    def test_cube_eight_cells(self):
        assert len(enumerate_direction_classes(box(3))) == 8

    def test_representatives_avoid_every_hyperplane(self):
        for P in (hexagon(), box(3), square_pyramid()):
            for c in enumerate_direction_classes(P):
                assert all(dot(m, c.representative) != 0
                           for m in P.normal_set.normals)

    def test_illuminated_sets_match_definition(self):
        assert_lit_sets_match_definition(triangle())

    @settings(max_examples=30, deadline=None)
    @given(valid_normal_sets(dims=(2, 3)), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_illuminated_sets_match_definition_at_random_offsets(self, normals, seed):
        # the lit sets are read off sign masks; the definition takes dot products
        try:
            P = HPolytope(NormalSet(len(normals[0]), normals), (F(1),) * len(normals))
        except InputError:
            assume(False)
        assert_lit_sets_match_definition(randomize_offsets(P, seed))

    def test_cell_closures_cover_every_direction(self):
        rnd = random.Random(7)
        for P in (hexagon(), box(3)):
            cones = [c.representative for c in enumerate_direction_classes(P)]
            classes = enumerate_direction_classes(P)
            for _ in range(20):
                d = vec(*(F(rnd.randint(-9, 9), rnd.randint(1, 4))
                          for _ in range(P.dim)))
                if all(x == 0 for x in d):
                    continue
                signs_ok = False
                for c in classes:
                    # d is in the closure of c's cell iff no normal separates
                    # them with strict opposite signs
                    if all(dot(m, d) * dot(m, c.representative) >= 0
                           for m in P.normal_set.normals):
                        signs_ok = True
                        break
                assert signs_ok


class TestMinimum:
    @pytest.mark.parametrize("P,expected", [
        (simplex_product([1, 1]), 4),
        (triangle(), 3),
        (box(3), 8),
        (hexagon(), 3),
        (simplex_product([2, 1]), 6),
    ], ids=["square", "triangle", "cube", "hexagon", "prism"])
    def test_known_values(self, P, expected):
        k, _ = min_illumination_number(P)
        assert k == expected

    def test_optimal_directions_actually_illuminate(self):
        for P in (hexagon(), box(3), triangle(), square_pyramid()):
            assert_optimal_directions_illuminate(P)

    @settings(max_examples=40, deadline=None)
    @given(fractional_polytopes())
    def test_optimal_directions_illuminate_random_polytopes(self, P):
        assert_optimal_directions_illuminate(P)

    def test_oracle_never_exceeds_construction(self):
        for P in (box(2), box(3), hexagon(), simplex(2), simplex(3),
                  simplex_product([2, 1])):
            k, _ = min_illumination_number(P)
            q = len(build_illumination_set(P).directions)
            assert k <= q <= 2 ** P.dim


class TestCircuitFilter:
    @pytest.mark.parametrize("P", [
        box(3), simplex(3), simplex(4), simplex_product([2, 1]),
        simplex_product([2, 2, 1]), hexagon(), square_pyramid(),
    ], ids=["box3", "simplex3", "simplex4", "sp21", "sp221", "hexagon", "pyramid"])
    def test_filter_keeps_exactly_the_lp_feasible_sign_vectors(self, P):
        assert set(cell_sign_vectors(P.normal_set)) == lp_cells(P.normal_set.normals)

    @settings(max_examples=40, deadline=None)
    @given(valid_normal_sets())
    def test_filter_matches_lp_on_random_normal_sets(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assert set(cell_sign_vectors(N)) == lp_cells(N.normals)

    def test_filter_keeps_product_order(self):
        N = hexagon().normal_set
        kept = list(cell_sign_vectors(N))
        order = list(product((1, -1), repeat=len(N.normals)))
        assert kept == sorted(kept, key=order.index)

    @pytest.mark.parametrize("P,cells", [(box(3), 8), (hexagon(), 6), (simplex(3), 14)],
                             ids=["box3", "hexagon", "simplex3"])
    def test_cells_pose_no_lp(self, monkeypatch, P, cells):
        # the cells share one tableau; no cell solves an LP of its own
        calls = count_lps(monkeypatch)
        assert len(enumerate_direction_classes(P)) == cells
        assert calls == [P.normal_set.normals]

    def test_empty_surviving_cell_is_an_internal_error(self, monkeypatch):
        # with no circuit to prune them, empty cells reach the LP, whose
        # phase one is then feasible
        monkeypatch.setattr(oracle, "circuit_table", lambda N: ())
        with pytest.raises(InternalInvariantError, match="agrees with no circuit"):
            enumerate_direction_classes(hexagon())

    def test_cell_guard_fires_before_circuit_or_lp_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work started before the cell guard")

        monkeypatch.setattr(oracle, "CELL_GUARD", 2 ** 5)
        monkeypatch.setattr(oracle, "circuit_table", forbidden)
        monkeypatch.setattr(position, "_phase_one", forbidden)
        monkeypatch.setattr(position, "_bland", forbidden)
        with pytest.raises(ScaleLimitError, match="cell guard"):
            min_illumination_number(box(3))


def signs_of(P, direction):
    return tuple(1 if dot(m, direction) > 0 else -1 for m in P.normal_set.normals)


def searched_cells(P):
    """(signs, representative) of every cell the oracle finds, in order."""
    return [(signs_of(P, c.representative), c.representative)
            for c in enumerate_direction_classes(P)]


def prefix_count(sign_vectors):
    """The number of distinct nonempty prefixes of the sign vectors."""
    return len({s[:k] for s in sign_vectors for k in range(1, len(s) + 1)})


class TestPrefixSearch:
    """The search gives the reference's cells, in its order, each with the
    reference's `lifted_separator` as its representative."""

    @pytest.mark.parametrize("P", [square_pyramid(), n_over_apex(), hexagon(), box(3),
                                   simplex_product([2, 2, 1])],
                             ids=["pyramid", "n_apex", "hexagon", "box3", "sp221"])
    def test_matches_the_scan_on_fixed_sets(self, P):
        assert searched_cells(P) == cell_separators(P.normal_set)

    @settings(max_examples=60, deadline=None)
    @given(fractional_polytopes())
    def test_matches_the_scan_on_random_fractional_normals(self, P):
        assert searched_cells(P) == cell_separators(P.normal_set)

    @pytest.mark.parametrize("P", [hexagon(), square_pyramid(), simplex(3), box(3)],
                             ids=["hexagon", "pyramid", "simplex3", "box3"])
    def test_pivots_once_per_prefix_of_a_cell(self, monkeypatch, P):
        # every prefix the search keeps extends to a cell, so it pivots on
        # exactly the prefixes of the cells
        calls = counting_bland(monkeypatch)
        enumerate_direction_classes(P)
        assert len(calls) == prefix_count(cell_sign_vectors(P.normal_set))

    def test_a_wrong_certificate_fails_its_check(self, monkeypatch):
        # without pivots every cell keeps the start basis, whose multipliers
        # are no Farkas certificate
        monkeypatch.setattr(position, "_bland", lambda M, D, basis, columns: (M, D, basis))
        with pytest.raises(InternalInvariantError, match="Farkas certificate fails its check"):
            enumerate_direction_classes(hexagon())


class TestCoverCertification:
    """The minimum decides its cells by circuits and runs the shared-tableau
    LP only down the prefixes of the cover it prints."""

    @pytest.mark.parametrize("P", [hexagon(), square_pyramid(), n_over_apex(),
                                   simplex_product([2, 2, 1]), simplex(5)],
                             ids=["hexagon", "pyramid", "n_apex", "sp221", "simplex5"])
    def test_matches_the_reference_on_fixed_sets(self, P):
        assert min_illumination_number(P) == oracle_reference.min_illumination_number(P)

    @settings(max_examples=60, deadline=None)
    @given(fractional_polytopes())
    def test_matches_the_reference_on_random_fractional_normals(self, P):
        assert min_illumination_number(P) == oracle_reference.min_illumination_number(P)

    @pytest.mark.parametrize("P,pivots", [
        (hexagon(), 17), (simplex(3), 13), (box(3), 38), (square_pyramid(), 21),
        (simplex(5), 26), (simplex_product([3, 3]), 77),
    ], ids=["hexagon", "simplex3", "box3", "pyramid", "simplex5", "sp33"])
    def test_pivots_once_per_prefix_of_a_chosen_cell(self, monkeypatch, P, pivots):
        calls = counting_bland(monkeypatch)
        _, dirs = min_illumination_number(P)
        assert len(calls) == prefix_count(signs_of(P, d) for d in dirs) == pivots

    def test_empty_chosen_cell_is_an_internal_error(self, monkeypatch):
        # with no circuit to prune them, every sign vector is taken for a
        # cell, and the all +1 one, which lights every vertex, is a cover of
        # one; its cell is empty
        monkeypatch.setattr(oracle, "circuit_table", lambda N: ())
        with pytest.raises(InternalInvariantError, match="agrees with no circuit"):
            min_illumination_number(hexagon())

    def test_a_wrong_certificate_of_a_chosen_cell_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(position, "_bland", lambda M, D, basis, columns: (M, D, basis))
        with pytest.raises(InternalInvariantError, match="Farkas certificate fails its check"):
            min_illumination_number(hexagon())
