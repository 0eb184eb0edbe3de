"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a passing run (pytest shows captured output automatically when a
criterion fails).
"""
import functools
import random
from fractions import Fraction

from polyillum.classify import (check_monotypy, check_monotypy_mss,
                                check_strong_monotypy)
from polyillum.errors import NotStronglyMonotypicError
from polyillum.fan import verify_fan_uniqueness
from polyillum.generators import randomize_offsets
from polyillum.illuminate import (build_illumination_set, compute_delta,
                                  compute_epsilon, verify_illumination)
from polyillum.kernel import dot, vec, vscale
from polyillum.oracle import min_illumination_number
from polyillum.position import is_conical_position
from polyillum.skeleton import extract_skeleton
from tests.conftest import (box, hexagon, simplex, simplex_product,
                            square_pyramid, triangle)
from tests.illuminate_reference import cone_selections
from tests.polytope_reference import INTERIOR, location, masked, tight_normals, vsub
from tests.test_position import equivalence_case, random_basis_and_point

F = Fraction

RANDOMIZATION_SEEDS = range(1, 21)


def criterion(num):
    """Print exactly one ``criterion N: PASS|FAIL`` line per test."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL")
                raise
            print(f"criterion {num}: PASS")
        return wrapper
    return decorate


def generated_instances():
    return [box(2), box(3), box(4),
            simplex(2), simplex(3), simplex(4),
            simplex_product([2, 1]), simplex_product([1, 1]),
            hexagon(), triangle(), square_pyramid()]


@criterion(1)
def test_criterion_1_cube_family_hadwiger_bound():
    for n in (2, 3, 4):
        P = box(n)
        strong, _ = check_strong_monotypy(P.normal_set)
        assert strong
        sk = extract_skeleton(P.normal_set)
        assert len(sk.parts) == n
        assert all(len(part) == 2 for part in sk.parts)
        ill = build_illumination_set(P)
        assert len(ill.directions) == sk.product_of_part_sizes == 2 ** n
        ok, reports = verify_illumination(P, ill)
        assert ok and all(r.directional_ok and r.interior_ok for r in reports)
        minimum, _ = min_illumination_number(P)
        assert minimum == 2 ** n


@criterion(2)
def test_criterion_2_simplex_family():
    for n in (2, 3, 4):
        P = simplex(n)
        sk = extract_skeleton(P.normal_set)
        assert len(sk.parts) == 1
        ill = build_illumination_set(P)
        assert len(ill.directions) == n + 1 <= 2 ** n
        ok, _ = verify_illumination(P, ill)
        assert ok
        if n in (2, 3):
            minimum, _ = min_illumination_number(P)
            assert minimum == n + 1


@criterion(3)
def test_criterion_3_simplex_products_and_hexagon():
    for P, q in ((simplex_product([2, 1]), 6),
                 (simplex_product([1, 1]), 4),
                 (hexagon(), 3)):
        ill = build_illumination_set(P)
        assert len(ill.directions) == q <= 2 ** P.dim
        ok, _ = verify_illumination(P, ill)
        assert ok
        minimum, _ = min_illumination_number(P)
        assert minimum == q


@criterion(4)
def test_criterion_4_square_pyramid_negative_control():
    P = square_pyramid()
    N = P.normal_set
    expected_cert = {vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)}
    for check in (check_strong_monotypy, check_monotypy, check_monotypy_mss):
        verdict, _ = check(N)
        assert verdict is False
    _, cert = check_strong_monotypy(N)
    assert set(cert) == expected_cert
    assert is_conical_position(list(cert))
    for build in (extract_skeleton, lambda n: build_illumination_set(P)):
        try:
            build(N)
        except NotStronglyMonotypicError:
            pass
        else:
            raise AssertionError("expected NotStronglyMonotypicError")


@criterion(5)
def test_criterion_5_characterization_agreement():
    for P in generated_instances():
        variants = [P] + [randomize_offsets(P, s) for s in RANDOMIZATION_SEEDS]
        for Q in variants:
            mono, _ = check_monotypy(Q.normal_set)
            mss, _ = check_monotypy_mss(Q.normal_set)
            strong, _ = check_strong_monotypy(Q.normal_set)
            assert mono == mss
            if strong:
                assert mono


@criterion(6)
def test_criterion_6_fan_uniqueness_offset_independence():
    for P in generated_instances():
        mono, _ = check_monotypy(P.normal_set)
        if not mono:
            continue
        for Q in [P] + [randomize_offsets(P, s) for s in RANDOMIZATION_SEEDS]:
            assert verify_fan_uniqueness(Q)


@criterion(7)
def test_criterion_7_construction_exactness():
    for P in generated_instances():
        strong, _ = check_strong_monotypy(P.normal_set)
        if not strong:
            continue
        ill = build_illumination_set(P)
        selections = cone_selections(extract_skeleton(P.normal_set))
        assert len(selections) == len(ill.directions)
        for j, gens in enumerate(selections):
            assert all(dot(g, ill.directions[j]) == 1 for g in gens)
        delta = compute_delta(P)
        for vert in P.vertices:
            assert tight_normals(P, vert.point, delta) == masked(P, vert.mask)
        assert ill.delta == delta
        assert ill.epsilon == compute_epsilon(P, list(ill.directions), delta)
        for vert, j in zip(P.vertices, ill.assignment):
            moved = vsub(vert.point, vscale(ill.epsilon, ill.directions[j]))
            assert location(P, moved) == INTERIOR


@criterion(8)
def test_criterion_8_sign_classification_equivalence():
    rnd = random.Random(20260825)
    count = 0
    for n in (2, 3, 4):
        for _ in range(34 if n == 2 else 33):
            basis, x = random_basis_and_point(rnd, n)
            equivalence_case(basis, x)
            count += 1
    assert count == 100


@criterion(9)
def test_criterion_9_frozen_worked_numbers():
    hex_ill = build_illumination_set(hexagon())
    assert hex_ill.delta == F(1, 2)
    assert hex_ill.epsilon == F(1, 4)
    assert set(hex_ill.directions) == {vec(1, 1), vec(-2, 1), vec(1, -2)}
    cube_ill = build_illumination_set(box(3))
    assert cube_ill.delta == 1
    assert cube_ill.epsilon == 1
    assert compute_delta(triangle()) == F(3, 2)
