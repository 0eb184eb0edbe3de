import json
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyillum import classify, lp, oracle, position
from polyillum.classify import (NORMAL_SET_CACHE_SIZE, avoiding, bitmask, capture_index,
                                capture_patterns, captures, check_monotypy, check_monotypy_mss,
                                check_strong_monotypy, circuit_table,
                                circuits_inside, classify_normal_set)
from polyillum.errors import InternalInvariantError, ScaleLimitError
from polyillum.fan import enumerate_primitive_bases
from polyillum.kernel import rank, vec, vscale
from polyillum.lp import solve_eq_nonneg
from polyillum.polytope import NormalSet
from polyillum.position import (captured, cone_membership, is_conical_position,
                                is_primitive)
from tests import classify_reference, fan_reference, oracle_reference
from tests import position_reference as reference
from tests.conftest import (box, count_fractions, count_lps, fractional_polytopes, hexagon,
                            integer_or_fractional_normal_sets, set_n, sign_vectors_26,
                            simplex, simplex_product, square_pyramid, valid_normal_sets)

F = Fraction

GOLDEN = Path(__file__).parent / "golden"
PYRAMID_CERT = {vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)}


def hexagon_normals():
    return NormalSet.from_vectors(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)])


def clear_caches():
    for cached in (circuit_table, check_strong_monotypy, check_monotypy,
                   check_monotypy_mss):
        cached.cache_clear()


class TestValidation:
    def test_guard_refuses_huge_instances(self):
        # 60 spanning normals in the plane: C(60, 3) is small, so build a
        # fake high-count instance by checking the guard arithmetic directly
        from polyillum.classify import MAX_SUBSET_COUNT, _guard
        big = NormalSet.from_vectors(
            2, [(k, 1) for k in range(-40, 41)] + [(0, -1)])
        from math import comb
        if comb(len(big.normals), 3) > MAX_SUBSET_COUNT:
            with pytest.raises(ScaleLimitError):
                _guard(big)
        else:
            _guard(big)


class TestStrongMonotypy:
    def test_cube_true(self):
        ok, cert = check_strong_monotypy(box(3).normal_set)
        assert ok and cert is None

    def test_pyramid_false_with_certificate(self):
        ok, cert = check_strong_monotypy(square_pyramid().normal_set)
        assert not ok
        assert set(cert) == PYRAMID_CERT
        assert is_conical_position(cert)

    def test_hexagon_true(self):
        ok, _ = check_strong_monotypy(hexagon_normals())
        assert ok


def lp_strong_monotypy(N):
    """The reference: the first (n+1)-subset in conical position, by LP."""
    for subset in combinations(N.normals, N.dim + 1):
        if is_conical_position(subset):
            return False, subset
    return True, None


class TestStrongMonotypyByCircuits:
    @pytest.mark.parametrize("P", [
        box(3), box(4), box(5), simplex(3), simplex(4), simplex(5), simplex(6),
        simplex_product([2, 2]), simplex_product([2, 2, 1]), square_pyramid(), set_n(),
    ], ids=["box3", "box4", "box5", "simplex3", "simplex4", "simplex5", "simplex6",
            "sp22", "sp221", "pyramid", "set_n"])
    def test_agrees_with_lp_scan(self, P):
        assert check_strong_monotypy(P.normal_set) == lp_strong_monotypy(P.normal_set)

    @settings(max_examples=80, deadline=None)
    @given(valid_normal_sets())
    def test_agrees_with_lp_scan_on_random_sets(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        assert check_strong_monotypy(N) == lp_strong_monotypy(N)

    def test_runs_no_lp_on_a_strongly_monotypic_set(self, monkeypatch):
        N = box(4).normal_set
        calls = []

        def counting(rows, rhs):
            calls.append(rows)
            return solve_eq_nonneg(rows, rhs)

        monkeypatch.setattr(lp, "solve_eq_nonneg", counting)
        monkeypatch.setattr(position, "solve_eq_nonneg", counting)
        check_strong_monotypy.cache_clear()
        circuit_table.cache_clear()
        assert check_strong_monotypy(N) == (True, None)
        assert calls == []

    def test_certificate_that_fails_its_recheck_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(classify, "is_conical_position", lambda points: False)
        check_strong_monotypy.cache_clear()
        with pytest.raises(InternalInvariantError, match="conical position"):
            check_strong_monotypy(square_pyramid().normal_set)


class TestMonotypy:
    def test_pyramid_false(self):
        N = square_pyramid().normal_set
        ok, cert = check_monotypy(N)
        assert not ok
        assert set(cert) == PYRAMID_CERT
        # re-verify: conical and no further normal is captured
        assert is_conical_position(cert)
        others = [m for m in N.normals if m not in set(cert)]
        assert all(cone_membership(m, cert) is None for m in others)

    def test_cube_true(self):
        ok, _ = check_monotypy(box(3).normal_set)
        assert ok

    def test_hexagon_vacuously_true(self):
        ok, _ = check_monotypy(hexagon_normals())
        assert ok


class TestMonotypyMss:
    def test_pyramid_false_with_recheckable_certificate(self):
        ok, cert = check_monotypy_mss(square_pyramid().normal_set)
        assert not ok
        v1, v2, point = cert
        assert not set(v1) & set(v2)
        assert any(c != 0 for c in point)
        assert cone_membership(point, v1) is not None
        assert cone_membership(point, v2) is not None

    def test_cube_true(self):
        ok, _ = check_monotypy_mss(box(3).normal_set)
        assert ok

    def test_triangle_true(self):
        ok, _ = check_monotypy_mss(simplex(2).normal_set)
        assert ok

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets())
    def test_agrees_with_conical_route_and_certificate_rechecks(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        ok, cert = check_monotypy_mss(N)
        assert ok == check_monotypy(N)[0]
        if ok:
            assert cert is None
            return
        v1, v2, point = cert
        assert v1 and v2 and not set(v1) & set(v2)
        assert is_primitive(v1, N.normals) and is_primitive(v2, N.normals)
        assert any(c != 0 for c in point)
        assert cone_membership(point, v1) is not None
        assert cone_membership(point, v2) is not None

    @pytest.mark.parametrize("P,tests", [(box(3), 0), (simplex(3), 0), (square_pyramid(), 2)],
                             ids=["box3", "simplex3", "pyramid"])
    def test_primitivity_is_tested_only_on_two_signed_circuits(self, monkeypatch, P, tests):
        # every circuit of a box or simplex has a single sign
        calls = []

        def counting(subset, normals):
            calls.append(subset)
            return is_primitive(subset, normals)

        monkeypatch.setattr(classify, "is_primitive", counting)
        check_monotypy_mss.cache_clear()
        assert check_monotypy_mss(P.normal_set)[0] is (tests == 0)
        assert len(calls) == tests

    def test_each_distinct_half_is_tested_once(self, monkeypatch):
        # the 16 primitive integer directions with max(|a|, |b|) <= 2: their
        # 336 two-signed circuits share their halves
        N = NormalSet.from_vectors(2, [(a, b) for a in range(-2, 3) for b in range(-2, 3)
                                       if gcd(a, b) == 1])
        calls = []

        def counting(mask, index):
            calls.append(mask)
            return captures(mask, index)

        monkeypatch.setattr(classify, "captures", counting)
        check_monotypy_mss.cache_clear()
        assert check_monotypy_mss(N) == (True, None)
        assert sum(1 for c in circuit_table(N) if c.plus and c.minus) == 336
        assert len(calls) == len(set(calls)) == 104


class TestCrossProperties:
    CASES = [
        box(2).normal_set, box(3).normal_set,
        simplex(2).normal_set, simplex(3).normal_set,
        hexagon_normals(), square_pyramid().normal_set,
    ]

    @pytest.mark.parametrize("N", CASES, ids=lambda N: f"n{N.dim}_{len(N.normals)}")
    def test_characterizations_agree(self, N):
        assert check_monotypy(N)[0] == check_monotypy_mss(N)[0]

    @pytest.mark.parametrize("N", CASES, ids=lambda N: f"n{N.dim}_{len(N.normals)}")
    def test_strong_implies_monotypic(self, N):
        if check_strong_monotypy(N)[0]:
            assert check_monotypy(N)[0]

    def test_scale_invariance(self):
        N = square_pyramid().normal_set
        scaled = NormalSet.from_vectors(
            3, [vscale(F(k + 1, 2), m) for k, m in enumerate(N.normals)])
        for check in (check_strong_monotypy, check_monotypy, check_monotypy_mss):
            assert check(scaled)[0] == check(N)[0]

    def test_combined_verdict(self):
        v = classify_normal_set(square_pyramid().normal_set)
        assert not v.strongly_monotypic and not v.monotypic
        assert v.mono_certificate is not None
        v = classify_normal_set(box(3).normal_set)
        assert v.strongly_monotypic and v.monotypic
        assert v.strong_certificate is None and v.mono_certificate is None


class TestCaches:
    def test_caches_stay_within_their_bound(self):
        # triangles with normals (1, 0), (0, 1), (-1, -k) are pairwise distinct
        for k in range(1, NORMAL_SET_CACHE_SIZE + 11):
            N = NormalSet.from_vectors(2, [(1, 0), (0, 1), (-1, -k)])
            assert check_strong_monotypy(N) == (True, None)
        for cached in (check_strong_monotypy, circuit_table):
            info = cached.cache_info()
            assert info.maxsize == NORMAL_SET_CACHE_SIZE
            assert info.currsize <= NORMAL_SET_CACHE_SIZE


class TestCircuitPredicates:
    """The bitmask predicates, and the primitivity test the fan's scan
    called, against the predicates of `position` and the LP form of
    `is_primitive`."""

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets())
    def test_masks_agree_with_lp_predicates(self, normals):
        N = NormalSet.from_vectors(len(normals[0]), normals)
        table = circuit_table(N)
        index = capture_index(table)
        for size in range(1, N.dim + 1):
            for idx in combinations(range(len(N.normals)), size):
                mask = bitmask(idx)
                subset = [N.normals[i] for i in idx]
                assert (not any(circuits_inside(mask, table))) == (rank(subset) == size)
                if rank(subset) == size:
                    assert captures(mask, index) == bitmask(
                        N.normals.index(m) for m in captured(subset, N.normals))
                primitive = classify_reference.primitive(mask, table)
                assert primitive == reference.is_primitive(subset, N.normals)
                assert primitive == is_primitive(subset, N.normals)


def large_halves(n):
    """e_1..e_n, (1, ..., 1, -1) and (-1, ..., -1): four circuits, two of
    them two-signed, one with a half of n - 1 elements and one with a half
    of n."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return NormalSet.from_vectors(n, units + [(1,) * (n - 1) + (-1,), (-1,) * n])


class TestCaptureIndex:
    """The captures of a mask, by one lookup per submask in the capture
    index, against the loop over the whole table that they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(integer_or_fractional_normal_sets())
    def test_agrees_with_the_table_scan(self, N):
        table = circuit_table(N)
        index = capture_index(table)
        for size in range(1, N.dim + 1):
            for idx in combinations(range(len(N.normals)), size):
                mask = bitmask(idx)
                assert captures(mask, index) == classify_reference.captures(mask, table)

    def test_large_halves(self):
        N = large_halves(12)
        table = circuit_table(N)
        index = capture_index(table)
        halves = {h for c in table if c.plus and c.minus for h in (c.plus, c.minus)}
        assert len(table) == 4 and max(h.bit_count() for h in halves) == 12
        for half in halves:
            assert captures(half, index) == classify_reference.captures(half, table)
        clear_caches()
        verdict = classify_normal_set(N)
        assert not verdict.monotypic and verdict.mss_certificate is not None

    def test_the_table_makes_no_fraction(self, monkeypatch):
        # every dependence is read off the scan as coprime ints
        N = sign_vectors_26().normal_set
        circuit_table.cache_clear()
        made = count_fractions(monkeypatch)
        assert len(circuit_table(N)) == 5805
        monkeypatch.undo()
        assert made == []


def product_order(m):
    """Every mask over range(m), in `product((1, 0))` order."""
    return [sum(b << i for i, b in enumerate(bits)) for bits in product((1, 0), repeat=m)]


@st.composite
def pattern_sets(draw):
    """m, and (support, pattern) pairs over range(m), each pattern inside
    its nonzero support."""
    m = draw(st.integers(min_value=1, max_value=8))
    supports = st.integers(min_value=1, max_value=2 ** m - 1)
    pairs = draw(st.lists(supports.flatmap(lambda s: st.tuples(
        st.just(s), st.integers(min_value=0, max_value=s).map(lambda p: p & s))), max_size=8))
    return m, pairs


def subset_of(N, mask):
    return tuple(x for i, x in enumerate(N.normals) if mask >> i & 1)


def assert_listings_match_the_scans(N):
    """The conical subsets, the uncaptured ones, the primitive bases and
    the cells, each from the search, equal the reference scan's list, and
    the certificates are the first of those lists."""
    table, m = circuit_table(N), len(N.normals)
    conical = list(avoiding(m, classify._unbalanced(table), N.dim + 1))
    assert conical == classify_reference.conical_subsets(N)
    uncaptured = list(avoiding(m, [*classify._unbalanced(table), *capture_patterns(table)],
                               N.dim + 1))
    assert uncaptured == classify_reference.uncaptured_conical_subsets(N)
    assert check_strong_monotypy(N) == (
        (False, subset_of(N, conical[0])) if conical else (True, None))
    assert check_monotypy(N) == (
        (False, subset_of(N, uncaptured[0])) if uncaptured else (True, None))
    assert enumerate_primitive_bases(N) == fan_reference.scanned_primitive_bases(N)
    assert oracle._cells(N) == oracle_reference.level_cells(N)


class TestPatternSearch:
    """One search over prefixes lists what the scans it replaced list, in
    their order."""

    @settings(max_examples=100, deadline=None)
    @given(pattern_sets(), st.one_of(st.none(), st.integers(min_value=0, max_value=8)))
    def test_lists_the_masks_that_match_no_pattern(self, drawn, size):
        m, pairs = drawn
        assert list(avoiding(m, pairs, size)) == [
            mask for mask in product_order(m)
            if all(mask & s != p for s, p in pairs)
            and (size is None or mask.bit_count() == size)]

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)))
    def test_matches_the_scans_on_random_normal_sets(self, normals):
        assert_listings_match_the_scans(NormalSet.from_vectors(len(normals[0]), normals))

    @settings(max_examples=60, deadline=None)
    @given(fractional_polytopes())
    def test_matches_the_scans_on_random_fractional_normals(self, P):
        assert_listings_match_the_scans(P.normal_set)

    @pytest.mark.parametrize("P", [square_pyramid(), set_n(), hexagon(), box(3),
                                   simplex(3), simplex_product([2, 1])],
                             ids=["pyramid", "N", "hexagon", "box3", "simplex3", "sp21"])
    def test_matches_the_scans_on_fixed_sets(self, P):
        assert_listings_match_the_scans(P.normal_set)

    def test_sign_vectors_26(self):
        # 2,052 of the C(26, 4) = 14,950 subsets are in conical position;
        # the first is the pinned certificate of both conical routes
        N = sign_vectors_26().normal_set
        conical = list(avoiding(26, classify._unbalanced(circuit_table(N)), 4))
        assert len(conical) == 2052
        assert conical == classify_reference.conical_subsets(N)
        pinned = json.loads((GOLDEN / "classify_sign_vectors_26.json").read_text())
        verdict = classify_normal_set(N)
        assert (verdict.strongly_monotypic, verdict.monotypic) == (
            pinned["strongly_monotypic"], pinned["monotypic"])
        for cert, name in ((verdict.strong_certificate, "conical_subset"),
                           (verdict.mono_certificate, "uncaptured_conical_subset")):
            assert cert == subset_of(N, conical[0])
            assert [[str(x) for x in v] for v in cert] == pinned["certificates"][name]

    def test_box10_primitive_bases(self):
        # the 2^10 orthants, in `combinations` order
        N = box(10).normal_set
        bases = enumerate_primitive_bases(N)
        assert len(bases) == 1024
        assert bases == fan_reference.scanned_primitive_bases(N)

    def test_is_lazy(self):
        # C(200, 3) masks in all, and C(200, 100) > 10^58 with 100 bits:
        # each first mask is found down one path of the search
        assert next(avoiding(200, [], 3)) == 0b111
        assert next(avoiding(200, [], 100)) == 2 ** 100 - 1
        assert next(avoiding(200, [(0b11, 0b11)], 3)) == 0b1101


class TestRechecks:
    def test_monotypy_certificate_that_fails_its_recheck_is_an_internal_error(
            self, monkeypatch):
        monkeypatch.setattr(classify, "captured", lambda subset, normals: iter([subset[0]]))
        clear_caches()
        with pytest.raises(InternalInvariantError, match="re-check"):
            check_monotypy(square_pyramid().normal_set)

    def test_mss_certificate_that_fails_its_recheck_is_an_internal_error(
            self, monkeypatch):
        monkeypatch.setattr(classify, "is_primitive", lambda subset, normals: False)
        clear_caches()
        with pytest.raises(InternalInvariantError, match="re-check"):
            check_monotypy_mss(square_pyramid().normal_set)


class TestClassifyNormalSet:
    def test_carries_the_mss_certificate(self):
        N = square_pyramid().normal_set
        assert classify_normal_set(N).mss_certificate == check_monotypy_mss(N)[1]
        assert classify_normal_set(box(3).normal_set).mss_certificate is None

    def test_disagreeing_routes_raise(self, monkeypatch):
        N = box(3).normal_set
        monkeypatch.setattr(classify, "check_monotypy_mss", lambda N: (False, None))
        with pytest.raises(InternalInvariantError, match="disagree"):
            classify_normal_set(N)


class TestLpWork:
    """Classification runs LPs only to re-check the certificates it emits."""

    @pytest.mark.parametrize("P,lps", [(box(3), 0), (box(4), 0), (simplex(4), 0),
                                       (square_pyramid(), 1)],
                             ids=["box3", "box4", "simplex4", "pyramid"])
    def test_lp_solves(self, monkeypatch, P, lps):
        # pyramid: the conical certificate, four slants of rank 3, and the
        # primitivity of the two circuit halves are re-checked by one
        # elimination each; 1 `solve_eq_nonneg` re-checks that the base
        # normal is not captured
        calls = count_lps(monkeypatch)
        clear_caches()
        classify_normal_set(P.normal_set)
        assert len(calls) == lps

    @pytest.mark.parametrize("P", [set_n(), sign_vectors_26()], ids=["N", "sign_vectors_26"])
    def test_mss_route_poses_no_lp(self, monkeypatch, P):
        # both fail through a circuit with primitive halves, each re-checked
        # by one elimination
        calls = count_lps(monkeypatch)
        clear_caches()
        assert not check_monotypy_mss(P.normal_set)[0]
        assert calls == []

    @pytest.mark.parametrize("N", [set_n().normal_set, square_pyramid().normal_set],
                             ids=["N", "pyramid"])
    def test_hashes_no_fraction(self, monkeypatch, N):
        # `captured` tests membership in its subset by equality, and every
        # other set classify builds holds indices or bitmasks
        callers = []
        fraction_hash = Fraction.__hash__

        def counting(x):
            callers.append(sys._getframe(1).f_code.co_qualname)
            return fraction_hash(x)

        clear_caches()
        monkeypatch.setattr(Fraction, "__hash__", counting)
        classify_normal_set(N)
        monkeypatch.undo()
        assert callers == []
