import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polyillum import kernel, polytope
from polyillum.cli import run_command
from polyillum.errors import InputError, InternalInvariantError, ScaleLimitError
from polyillum.generators import generate, randomize_offsets
from polyillum.kernel import _integers, dot, rank, vadd, vec, vscale
from polyillum.polytope import HPolytope, NormalSet, Vertex
from polyillum.position import cone_membership
from tests import walk_reference
from tests.conftest import (box, count_lps, cut_box_facets, n_over_apex, set_n,
                            square_pyramid, triangle, valid_normal_sets)
from tests.kernel_reference import solve_rows
from tests.polytope_reference import (BOUNDARY, location, masked, normal_set_verdict, slacks,
                                      tight_normals, vneg, vsub, zero_vec)

F = Fraction


def _unit(n, i):
    return vec(*(1 if j == i else 0 for j in range(n)))


def lp_positively_spans(normals):
    """The reference: 0 = sum(lam_i n_i) with every lam_i >= 1, by LP;
    for normals that span, the same as positively spanning."""
    total = zero_vec(len(normals[0]))
    for m in normals:
        total = vadd(total, m)
    return cone_membership(vneg(total), normals) is not None


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
        N = NormalSet.from_vectors(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert len(N.normals) == 4

    def test_rejects_a_set_that_does_not_span(self):
        # +-e1 alone: e2 lies outside their positive hull
        with pytest.raises(InputError, match="unbounded") as exc:
            NormalSet.from_vectors(2, [(1, 0), (-1, 0)])
        assert exc.value.witness == vec(0, 1)

    def test_rejects_a_set_that_does_not_positively_span(self):
        with pytest.raises(InputError, match="unbounded") as exc:
            NormalSet.from_vectors(2, [(1, 0), (0, 1), (1, 1)])
        d = exc.value.witness
        assert all(dot(m, d) <= 0 for m in [vec(1, 0), vec(0, 1), vec(1, 1)])

    def test_direct_construction_is_validated_and_canonical(self):
        with pytest.raises(InputError, match="unbounded"):
            NormalSet(2, (vec(1, 0), vec(0, 1)))
        N = NormalSet(2, (vec(0, 1), vec(1, 0), vec(-1, -1)))
        assert N == NormalSet.from_vectors(2, [(1, 0), (-1, -1), (0, 1)])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_positive_spanning_agrees_with_lp_on_random_spanning_sets(self, seed):
        # about two thirds of these draws fail to positively span
        rnd = random.Random(seed)
        dim = rnd.choice([2, 3])
        while True:
            vectors = [vec(*(rnd.randint(-2, 2) for _ in range(dim)))
                       for _ in range(rnd.randint(dim + 1, dim + 3))]
            if rank(vectors) < dim:
                continue
            try:
                NormalSet.from_vectors(dim, vectors)
                valid = True
            except InputError as err:
                if err.witness is None:  # a zero or a repeated direction
                    continue
                valid = False
            break
        assert valid == lp_positively_spans(vectors)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_unbounded_witness_is_a_farkas_direction(self, seed):
        rnd = random.Random(seed)
        dim = rnd.choice([2, 3, 4])
        while True:
            vectors = [vec(*(rnd.randint(-2, 2) for _ in range(dim)))
                       for _ in range(rnd.randint(1, dim + 2))]
            try:
                NormalSet.from_vectors(dim, vectors)
            except InputError as err:
                if err.witness is None:
                    continue
                d = err.witness
                break
        # d is read off the LP of the first of +-e_i outside pos(N)
        units = [vec(*(s if j == i else 0 for j in range(dim)))
                 for i in range(dim) for s in (1, -1)]
        e = next(u for u in units if cone_membership(u, vectors) is None)
        assert dot(e, d) == 1
        assert all(dot(m, d) <= 0 for m in vectors)

    def test_unbounded_witness_runs_no_second_lp(self, monkeypatch):
        # -(e1 + e2) is outside pos(N), so the spanning LP fails; then e1
        # lies in pos(N) and -e1 does not: one LP each, and the last one's
        # certificate is the witness
        calls = count_lps(monkeypatch)
        with pytest.raises(InputError, match="unbounded") as exc:
            NormalSet.from_vectors(2, [(1, 0), (0, 1)])
        assert exc.value.witness == vec(-1, 0)
        assert len(calls) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_the_fraction_reference(self, data):
        # distinct integer vectors in R^1..R^4, half of the time closed by
        # -(their sum) so that they may positively span, each scaled by a
        # positive rational; about a fifth are accepted
        dim = data.draw(st.integers(1, 4))
        ints = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                                  min_size=1, max_size=2 * dim + 1, unique=True))
        if data.draw(st.booleans()):
            ints.append(tuple(-sum(c) for c in zip(*ints)))
        scales = st.builds(F, st.integers(1, 9), st.integers(1, 9))
        normals = tuple(vscale(data.draw(scales), vec(*v)) for v in ints)
        expected = normal_set_verdict(dim, normals)
        try:
            N = NormalSet(dim, normals)
            found = "ok", N.normals, N.basis
        except InputError as err:
            found = "error", str(err), err.facet_index, err.witness
        assert found == expected
        if found[0] == "ok":
            # hashed on the primitive forms, the same for equal sets in any order
            M = NormalSet(dim, normals[::-1])
            assert M == N and hash(M) == hash(N)

    def test_guard_is_reported_before_unboundedness(self):
        # C(24, 12) candidates, and nothing bounds -e12
        n = 12
        normals = ([_unit(n, i) for i in range(n)] + [vneg(_unit(n, i)) for i in range(n - 1)]
                   + [vadd(_unit(n, 0), _unit(n, 1))])
        with pytest.raises(ScaleLimitError, match="vertex candidates"):
            NormalSet.from_vectors(n, normals)


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
                assert rank(masked(P, v.mask)) == P.dim
                assert location(P, v.point) == BOUNDARY

    def test_unbounded_rejected_with_witness(self):
        with pytest.raises(InputError, match="unbounded") as exc:
            HPolytope.from_facets(2, [((1, 0), 1), ((0, 1), 1)])
        assert exc.value.witness is not None

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty"):
            HPolytope.from_facets(1, [((1,), -2), ((-1,), 1)])

    @pytest.mark.parametrize("facets", [
        [((1,), 0.1), ((-1,), 1)], [((1,), True), ((-1,), 1)], [((1,), 1), ((-1.0,), 1)],
        [((True,), 1), ((-1,), 1)], [((1,), "1/2"), ((-1,), 1)],
    ], ids=["float-offset", "bool-offset", "float-entry", "bool-entry", "str-offset"])
    def test_an_inexact_or_boolean_facet_is_refused(self, facets):
        # an offset of 0.1 once built a segment ending at 3602879701896397/2^55
        with pytest.raises(InputError, match="^rational must be an int or a Fraction, got"):
            HPolytope.from_facets(1, facets)

    def test_building_runs_no_feasibility_lp(self, monkeypatch):
        # a bounded system is empty exactly when it has no vertex; only the
        # normal set's positive spanning is decided by LP
        N, offsets = box(3).normal_set, box(3).offsets
        calls = count_lps(monkeypatch)
        HPolytope(N, offsets)
        assert calls == []


# the benchmark's 12 fixed random R^3 sets (draw "r3/2403"), with unit offsets
R3_SETS = [
    [(2, -2, -1), (1, 2, 0), (1, -2, -2), (0, 2, -2), (0, 1, -2), (-2, 1, -1), (-2, 0, 1)],
    [(2, 1, 1), (0, -2, 0), (-1, 1, 1), (-1, 0, -2), (-2, 0, 2)],
    [(1, 0, -1), (0, 1, -2), (0, -2, 0), (-1, 2, 2), (-2, 2, 0), (-2, 0, 0), (-2, -1, 2)],
    [(2, 2, -2), (1, 2, 0), (1, 2, -1), (0, -1, 1), (0, -2, -1), (-2, 1, -1), (-2, -1, -2)],
    [(2, 2, 0), (2, 0, 2), (1, -1, 2), (0, 1, -2), (-1, 2, -2), (-2, 2, -2), (-2, -1, 1)],
    [(1, 0, 0), (0, 1, 2), (-1, 2, 1), (-1, -1, -2), (-1, -2, 1), (-2, 1, 0), (-2, 0, 0)],
    [(2, 0, 2), (2, -2, -2), (1, 2, -2), (1, 1, 2), (1, 0, -2), (-2, 1, 1)],
    [(2, 0, 0), (2, 0, -1), (-1, 0, -1), (-1, -2, 2), (-2, 2, 1)],
    [(2, 0, -1), (2, 0, -2), (2, -2, -2), (1, 2, 2), (0, 1, 2), (-1, 0, -2), (-1, -2, 0)],
    [(2, -1, 1), (1, -1, -1), (0, 1, 0), (0, 0, -1), (-1, 2, 0), (-1, -1, 0), (-2, -1, -2)],
    [(2, 1, 1), (2, -1, 1), (1, -1, -1), (0, 2, 2), (0, 2, 0), (0, -1, -2), (-1, -2, -1)],
    [(2, -2, 1), (1, 0, -2), (1, -2, 2), (0, 1, 0), (-1, 0, -2), (-2, 2, 2), (-2, 1, 0)],
]
# the family instances of the benchmark's workloads, each built with unit
# offsets and with the offsets of seed 5
FAMILY_INSTANCES = ([("box", (n,)) for n in range(3, 8)] + [("simplex", (n,)) for n in range(3, 8)]
                    + [("simplex_product", d) for d in ((2, 1), (2, 2), (2, 2, 1), (3, 3),
                                                        (2, 2, 2), (2, 2, 1, 1), (4, 3))]
                    + [("square_pyramid", ())])

# Each rejection of a build from facets, with the message, facet index and
# witness that the build gave while every normal set decided its spanning
# by LP before any walk.
REJECTIONS = {
    "unbounded": (2, [((1, 0), 1), ((0, 1), 1)],
                  "constraint system is unbounded along (-1, 0)", None, vec(-1, 0)),
    "unbounded-after-a-walk": (3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                                   ((-1, -1, 0), 1)],
                               "constraint system is unbounded along (0, 0, -1)", None,
                               vec(0, 0, -1)),
    "rank-deficient": (3, [((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1)],
                       "constraint system is unbounded along (0, 0, 1)", None, vec(0, 0, 1)),
    "empty": (1, [((1,), -2), ((-1,), 1)], "constraint system is empty (infeasible)",
              None, None),
    "empty-square": (2, [((1, 0), -1), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 1)],
                     "constraint system is empty (infeasible)", None, None),
    "empty-and-rank-deficient": (2, [((1, 0), -1), ((-1, 0), -1)],
                                 "constraint system is unbounded along (0, 1)", None, vec(0, 1)),
    "empty-and-unbounded": (2, [((1, 0), -1), ((-1, 0), -1), ((0, 1), 1)],
                            "constraint system is unbounded along (0, -1)", None, vec(0, -1)),
    "never-attained": (2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 3)],
                       "facet with normal (1, 1) is redundant (offset never attained)", 0, None),
    "not-a-facet": (2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 2)],
                    "facet with normal (1, 1) is redundant (tight set is not a facet)", 0, None),
    "not-full-dimensional": (2, [((1, 0), 1), ((0, 1), 0), ((0, -1), 0), ((-1, 0), 1)],
                             "polytope is not full-dimensional (normal (0, 1) is tight at "
                             "every vertex)", 1, None),
    "zero": (2, [((1, 0), 1), ((0, 0), 1)], "normal 1 is the zero vector", 1, None),
    "multiple": (2, [((1, 0), 1), ((2, 0), 1)], "normal 1 is a positive multiple of normal 0",
                 1, None),
    "dimension": (2, [((1, 0), 1), ((1, 0, 0), 1)], "normal 1 has dimension 3, expected 2",
                  1, None),
}


def decided_build_verdict(dim, facets):
    """What `HPolytope.from_facets` gives when the normal set decides its
    spanning by LP before any walk: `normal_set_verdict` first; then an
    empty system is one with no feasible candidate; then the build on the
    decided set, whose vertices must be the candidate scan's. ("ok",
    vertices) or ("error", message, facet index, witness)."""
    normals = tuple(vec(*m) for m, _ in facets)
    verdict = normal_set_verdict(dim, normals)
    if verdict[0] == "error":
        return verdict
    N = NormalSet(dim, normals)
    offsets = tuple(F(h) for _, h in sorted(((vec(*m), h) for m, h in facets), reverse=True))
    (rows, L) = polytope._rows(N.normals, offsets)
    scanned = as_masks(walk_reference._scan(
        rows, L, walk_reference.feasible_candidates(rows, dim, L)))
    if not scanned:
        return "error", "constraint system is empty (infeasible)", None, None
    try:
        P = HPolytope(N, offsets)
    except InputError as err:
        return "error", str(err), err.facet_index, err.witness
    assert P.vertices == tuple(sorted(Vertex(tuple(F(x, k) for x in X), mask)
                                      for (X, k), mask in scanned))
    return "ok", P.vertices


def primitive_or_zero(v):
    return tuple(v) if not any(v) else kernel.primitive_form(vec(*v))


@st.composite
def facet_systems(draw):
    """Facets in R^1..R^4 with entries in -2..2, half of the time closed by
    -(the sum of the normals), and offsets in {-1, 0, 1/2, 1, 2}: the draws
    are unbounded, empty, both, rank-deficient, redundant or polytopes."""
    dim = draw(st.integers(1, 4))
    normals = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=dim,
                            max_size=2 * dim + 2, unique_by=primitive_or_zero))
    if draw(st.booleans()):
        normals.append(tuple(-sum(c) for c in zip(*normals)))
    offsets = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(1), F(2)])
    return dim, [(m, draw(offsets)) for m in normals]


class TestSpanningByTheWalk:
    @pytest.mark.parametrize("family, dims", FAMILY_INSTANCES,
                             ids=["-".join(map(str, (f, *d))) for f, d in FAMILY_INSTANCES])
    def test_a_family_instance_builds_with_no_lp(self, monkeypatch, family, dims):
        calls = count_lps(monkeypatch)
        P = generate(family, dims)
        randomize_offsets(P, 5)
        assert calls == []

    @pytest.mark.parametrize("normals", R3_SETS, ids=[f"r3-{i}" for i in range(len(R3_SETS))])
    def test_a_fixed_r3_set_builds_with_no_lp(self, monkeypatch, normals):
        calls = count_lps(monkeypatch)
        P = HPolytope.from_facets(3, [(m, 1) for m in normals])
        assert calls == [] and len(P.normal_set.normals) == len(normals)

    def test_a_bare_normal_set_decides_by_one_lp(self, monkeypatch):
        calls = count_lps(monkeypatch)
        NormalSet.from_vectors(3, box(3).normal_set.normals)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(REJECTIONS))
    def test_each_rejection_keeps_its_payload(self, name):
        dim, facets, message, facet_index, witness = REJECTIONS[name]
        with pytest.raises(InputError) as exc:
            HPolytope.from_facets(dim, facets)
        assert (str(exc.value), exc.value.facet_index, exc.value.witness) == (
            message, facet_index, witness)
        assert decided_build_verdict(dim, facets) == ("error", message, facet_index, witness)

    def test_an_empty_system_decides_its_spanning_by_lp(self, monkeypatch):
        # no candidate is feasible, so the spanning LP runs, passes, and
        # the system is reported empty; a bare normal set has decided
        # already, and its empty systems pose no further LP
        dim, facets = REJECTIONS["empty-square"][:2]
        calls = count_lps(monkeypatch)
        with pytest.raises(InputError, match="empty"):
            HPolytope.from_facets(dim, facets)
        assert len(calls) == 1
        N = NormalSet.from_vectors(dim, [m for m, _ in facets])
        assert len(calls) == 2
        with pytest.raises(InputError, match="empty"):
            HPolytope(N, (F(-1),) * 4)
        assert len(calls) == 2

    def test_an_unblocked_edge_on_a_bounded_system_is_still_an_internal_error(
            self, monkeypatch, capsys):
        # the first ratio test, edge 0 at the start, finds no blocking
        # normal; box3's normals pass the spanning LP, so the walk's fault
        # is reported as the walk's (exit 3), not as an unbounded input
        steps, patched = polytope._steps, []

        def unblocked(state, start, mask):
            if not patched:
                patched.append(state)
                state = state._replace(columns=((0,) * len(state.columns[0]),
                                                *state.columns[1:]))
            return steps(state, start, mask)

        monkeypatch.setattr(polytope, "_steps", unblocked)
        calls = count_lps(monkeypatch)
        assert run_command(["gen", "box", "--dims", "3"]) == 3
        assert capsys.readouterr().out == (
            '{"error":"no normal blocks edge 0 at vertex (1, 1, 1)"}\n')
        assert len(patched) == 1 and len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(facet_systems())
    @example((1, [((1,), F(1, 2)), ((-1,), F(0))]))
    @example((1, [((1,), F(-1)), ((-1,), F(0))]))
    @example((2, [((1, 0), F(0)), ((0, 1), F(-1)), ((-1, -1), F(0))]))
    @example((3, [((1, 0, 0), F(1)), ((0, 1, 0), F(1)), ((-1, -1, 0), F(1))]))
    @example((4, [((1, 0, 0, 0), F(1)), ((0, 1, 0, 0), F(1)), ((0, 0, 1, 0), F(1)),
                  ((0, 0, 0, 1), F(1)), ((-1, -1, -1, 0), F(1))]))
    def test_agrees_with_the_build_on_a_decided_normal_set(self, system):
        dim, facets = system
        try:
            found = "ok", HPolytope.from_facets(dim, facets).vertices
        except InputError as err:
            found = "error", str(err), err.facet_index, err.witness
        assert found == decided_build_verdict(dim, facets)


def as_masks(found):
    """The (key, tight rows) pairs of a reference, each with its rows as the
    walk's index bitmask."""
    return [(key, sum(1 << i for i in tight)) for key, tight in found]


def route_vertices(normals, offsets):
    """The vertex tuples of the walk, from its first start, and of the
    candidate scan."""
    (rows, L), n = polytope._rows(normals, offsets), len(normals[0])

    def as_vertices(found):
        return tuple(sorted(Vertex(tuple(F(x, k) for x in X), mask) for (X, k), mask in found))

    return (as_vertices(polytope._walk(rows, next(polytope._starts(rows, n, L)))),
            as_vertices(as_masks(walk_reference._scan(
                rows, L, walk_reference.feasible_candidates(rows, n, L)))))


def normals_and_offsets(P):
    return P.normal_set.normals, P.offsets


# a segment in R^2: every vertex has three tight normals
SEGMENT = ((vec(1, 0), vec(0, 1), vec(0, -1), vec(-1, 0)), (F(1), F(0), F(0), F(1)))
# every nonzero vector of {-1, 0, 1}^3 and {-1, 0, 1}^4
SIGN_VECTORS = {n: [v for v in product((-1, 0, 1), repeat=n) if any(v)] for n in (3, 4)}


@st.composite
def degenerate_systems(draw):
    """Normals and offsets of a bounded system that is often degenerate:
    a valid normal set in R^2..R^4 with offsets in 0..3, or a valid subset
    of the nonzero vectors of {-1, 0, 1}^n with unit offsets or offsets in
    0..3. The offsets are nonnegative, so the origin is feasible."""
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if draw(st.booleans()):
        normals = draw(valid_normal_sets(dims=(2, 3, 4)))
    else:
        n = draw(st.sampled_from([3, 4]))
        while True:
            try:
                normals = NormalSet.from_vectors(
                    n, rnd.sample(SIGN_VECTORS[n], rnd.randint(n + 1, 2 * n + 2))).normals
                break
            except InputError:
                continue
    unit = draw(st.booleans())
    return normals, tuple(F(1 if unit else rnd.randint(0, 3)) for _ in normals)


class TestVertexWalk:
    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)), st.sampled_from([None, 1, 2, 3]))
    def test_agrees_with_the_candidate_scan(self, normals, seed):
        try:
            P = HPolytope(NormalSet(len(normals[0]), normals), (F(1),) * len(normals))
        except InputError:
            assume(False)
        if seed is not None:
            P = randomize_offsets(P, seed)
        walked, scanned = route_vertices(P.normal_set.normals, P.offsets)
        assert P.vertices == walked == scanned
        assert P.vertex_table == tuple(walk_reference.integer_key(v.point) for v in P.vertices)

    @settings(max_examples=150, deadline=None)
    @given(degenerate_systems())
    @example(normals_and_offsets(square_pyramid()))
    @example(normals_and_offsets(n_over_apex()))
    @example(SEGMENT)
    @example(normals_and_offsets(HPolytope.from_facets(5, cut_box_facets(5))))
    @example(normals_and_offsets(HPolytope.from_facets(6, cut_box_facets(6))))
    @example(normals_and_offsets(HPolytope.from_facets(7, cut_box_facets(7))))
    @example(normals_and_offsets(HPolytope.from_facets(8, cut_box_facets(8))))
    def test_agrees_with_the_candidate_scan_on_degenerate_systems(self, system):
        # redundant and lower-dimensional systems are walked too; those
        # that build give the walk's vertices
        normals, offsets = system
        walked, scanned = route_vertices(normals, offsets)
        assert walked == scanned
        try:
            P = HPolytope(NormalSet(len(normals[0]), normals), offsets)
        except InputError:
            return
        assert P.vertices == scanned
        assert P.vertex_table == tuple(walk_reference.integer_key(v.point) for v in P.vertices)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(degenerate_systems(), valid_normal_sets(dims=(2, 3, 4)).flatmap(
        lambda normals: st.tuples(st.just(normals), st.tuples(*[st.fractions(
            min_value=-5, max_value=5, max_denominator=7)] * len(normals))))))
    def test_the_starts_are_the_feasible_candidates(self, system):
        # one state per feasible basis, in the scan's order, at its vertex;
        # offsets of any sign leave some systems empty
        normals, offsets = system
        (rows, L), n = polytope._rows(normals, offsets), len(normals[0])
        assert [(s.basis, s.vertex()) for s in polytope._starts(rows, n, L)] == list(
            walk_reference.feasible_candidates(rows, n, L))

    @settings(max_examples=60, deadline=None)
    @given(degenerate_systems())
    def test_the_walk_visits_each_lexicographically_feasible_basis_once(self, system):
        normals, offsets = system
        rows, L = polytope._rows(normals, offsets)
        start = next(polytope._starts(rows, len(normals[0]), L))
        visited = []
        steps = polytope._steps

        def recording(state, start, mask):
            visited.append(tuple(sorted(state.basis)))
            assert mask == sum(1 << i for i in state.basis)
            return steps(state, start, mask)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "_steps", recording)
            polytope._walk(rows, start)
        assert len(visited) == len(set(visited))
        assert set(visited) == walk_reference.lex_feasible_bases(rows, start.basis)

    @settings(max_examples=80, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)), st.sampled_from(["unit", "seed", "large"]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_agrees_with_the_fraction_walk(self, normals, kind, seed):
        # the vertices with their tight rows, in the order they are met;
        # offsets are positive, so the system is a polytope
        offsets = (F(1),) * len(normals)
        if kind == "seed":
            try:
                offsets = randomize_offsets(
                    HPolytope(NormalSet(len(normals[0]), normals), offsets), seed).offsets
            except InputError:
                assume(False)
        elif kind == "large":
            rnd = random.Random(seed)
            offsets = tuple(F(rnd.randint(1, 10 ** 30), rnd.randint(1, 10 ** 20))
                            for _ in normals)
        (rows, L), n = polytope._rows(normals, offsets), len(normals[0])
        start = next(polytope._starts(rows, n, L))
        walked = polytope._walk(rows, start)
        expected = walk_reference._walk(normals, offsets, start.basis, start.vertex())
        if expected is None:  # a degenerate vertex, which the Fraction walk gives up at
            assert sorted(walked) == sorted(as_masks(walk_reference._scan(
                rows, L, walk_reference.feasible_candidates(rows, n, L))))
        else:
            assert walked == as_masks(expected.items())

    @settings(max_examples=40, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_every_state_is_the_one_of_its_basis(self, normals, seed):
        # the start state and each state the pivots reach hold D B^-1,
        # D A B^-1, D (b - A y) and -D y for their basis, y = L x, with the
        # least such D: the pivots keep every column's scale, not only its
        # direction
        rnd = random.Random(seed)
        offsets = tuple(F(rnd.randint(1, 10 ** 6), rnd.randint(1, 10 ** 3)) for _ in normals)
        rows, L = polytope._rows(normals, offsets)
        states = [next(polytope._starts(rows, len(normals[0]), L))]
        pivot = polytope._pivot

        def recording(state, k, r):
            states.append(pivot(state, k, r))
            return states[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "_pivot", recording)
            polytope._walk(rows, states[0])
        for state in states:
            n, D, columns = len(state.basis), state.denominator, state.columns
            y = solve_rows([tuple(map(F, rows[i][0])) for i in state.basis],
                           [F(rows[i][1]) for i in state.basis])
            assert state.vertex() == tuple(c / L for c in y)
            for j, column in enumerate(columns[:n]):
                inverse = column[len(rows):]
                assert [sum(a * c for a, c in zip(rows[i][0], inverse)) for i in state.basis] == [
                    D * (i == j) for i in range(n)]
                assert list(column[:len(rows)]) == [
                    sum(a * c for a, c in zip(row[0], inverse)) for row in rows]
            X, k = kernel._integers(y)
            assert list(columns[n][:len(rows)]) == [
                s * D // k for s in polytope._slacks(rows, X, k)]
            assert gcd(D, *(c for column in columns[:n] for c in column[len(rows):])) == 1

    @settings(max_examples=60, deadline=None)
    @given(valid_normal_sets(dims=(2, 3, 4)), st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_scaling_each_facet_keeps_the_walk(self, normals, seed):
        # each facet, normal and offset together, times its own positive
        # rational, with offsets over denominators the normals lack: the
        # lexicographic ratio test makes the same choices, so the walk
        # meets the same bases in the same order, and the polytope keeps
        # its vertices, each tight at the images of its old normals
        rnd = random.Random(seed)
        offsets = tuple(F(rnd.randint(1, 30), rnd.choice([1, 3, 7, 9])) for _ in normals)
        try:
            P = HPolytope(NormalSet(len(normals[0]), normals), offsets)
        except InputError:
            assume(False)
        scales = [F(rnd.randint(1, 9), rnd.choice([1, 2, 5])) for _ in normals]
        scaled = ([vscale(c, m) for c, m in zip(scales, normals)],
                  [c * h for c, h in zip(scales, offsets)])
        walks = []
        for system in ((normals, offsets), scaled):
            (rows, L), visited = polytope._rows(*system), []
            steps = polytope._steps

            def recording(state, start, mask):
                visited.append(state.basis)
                return steps(state, start, mask)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polytope, "_steps", recording)
                walks.append((polytope._walk(rows, next(polytope._starts(rows, P.dim, L))),
                              visited))
        assert walks[0] == walks[1]
        Q = HPolytope.from_facets(P.dim, list(zip(*scaled)))
        image = dict(zip(normals, scaled[0]))
        assert [v.point for v in Q.vertices] == [v.point for v in P.vertices]
        for v, w in zip(P.vertices, Q.vertices):
            assert set(masked(Q, w.mask)) == {image[m] for m in masked(P, v.mask)}

    def test_a_unimodular_walk_pivots_on_units(self, monkeypatch):
        # box6 with seeded offsets over 16: the offsets stay out of the
        # tableau, so the start's inverse and every pivot are over D = 1,
        # and each pivot entry is a unit, which takes no gcd
        entries = []
        pivot = polytope._integer_pivot

        def recording(M, D, r, c):
            entries.append((M[r][c], D))
            return pivot(M, D, r, c)

        monkeypatch.setattr(polytope, "_integer_pivot", recording)
        P = randomize_offsets(generate("box", (6,)), 5)
        assert len(P.vertices) == 64 and len(entries) >= 63
        assert set(entries) <= {(1, 1), (-1, 1)}
        assert P.scale == 16 and any(h.denominator == 16 for h in P.offsets)

    @pytest.mark.parametrize("P", [
        set_n(), box(3), generate("simplex_product", (2, 2, 1)),
        randomize_offsets(generate("simplex_product", (2, 1, 1)), 3),
        HPolytope(generate("simplex", (3,)).normal_set, (F(7, 3), F(5, 11), F(13, 2), F(1, 9))),
    ], ids=["N", "box3", "sp221", "sp211-r3", "simplex3-rational"])
    def test_the_walk_matches_the_fraction_walk(self, P):
        normals, offsets = P.normal_set.normals, P.offsets
        start = next(polytope._starts(P.rows, P.dim, P.scale))
        expected = walk_reference._walk(normals, offsets, start.basis, start.vertex())
        assert polytope._walk(P.rows, start) == as_masks(expected.items())

    @pytest.mark.parametrize("P", [
        set_n(), box(3), generate("simplex_product", (2, 2, 1)),
        randomize_offsets(generate("simplex_product", (2, 1, 1)), 3),
    ], ids=["N", "box3", "sp221", "sp211-r3"])
    def test_simple_polytopes_take_the_walk(self, P):
        walked, scanned = route_vertices(P.normal_set.normals, P.offsets)
        assert walked == scanned == P.vertices

    def test_the_walk_passes_through_degenerate_vertices(self):
        # N with the offsets of a pyramid: four facets meet at the origin
        for P in (square_pyramid(), n_over_apex()):
            walked, scanned = route_vertices(P.normal_set.normals, P.offsets)
            assert walked == scanned == P.vertices
            assert max(v.mask.bit_count() for v in P.vertices) == 4

    def test_the_walk_covers_a_lower_dimensional_system(self):
        walked, scanned = route_vertices(*SEGMENT)
        assert walked == scanned
        assert [v.point for v in walked] == [vec(-1, 0), vec(1, 0)]
        with pytest.raises(InputError, match="not full-dimensional"):
            HPolytope(NormalSet(2, SEGMENT[0]), SEGMENT[1])

    @staticmethod
    def count_row_reductions(monkeypatch):
        calls = []
        row_reduce = kernel._row_reduce

        def counting(matrix):
            calls.append(matrix)
            return row_reduce(matrix)

        monkeypatch.setattr(kernel, "_row_reduce", counting)
        return calls

    def test_box7_row_reduces_twice(self, monkeypatch):
        # the normal set's first basis and the start's inverse; the facet
        # test reads the vertices' tight sets and reduces nothing
        calls = self.count_row_reductions(monkeypatch)
        P = generate("box", (7,))
        assert len(P.vertices) == 128
        assert len(calls) == 2

    def test_cut_box8_row_reduces_twice(self, monkeypatch):
        # 8 of its vertices have 9 tight normals; the walk passes through
        # them, where the candidate scan solved all C(17, 8) = 24,310 systems
        facets = cut_box_facets(8)
        calls = self.count_row_reductions(monkeypatch)
        P = HPolytope.from_facets(8, facets)
        assert len(P.vertices) == 255
        assert len(calls) == 2

    def test_box7_hashes_only_its_normal_set(self, monkeypatch):
        # the walk keys each vertex on ints, the facets pair with their
        # offsets by sorting, and the normal set hashes its primitive
        # forms, ints: no Fraction is hashed at all
        callers = []
        fraction_hash = Fraction.__hash__

        def counting(x):
            callers.append(sys._getframe(1).f_code.co_qualname)
            return fraction_hash(x)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        generate("box", (7,))
        monkeypatch.undo()
        assert callers == []

    def test_an_unblocked_edge_is_an_internal_error(self, monkeypatch, capsys):
        # each start keeps its slacks and point, but its tableau and
        # inverse are zeroed, so no row blocks an edge
        starts = polytope._starts
        monkeypatch.setattr(polytope, "_starts", lambda rows, n, scale: (
            state._replace(columns=(*((0,) * len(c) for c in state.columns[:-1]),
                                    state.columns[-1]))
            for state in starts(rows, n, scale)))
        with pytest.raises(InternalInvariantError, match="no normal blocks edge 0"):
            box(3)
        assert run_command(["gen", "box", "--dims", "3"]) == 3
        assert capsys.readouterr().out == (
            '{"error":"no normal blocks edge 0 at vertex (1, 1, 1)"}\n')

    def test_a_tie_that_no_relaxation_breaks_is_an_internal_error(self, monkeypatch, capsys):
        # with every row in B0, nothing is relaxed
        nearer = polytope._nearer
        monkeypatch.setattr(polytope, "_nearer", lambda state, start, k, i, r: nearer(
            state, -1, k, i, r))
        assert run_command(["gen", "square_pyramid"]) == 3
        assert capsys.readouterr().out == (
            '{"error":"normals 3 and 4 block edge 2 at vertex (2, 2, -1) at once"}\n')

    def test_a_basis_row_with_a_slack_is_an_internal_error(self, monkeypatch, capsys):
        # each pivot's state gives its first basis row a slack
        pivot = polytope._pivot

        def slack(state, k, r):
            state = pivot(state, k, r)
            slacks = list(state.columns[-1])
            slacks[state.basis[0]] = 1
            return state._replace(columns=(*state.columns[:-1], tuple(slacks)))

        monkeypatch.setattr(polytope, "_pivot", slack)
        assert run_command(["gen", "box", "--dims", "3"]) == 3
        assert capsys.readouterr().out == (
            '{"error":"a basis row is not tight at vertex (-1, 1, 1)"}\n')

    def test_a_pivot_that_is_not_negative_is_an_internal_error(self):
        # the walk's state for the interval [-1, 1] at x = 1, with basis row 0
        state = polytope._Simple((0,), 1, ((1, -1, 1), (0, 2, -1)), 1)
        assert polytope._pivot(state, 0, 1).vertex() == (F(-1),)
        with pytest.raises(InternalInvariantError, match="pivot on row 0 along edge 0"):
            polytope._pivot(state, 0, 0)


def difference_rank_verdict(normals, offsets):
    """The reference irredundancy check: facet i is a facet iff the vertices
    on it span an affine space of dimension n - 1, by the rank of their
    differences. Returns None, or the first redundant facet's index and the
    kind of its message."""
    n = len(normals[0])
    points = set()
    for idx in combinations(range(len(normals)), n):
        x = solve_rows([normals[i] for i in idx], [offsets[i] for i in idx])
        if x is not None and all(dot(m, x) <= h for m, h in zip(normals, offsets)):
            points.add(x)
    for i, (m, h) in enumerate(zip(normals, offsets)):
        on = [p for p in points if dot(m, p) == h]
        if not on:
            return i, "offset never attained)"
        if rank([vsub(p, on[0]) for p in on[1:]]) != n - 1:
            return i, "tight set is not a facet)"
    return None


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

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_agrees_with_the_difference_rank_reference(self, seed):
        # n+2..n+4 normals in R^2..R^4 with offsets in 1..3, so the origin
        # is interior; about a third of the draws have a redundant facet,
        # one in four of those tight at a lower-dimensional face
        rnd = random.Random(seed)
        dim = rnd.choice([2, 3, 4])
        while True:
            vectors = [vec(*(rnd.randint(-2, 2) for _ in range(dim)))
                       for _ in range(rnd.randint(dim + 2, dim + 4))]
            try:
                normals = NormalSet.from_vectors(dim, vectors).normals
                break
            except InputError:
                continue
        offsets = tuple(F(rnd.randint(1, 3)) for _ in normals)
        expected = difference_rank_verdict(normals, offsets)
        try:
            HPolytope(NormalSet(dim, normals), offsets)
            found = None
        except InputError as err:
            found = (err.facet_index, str(err).rpartition("(")[2])
        assert found == expected

    def test_support_equals_stored_offset(self):
        for P in (box(3), triangle(), square_pyramid()):
            for n, h in zip(P.normal_set.normals, P.offsets):
                assert max(dot(n, v.point) for v in P.vertices) == h


def slacks_in_units(P, x):
    """The slacks of the integer rows of P at y = L x, each divided back by
    its row's scale c, by L and by the denominator k of x."""
    X, k, L = *_integers(x), P.scale
    return [F(s, c * k * L)
            for s, (_, _, c) in zip(polytope._slacks(P.rows, [L * e for e in X], k), P.rows)]


class TestQueries:
    @pytest.mark.parametrize("P", [
        randomize_offsets(generate("simplex_product", (2, 1)), 3),
        HPolytope.from_facets(2, [((F(1, 2), 0), F(1, 3)), ((-1, 0), 2), ((0, F(3, 4)), 1),
                                  ((0, -2), F(5, 7))]),
    ], ids=["sp21-r3", "fractional-normals"])
    def test_slack_is_measured_as_h_minus_m_x(self, P):
        # rows are scaled to ints, but the slack keeps the normal's units
        points = [v.point for v in P.vertices]
        points += [vscale(F(1, 2), vadd(p, q)) for p, q in zip(points, points[1:])]
        for x in points:
            assert slacks_in_units(P, x) == slacks(P, x)

    def test_pyramid_apex_is_not_simple(self):
        P = square_pyramid()
        apex = vec(0, 0, 1)
        assert set(tight_normals(P, apex)) == {
            vec(1, 0, 1), vec(-1, 0, 1), vec(0, 1, 1), vec(0, -1, 1)}
        assert [(v.point, masked(P, v.mask)) for v in P.vertices
                if v.mask.bit_count() > P.dim] == [(apex, tight_normals(P, apex))]

    def test_every_vertex_mask_holds_its_tight_normals(self):
        for P in (box(3), triangle(), square_pyramid(), n_over_apex(),
                  HPolytope.from_facets(2, [((F(1, 2), 0), F(1, 3)), ((-1, 0), 2),
                                            ((0, F(3, 4)), 1), ((0, -2), F(5, 7))])):
            for v in P.vertices:
                assert masked(P, v.mask) == tight_normals(P, v.point)

    def test_slack_widens_tight_set(self):
        P = triangle()
        assert sum(s <= 3 for s in slacks_in_units(P, vec(1, 1))) == 3
