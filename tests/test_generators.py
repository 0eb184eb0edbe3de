from fractions import Fraction

import pytest

from polyillum import generators
from polyillum.classify import classify_normal_set
from polyillum.errors import InputError
from polyillum.generators import SplitMix64, generate, randomize_offsets
from polyillum.kernel import vec
from polyillum.polytope import HPolytope
from polyillum.skeleton import extract_skeleton
from tests.conftest import count_lps

F = Fraction


class TestFamilies:
    def test_box(self):
        P = generate("box", (3,))
        assert len(P.normal_set.normals) == 6
        assert len(P.vertices) == 8

    def test_simplex(self):
        P = generate("simplex", (3,))
        assert len(P.normal_set.normals) == 4
        assert len(P.vertices) == 4

    def test_prism_normals(self):
        P = generate("simplex_product", (2, 1))
        assert set(P.normal_set.normals) == {
            vec(1, 0, 0), vec(0, 1, 0), vec(-1, -1, 0),
            vec(0, 0, 1), vec(0, 0, -1)}

    def test_square_pyramid_is_not_monotypic(self):
        P = generate("square_pyramid")
        v = classify_normal_set(P.normal_set)
        assert not v.monotypic

    @pytest.mark.parametrize("spec", [
        ("box", (0,)),
        ("simplex", (-1,)),
        ("box", (2, 2)),
        ("simplex_product", ()),
        ("nonagon", (2,)),
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(InputError):
            generate(*spec)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_box_and_simplex_are_products_of_simplices(self, n):
        for family, dims in (("box", (1,) * n), ("simplex", (n,))):
            P = generate(family, (n,))
            assert P == generate("simplex_product", dims)


class TestSplitMix64:
    def test_known_stream(self):
        # splitmix64 reference values for seed 0
        rng = SplitMix64(0)
        first = rng.next()
        assert first == 0xE220A8397B1DCDAF

    def test_determinism(self):
        a = [SplitMix64(42).next() for _ in range(5)]
        b = [SplitMix64(42).next() for _ in range(5)]
        assert a == b


class TestRandomizeOffsets:
    def test_same_seed_is_bit_identical(self):
        P = generate("box", (3,))
        assert randomize_offsets(P, 1).offsets == randomize_offsets(P, 1).offsets

    def test_offsets_in_range_with_bounded_denominator(self):
        P = randomize_offsets(generate("box", (3,)), 1)
        for h in P.offsets:
            assert 1 <= h <= 2
            assert h.denominator <= 16

    def test_normals_unchanged(self):
        base = generate("simplex", (2,))
        P = randomize_offsets(base, 7)
        assert P.normal_set == base.normal_set

    def test_classification_invariant_under_offsets(self):
        base = generate("box", (3,))
        v0 = classify_normal_set(base.normal_set)
        P = randomize_offsets(base, 1)
        v1 = classify_normal_set(P.normal_set)
        assert (v0.strongly_monotypic, v0.monotypic) \
            == (v1.strongly_monotypic, v1.monotypic)

    def test_skeleton_invariant_under_offsets(self):
        base = generate("simplex", (2,))
        sk0 = extract_skeleton(base.normal_set)
        sk1 = extract_skeleton(randomize_offsets(base, 7).normal_set)
        assert sk0 == sk1
        assert len(sk1.parts) == 1

    def test_redraws_run_no_lp(self, monkeypatch):
        # (x + y) / 2 <= h is redundant in about half the draws; seed 4 draws
        # three times, and the normal set is validated once, before them
        P = HPolytope.from_facets(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1),
                                      ((F(1, 2), F(1, 2)), F(3, 4))])
        built = []

        def building(N, offsets):
            built.append(offsets)
            return HPolytope(N, offsets)

        monkeypatch.setattr(generators, "HPolytope", building)
        calls = count_lps(monkeypatch)
        randomize_offsets(P, 4)
        assert len(built) == 3
        assert calls == []
