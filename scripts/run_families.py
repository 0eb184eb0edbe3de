#!/usr/bin/env python3
"""End-to-end demo over the built-in polytope families.

For each instance: classify, extract the skeleton, build and verify the
illumination set, and cross-check the direction count against the
brute-force minimum-illumination-number oracle. Everything is exact
rational arithmetic; the oracle is skipped where the instance is not
strongly monotypic (no construction to compare against).

Usage: python3 scripts/run_families.py [--seed SEED]
"""
import argparse
from fractions import Fraction

from polyillum.classify import classify_normal_set
from polyillum.generators import generate, randomize_offsets
from polyillum.illuminate import build_illumination_set, verify_illumination
from polyillum.kernel import format_rational
from polyillum.oracle import min_illumination_number
from polyillum.polytope import HPolytope
from polyillum.skeleton import extract_skeleton


def hexagon() -> HPolytope:
    facets = [((Fraction(a), Fraction(b)), Fraction(1))
              for a, b in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]]
    return HPolytope.from_facets(2, facets)


def instances(seed):
    specs = [("box", (2,)), ("box", (3,)), ("box", (4,)),
             ("simplex", (2,)), ("simplex", (3,)),
             ("simplex_product", (2, 1)), ("simplex_product", (1, 1)),
             ("square_pyramid", ())]
    for family, dims in specs:
        P = generate(family, dims)
        if seed is not None:
            P = randomize_offsets(P, seed)
        yield f"{family}{list(dims)}", P
    yield "hexagon", hexagon()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=None,
                    help="randomize facet offsets with this seed")
    args = ap.parse_args()

    header = f"{'instance':<22}{'n':>3}{'strong':>8}{'mono':>6}" \
             f"{'q':>5}{'2^n':>5}{'oracle':>8}{'verified':>10}"
    print(header)
    print("-" * len(header))
    for name, P in instances(args.seed):
        verdict = classify_normal_set(P.normal_set)
        n = P.dim
        if verdict.strongly_monotypic:
            sk = extract_skeleton(P.normal_set)
            ill = build_illumination_set(P)
            ok, _ = verify_illumination(P, ill)
            minimum, _ = min_illumination_number(P)
            print(f"{name:<22}{n:>3}{'yes':>8}{'yes':>6}"
                  f"{sk.product_of_part_sizes:>5}{2 ** n:>5}"
                  f"{minimum:>8}{('yes' if ok else 'NO'):>10}")
            assert sk.product_of_part_sizes <= 2 ** n
            assert minimum <= len(ill.directions)
        else:
            mono = "yes" if verdict.monotypic else "no"
            print(f"{name:<22}{n:>3}{'no':>8}{mono:>6}"
                  f"{'-':>5}{2 ** n:>5}{'-':>8}{'-':>10}")
            cert = (verdict.strong_certificate if verdict.monotypic
                    else verdict.mono_certificate)
            if cert is not None:
                pretty = ", ".join(
                    "(" + ", ".join(format_rational(c) for c in v) + ")"
                    for v in cert)
                print(f"{'':<22}   conical certificate: {pretty}")


if __name__ == "__main__":
    main()
