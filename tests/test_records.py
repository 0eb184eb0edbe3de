"""The package's records: equality, hashing, immutability and repr, and
the `HPolytope.__post_init__` hook that the benchmark's tracer times."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polyillum import (HPolytope, build_illumination_set, classify_normal_set,
                       extract_skeleton, is_conical_position, normal_fan, verify_illumination)
from polyillum.classify import circuit_table
from tests.conftest import HEXAGON_FACETS, box
from tests.oracle_reference import enumerate_direction_classes

ROOT = Path(__file__).resolve().parent.parent

TRIANGLE_FACETS = [((1, 0), 1), ((0, 1), 2), ((-1, -1), Fraction(1, 2))]
TRIANGLE_NORMALS = ("((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)), "
                    "(Fraction(-1, 1), Fraction(-1, 1)))")


def records():
    """One instance of every record type with its fields, the oracle
    reference's `DirectionClass` among them."""
    P = box(2)
    N = P.normal_set
    ill = build_illumination_set(P)
    return [
        (N, ("dim", "normals")),
        (P, ("normal_set", "offsets", "rows", "vertices")),
        (P.vertices[0], ("point", "mask")),
        (normal_fan(P)[0], ("generators", "mask", "vertex")),
        (extract_skeleton(N), ("basis", "parts", "part_supports", "part_indices", "columns",
                                "denominator")),
        (classify_normal_set(N), ("strongly_monotypic", "monotypic", "strong_certificate",
                                  "mono_certificate", "mss_certificate")),
        (is_conical_position(N.normals[:2]), ("in_conical_position", "separator",
                                              "not_separated", "hull_member",
                                              "hull_coefficients")),
        (ill, ("directions", "epsilon", "scaled", "assignment", "delta")),
        (verify_illumination(P, ill)[1][0], ("point", "direction_index",
                                              "directional_ok", "interior_ok")),
        (enumerate_direction_classes(P)[0], ("representative", "illuminated")),
    ]


def test_the_facet_order_leaves_normal_sets_and_polytopes_equal():
    P1 = HPolytope.from_facets(2, HEXAGON_FACETS)
    P2 = HPolytope.from_facets(2, HEXAGON_FACETS[::-1])
    assert P1 is not P2 and P1.normal_set is not P2.normal_set
    assert P1.normal_set == P2.normal_set and hash(P1.normal_set) == hash(P2.normal_set)
    assert P1 == P2 and hash(P1) == hash(P2)
    assert circuit_table(P1.normal_set) is circuit_table(P2.normal_set)


def test_other_offsets_or_normals_are_unequal():
    P = HPolytope.from_facets(2, HEXAGON_FACETS)
    Q = HPolytope.from_facets(2, [(n, 2 * h) for n, h in HEXAGON_FACETS])
    R = HPolytope.from_facets(2, TRIANGLE_FACETS)
    assert P.normal_set == Q.normal_set and P != Q
    assert P.normal_set != R.normal_set and P != R
    assert P.normal_set != (P.dim, P.normal_set.normals) and P != (P.normal_set, P.offsets)


@pytest.mark.parametrize("index", range(10))
def test_no_field_of_a_record_can_be_set(index):
    record, fields = records()[index]
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


def test_the_reprs_of_normal_sets_and_polytopes():
    P = HPolytope.from_facets(2, TRIANGLE_FACETS)
    assert repr(P.normal_set) == f"NormalSet(dim=2, normals={TRIANGLE_NORMALS})"
    assert repr(P) == (f"HPolytope(normal_set=NormalSet(dim=2, normals={TRIANGLE_NORMALS}), "
                       "offsets=(Fraction(1, 1), Fraction(2, 1), Fraction(1, 2)))")


def test_the_tracer_times_each_polytope_build():
    # in a fresh interpreter, since the tracer wraps the package for good
    script = ("from tracer import Tracer\n"
              "import polyillum.cli\n"
              "from polyillum.generators import generate\n"
              "tracer = Tracer()\n"
              "tracer.install()\n"
              "generate('box', (3,))\n"
              "snap = tracer.snapshot()\n"
              "print(snap['counts']['polytope.vertices'], snap['stage_ns']['polytope.build'] > 0)\n")
    path = os.pathsep.join([str(ROOT / "benchmark"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "8 True\n"
