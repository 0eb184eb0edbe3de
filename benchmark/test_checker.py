"""Tests of the independent checker, on hand-written payloads.

Run with `python3 -m pytest benchmark/test_checker.py` or
`python3 benchmark/test_checker.py`.
"""

from fractions import Fraction
from types import SimpleNamespace

import checker
import instances


def _op(command, instance):
    return SimpleNamespace(command=command, instance=instance, directions_doc=None)


def _box3_illumination(epsilon: str) -> dict:
    """`illuminate box3.json` as the CLI prints it, with the given epsilon."""
    signs = [[a, b, c] for a in ("-1", "1") for b in ("-1", "1") for c in ("-1", "1")]
    eps = Fraction(epsilon)
    return {
        "directions": signs,
        "epsilon": epsilon,
        "delta": "1",
        "scaled_directions": [[str(eps * int(x)) for x in v] for v in signs],
        "assignment": [{"vertex": v, "direction": j} for j, v in enumerate(signs)],
    }


def test_accepts_box3_illumination():
    box3 = instances.product_of_simplices("box3", [1, 1, 1])
    assert checker.check(_op("illuminate", box3), 0, _box3_illumination("1")) is None


def test_rejects_too_large_epsilon():
    box3 = instances.product_of_simplices("box3", [1, 1, 1])
    reason = checker.check(_op("illuminate", box3), 0, _box3_illumination("2"))
    assert reason is not None and "not strictly inside" in reason


def test_rejects_skeleton_of_n():
    # What `skeleton` prints for N: one part of size 4, structurally a valid
    # skeleton, but N has a 4-subset in conical position.
    payload = {
        "basis": [["1", "1", "1"], ["-1", "1", "-1"], ["0", "-1", "-1"]],
        "parts": [[["1", "1", "1"], ["-1", "1", "-1"], ["0", "-1", "-1"], ["-1", "0", "1"]]],
        "part_supports": [[0, 1, 2]],
        "part_sizes": [4],
        "product_of_part_sizes": 4,
    }
    reason = checker.check(_op("skeleton", instances.set_n()), 0, payload)
    assert reason is not None and "not strongly monotypic" in reason


def test_accepts_refusal_of_n_with_its_certificate():
    certificate = [["1", "1", "1"], ["1", "1", "-1"], ["-1", "1", "-1"], ["-1", "0", "1"]]
    vectors = [checker.vec(v) for v in certificate]
    mu = checker.dependence(vectors)
    assert [c / mu[0] for c in mu] == [1, -2, 1, -2]
    payload = {"error": "not strongly monotypic", "certificate": certificate}
    assert checker.check(_op("skeleton", instances.set_n()), 1, payload) is None
    assert checker.check(_op("skeleton", instances.set_n()), 2, payload) is not None


def test_known_verdicts():
    assert instances.hexagon().sm and instances.hexagon().mono
    pyramid = instances.square_pyramid()
    assert not pyramid.sm and not pyramid.mono
    simplex3 = instances.product_of_simplices("simplex3", [3])
    assert len(simplex3.vertices) == 4
    assert checker.strongly_monotypic(simplex3.normals, 3)


def test_rejects_wrong_vertex_list():
    box3 = instances.product_of_simplices("box3", [1, 1, 1])
    payload = _box3_illumination("1")
    payload["assignment"] = payload["assignment"][1:]
    assert checker.check(_op("illuminate", box3), 0, payload) is not None


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checker tests passed")
