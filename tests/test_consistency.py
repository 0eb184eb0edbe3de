"""One polytope document through every command: no command may contradict
another.

`classify`, `skeleton`, `illuminate --verify`, `fan --verify-unique` and
`oracle` run through `run_command` on the same document, and the
illumination set is fed back to `verify --directions`. The draws are
weighted toward the rare kinds: the square pyramid's normals, the set N,
pentagons and products of planar sets with a segment or another planar
set.
"""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from polyillum.cli import run_command
from polyillum.errors import InputError
from polyillum.formats import dump, polytope_to_doc, vector_to_strings
from polyillum.generators import SQUARE_PYRAMID_NORMALS, randomize_offsets
from polyillum.polytope import HPolytope, NormalSet
from tests.conftest import set_n, valid_normal_sets

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def planar_set(rnd: random.Random, size: int) -> list[tuple]:
    """`size` normals in R^2 with entries in -2..2 that form a valid set."""
    while True:
        vectors = [(rnd.randint(-2, 2), rnd.randint(-2, 2)) for _ in range(size)]
        try:
            return list(NormalSet.from_vectors(2, vectors).normals)
        except InputError:
            continue


def product(a: list[tuple], b: list[tuple]) -> list[tuple]:
    """The normals of the product of two polytopes with normals a and b."""
    zero_a, zero_b = (0,) * len(a[0]), (0,) * len(b[0])
    return [(*m, *zero_b) for m in a] + [(*zero_a, *m) for m in b]


@st.composite
def normal_sets(draw):
    # drawn from a stream, as hypothesis would favour the first kind
    rnd = random.Random(draw(SEEDS))
    kind = rnd.choice(["pyramid", "n", "pentagon", "pentagon", "product", "product",
                       "random", "random"])
    if kind == "random":
        return list(draw(valid_normal_sets(dims=(2, 3, 4))))
    if kind == "pyramid":
        return list(SQUARE_PYRAMID_NORMALS)
    if kind == "n":
        return list(set_n().normal_set.normals)
    if kind == "pentagon":
        return planar_set(rnd, 5)
    other = [(1,), (-1,)] if rnd.random() < 0.5 else planar_set(rnd, rnd.randint(3, 4))
    return product(planar_set(rnd, rnd.randint(3, 5)), other)


def polytope(normals: list[tuple], seed: int):
    """The polytope with these normals and offsets randomized by `seed`, or,
    when unit offsets do not build one, the document with unit offsets."""
    dim = len(normals[0])
    N = NormalSet.from_vectors(dim, normals)
    try:
        P = HPolytope(N, (Fraction(1),) * len(N.normals))
    except InputError:
        return None, {"dim": dim, "facets": [{"normal": vector_to_strings(m), "offset": "1"}
                                             for m in N.normals]}
    P = randomize_offsets(P, seed)
    return P, polytope_to_doc(P)


def run(directory: Path, doc: dict, *argv) -> tuple[int, dict]:
    path = directory / "p.json"
    path.write_text(dump(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command([argv[0], str(path), *argv[1:]])
    return code, json.loads(out.getvalue())


COMMANDS = [("classify",), ("skeleton",), ("illuminate", "--verify"),
            ("fan", "--verify-unique"), ("oracle",)]


@settings(max_examples=100, deadline=None)
@given(normal_sets(), SEEDS, SEEDS)
def test_commands_agree_on_one_polytope(normals, seed, second_seed):
    P, doc = polytope(normals, seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        dirs = directory / "d.json"
        dirs.write_text(dump({"directions": [["1"] * len(normals[0])], "epsilon": "1"}))
        results = {argv[0]: run(directory, doc, *argv) for argv in COMMANDS}
        results["verify"] = run(directory, doc, "verify", "--directions", str(dirs))
        assert all(code != 3 for code, _ in results.values()), results
        if P is None:
            # the document is rejected alike by every command
            assert len({(code, dump(payload)) for code, payload in results.values()}) == 1
            assert next(iter(results.values()))[0] == 2
            return
        n = P.dim
        code, verdict = results["classify"]
        strong = verdict["strongly_monotypic"]
        assert code == (0 if strong and verdict["monotypic"] else 1)
        assert (results["skeleton"][0] == 0) == (results["illuminate"][0] == 0) == strong
        code, oracle = results["oracle"]
        assert code == 0 and oracle["min_illumination_number"] <= 2 ** n
        code, ill = results["illuminate"]
        if code == 0:
            q = len(ill["directions"])
            assert ill["verified"] and q <= 2 ** n
            assert oracle["min_illumination_number"] <= q
            dirs.write_text(dump({"directions": ill["directions"], "epsilon": ill["epsilon"]}))
            code, checked = run(directory, doc, "verify", "--directions", str(dirs))
            assert code == 0 and checked["verified"]
        if verdict["monotypic"]:
            assert results["fan"] == (0, {**results["fan"][1], "unique": True})
            # the normal fan, and with it every cell's lit vertices, does
            # not depend on the offsets
            again = polytope_to_doc(randomize_offsets(P, second_seed))
            assert run(directory, again, "oracle")[1]["min_illumination_number"] \
                == oracle["min_illumination_number"]
