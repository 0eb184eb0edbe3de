"""The document parsers against the literal-by-literal reference of
`tests.formats_reference`, on drawn documents that repeat literals and
carry every kind of malformed entry, and the work they do on a box."""

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from polyillum import cli, formats
from polyillum.cli import run_command
from polyillum.errors import InputError
from polyillum.formats import (dump, parse_directions, parse_polytope, polytope_to_doc,
                               vector_to_strings)
from polyillum.generators import generate
from tests import formats_reference

F = Fraction

# Spellings of each value a drawn document holds, so that one document
# repeats literals and spells one value several ways.
SPELLINGS = {
    F(0): ["0", "-0", "00", "0/5"], F(1): ["1", "01", " 1", "2/2"], F(-1): ["-1", "-01", "-2/2"],
    F(2): ["2", "4/2"], F(-2): ["-2", "-4/2"], F(1, 2): ["1/2", "2/4"], F(-1, 2): ["-1/2"],
    F(1, 4): ["1/4", "2/8"], F(-1, 4): ["-1/4"],
}

# Values that no valid document holds in place of a vector, and of a literal.
NOT_LISTS = st.one_of(
    st.integers(-3, 3), st.floats(), st.booleans(), st.none(),  # JSON numbers and constants
    st.dictionaries(st.sampled_from(["1", "a"]), st.sampled_from(["1", "0"]), max_size=2),
    st.sampled_from(["", "1.5", "abc", "1/", "/2", "--1", "1/-2", "+1", "\u0661", "0x1", "1e3"]),
    st.sampled_from(["1/0", "-3/00", "0/0"]),  # zero denominators
    st.sampled_from(["9" * 4301, "1/" + "7" * 4400]),  # past the int conversion limit
)
MALFORMED_LITERALS = NOT_LISTS | st.lists(st.sampled_from(["1", "0"]), max_size=2)


def spell(draw, value: Fraction) -> str:
    return draw(st.sampled_from(SPELLINGS[value]))


def unit(n, i, s=1):
    return tuple(F(s) if j == i else F(0) for j in range(n))


@st.composite
def polytope_documents(draw):
    """n and a polytope document in R^n, n in 1..3: a box's or a simplex's
    normals, each scaled by 1/2, 1 or 2, or random normals, with offsets
    in {1/2, 1, 2}, then up to three corruptions."""
    n = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["box", "simplex", "random"]))
    if shape == "box":
        normals = [unit(n, i, s) for i in range(n) for s in (1, -1)]
    elif shape == "simplex":
        normals = [unit(n, i) for i in range(n)] + [(F(-1),) * n]
    else:
        normals = [tuple(draw(st.sampled_from([F(-1), F(0), F(1)])) for _ in range(n))
                   for _ in range(draw(st.integers(1, 2 * n + 2)))]
    facets = []
    for normal in normals:
        scale = draw(st.sampled_from([F(1, 2), F(1), F(2)]))
        facets.append({"normal": [spell(draw, scale * x) for x in normal],
                       "offset": spell(draw, draw(st.sampled_from([F(1, 2), F(1), F(2)])))})
    doc = {"dim": n, "facets": facets}
    for _ in range(draw(st.integers(0, 3))):
        corrupt_polytope(draw, doc)
    return n, doc


def corrupt_polytope(draw, doc):
    facets = doc.get("facets")
    if not isinstance(facets, list) or not facets:
        return
    i = draw(st.integers(0, len(facets) - 1))
    facet = facets[i]
    kind = draw(st.sampled_from(["entry", "offset", "vector", "key", "facet", "document"]))
    if not isinstance(facet, dict):
        return
    if kind == "entry" and isinstance(facet.get("normal"), list) and facet["normal"]:
        facet["normal"][draw(st.integers(0, len(facet["normal"]) - 1))] = draw(MALFORMED_LITERALS)
    elif kind == "offset":
        facet["offset"] = draw(MALFORMED_LITERALS)
    elif kind == "vector":
        facet["normal"] = draw(NOT_LISTS)
    elif kind == "key":
        facet.pop(draw(st.sampled_from(["normal", "offset"])), None)
    elif kind == "facet":
        facets[i] = draw(st.sampled_from([None, "1", ["1", "0"], 1]))
    elif kind == "document":
        key = draw(st.sampled_from(["dim", "facets"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(MALFORMED_LITERALS)


@st.composite
def direction_documents(draw, n):
    """A directions document of sign vectors in R^n with epsilon in
    {1/4, 1/2, 1}, then up to three corruptions."""
    directions = [[spell(draw, draw(st.sampled_from([F(-1), F(0), F(1)]))) for _ in range(n)]
                  for _ in range(draw(st.integers(1, 2 ** n)))]
    doc = {"epsilon": spell(draw, draw(st.sampled_from([F(1, 4), F(1, 2), F(1)]))),
           "directions": directions}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["entry", "vector", "epsilon", "key", "list"]))
        if kind == "entry":
            v = directions[draw(st.integers(0, len(directions) - 1))]
            if isinstance(v, list):
                v[draw(st.integers(0, n - 1))] = draw(MALFORMED_LITERALS)
        elif kind == "vector":
            directions[draw(st.integers(0, len(directions) - 1))] = draw(NOT_LISTS)
        elif kind == "epsilon":
            doc["epsilon"] = draw(MALFORMED_LITERALS)
        elif kind == "key":
            doc.pop(draw(st.sampled_from(["epsilon", "directions"])), None)
        else:
            doc["directions"] = draw(st.sampled_from([[], {}, "1", None]))
    return doc


def outcome(parse, text):
    """The parsed value, or the InputError's message and facet index."""
    try:
        return "ok", parse(text)
    except InputError as err:
        return "error", str(err), err.facet_index


def polytope_outcome(parse, text):
    result = outcome(parse, text)
    if result[0] == "ok":
        P = result[1]
        return "ok", P.normal_set, P.offsets, P.vertices
    return result


def cli_run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run_command(argv)
    return code, out.getvalue()


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_documents(self, data):
        n, doc = data.draw(polytope_documents())
        dirs = data.draw(direction_documents(n))
        text, dirs_text = json.dumps(doc), json.dumps(dirs)
        assert (polytope_outcome(parse_polytope, text)
                == polytope_outcome(formats_reference.parse_polytope, text))
        assert outcome(parse_directions, dirs_text) == outcome(
            formats_reference.parse_directions, dirs_text)
        with tempfile.TemporaryDirectory() as tmp:
            polytope, directions = Path(tmp, "p.json"), Path(tmp, "d.json")
            polytope.write_text(text)
            directions.write_text(dirs_text)
            for argv in (["classify", str(polytope)],
                         ["verify", str(polytope), "--directions", str(directions)]):
                with mock.patch.object(cli, "parse_polytope", formats_reference.parse_polytope), \
                        mock.patch.object(cli, "parse_directions",
                                          formats_reference.parse_directions):
                    expected = cli_run(argv)
                assert cli_run(argv) == expected

    @pytest.mark.parametrize("entry", [["1"], {"1": "1"}], ids=["list", "dict"])
    def test_an_unhashable_entry_is_a_bad_literal(self, tmp_path, entry):
        # the entry never reaches the dict of literals, whose lookup would
        # raise TypeError
        name = type(entry).__name__
        doc = {"dim": 2, "facets": [{"normal": [entry, "1"], "offset": "1"}]}
        polytope = tmp_path / "p.json"
        polytope.write_text(json.dumps(doc))
        assert cli_run(["classify", str(polytope)]) == (
            2, f'{{"error":"facet 0: rational literal must be a string, got {name}"}}\n')
        polytope.write_text(dump(polytope_to_doc(generate("box", (2,)))))
        directions = tmp_path / "d.json"
        directions.write_text(json.dumps({"epsilon": "1/2", "directions": [[entry, "1"]]}))
        assert cli_run(["verify", str(polytope), "--directions", str(directions)]) == (
            2, f'{{"error":"rational literal must be a string, got {name}"}}\n')


BOX7 = dump(polytope_to_doc(generate("box", (7,))))
# the box's 128 vertices as directions
BOX7_DIRECTIONS = json.dumps({"epsilon": "1/2", "directions": [
    vector_to_strings(v.point) for v in generate("box", (7,)).vertices]})


class TestWork:
    @staticmethod
    def count_parse_rational(monkeypatch):
        calls = []
        parse_rational = formats.parse_rational

        def counting(text):
            calls.append(text)
            return parse_rational(text)

        monkeypatch.setattr(formats, "parse_rational", counting)
        return calls

    def test_box7_parses_its_three_literals_once(self, monkeypatch):
        # 14 facets of 7 entries and an offset each, all "1", "0" or "-1"
        calls = self.count_parse_rational(monkeypatch)
        parse_polytope(BOX7)
        assert sorted(calls) == ["-1", "0", "1"]

    def test_box7_directions_parse_their_three_literals_once(self, monkeypatch):
        # epsilon and 128 directions of 7 entries, all "1" or "-1"
        calls = self.count_parse_rational(monkeypatch)
        directions, epsilon = parse_directions(BOX7_DIRECTIONS)
        assert len(directions) == 128 and epsilon == F(1, 2)
        assert sorted(calls) == ["-1", "1", "1/2"]

    def test_box7_makes_five_fractions(self, monkeypatch):
        # the three literals and the vertices' two distinct coordinates: the
        # offsets are not wrapped again, and the walk, not an LP, decides
        # that the normals positively span
        callers = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_qualname)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        P = parse_polytope(BOX7)
        monkeypatch.undo()
        assert len(P.vertices) == 128
        assert sorted(callers) == ["_Fractions.__missing__"] * 2 + ["parse_rational"] * 3
