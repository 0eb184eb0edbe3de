import argparse
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from polyillum import classify
from polyillum.classify import check_monotypy, check_monotypy_mss, check_strong_monotypy
from polyillum.cli import COMMANDS, _parse, build_parser, run_command
from polyillum.errors import InputError
from polyillum.formats import dump, parse_polytope, polytope_to_doc
from polyillum.generators import FAMILIES, generate, randomize_offsets
from polyillum.illuminate import build_illumination_set, compute_epsilon
from polyillum.kernel import format_rational
from polyillum.polytope import HPolytope
from polyillum.position import is_conical_position
from tests.conftest import (box, count_lps, hexagon, n_over_apex, rank_three_certificates,
                            set_n, sign_vectors_26, square_pyramid)

F = Fraction

TRIANGLE_DOC = ('{"dim":2,"facets":['
                '{"normal":["1","0"],"offset":"1"},'
                '{"normal":["0","1"],"offset":"1"},'
                '{"normal":["-1","-1"],"offset":"1"}]}')


class TestFormats:
    def test_parse_triangle(self):
        P = parse_polytope(TRIANGLE_DOC)
        assert len(P.vertices) == 3

    def test_duplicate_direction_error(self):
        doc = ('{"dim":2,"facets":['
               '{"normal":["1","0"],"offset":"1"},'
               '{"normal":["2","0"],"offset":"1"},'
               '{"normal":["-1","0"],"offset":"1"},'
               '{"normal":["0","1"],"offset":"1"},'
               '{"normal":["0","-1"],"offset":"1"}]}')
        with pytest.raises(InputError, match="positive multiple"):
            parse_polytope(doc)

    def test_unbounded_error(self):
        doc = '{"dim":2,"facets":[{"normal":["1","0"],"offset":"1"}]}'
        with pytest.raises(InputError, match="unbounded"):
            parse_polytope(doc)

    def test_bad_rational_names_facet(self):
        doc = '{"dim":1,"facets":[{"normal":["1"],"offset":"1/0"}]}'
        with pytest.raises(InputError, match="facet 0"):
            parse_polytope(doc)

    @pytest.mark.parametrize("P", [box(3), hexagon(), square_pyramid()],
                             ids=["cube", "hexagon", "pyramid"])
    def test_round_trip(self, P):
        Q = parse_polytope(dump(polytope_to_doc(P)))
        assert Q.normal_set == P.normal_set
        assert Q.offsets == P.offsets


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(dump(polytope_to_doc(box(3))))
    return str(path)


@pytest.fixture
def pyramid_file(tmp_path):
    path = tmp_path / "pyramid.json"
    path.write_text(dump(polytope_to_doc(square_pyramid())))
    return str(path)


class TestCli:
    def test_classify_cube(self, capsys, cube_file):
        code, payload = run(capsys, "classify", cube_file)
        assert code == 0
        assert payload == {"strongly_monotypic": True, "monotypic": True}

    def test_classify_pyramid_exits_one_with_certificate(self, capsys, pyramid_file):
        code, payload = run(capsys, "classify", pyramid_file)
        assert code == 1
        assert payload["strongly_monotypic"] is False
        assert payload["monotypic"] is False
        cert = payload["certificates"]["conical_subset"]
        assert sorted(cert) == sorted([
            ["1", "0", "1"], ["-1", "0", "1"], ["0", "1", "1"], ["0", "-1", "1"]])

    def test_classify_pyramid_payload(self, capsys, pyramid_file):
        # all three routes' certificates, in the canonical normal order
        code, payload = run(capsys, "classify", pyramid_file)
        sides = [["1", "0", "1"], ["0", "1", "1"], ["0", "-1", "1"], ["-1", "0", "1"]]
        assert code == 1
        assert payload == {
            "strongly_monotypic": False,
            "monotypic": False,
            "certificates": {
                "conical_subset": sides,
                "uncaptured_conical_subset": sides,
                "intersecting_primitive_subsets": {
                    "subset_1": [["1", "0", "1"], ["-1", "0", "1"]],
                    "subset_2": [["0", "1", "1"], ["0", "-1", "1"]],
                    "common_point": ["0", "0", "2"],
                },
            },
        }

    @pytest.mark.parametrize("P,tests", [(box(3), 0), (square_pyramid(), 1)],
                             ids=["box3", "pyramid"])
    def test_classify_tests_each_subset_for_conical_position_once(
            self, capsys, monkeypatch, tmp_path, P, tests):
        # strong monotypy is read off the circuits: box3 has no balanced
        # circuit, and the pyramid's certificate is re-checked once
        calls = []

        def counting(points):
            calls.append(points)
            return is_conical_position(points)

        monkeypatch.setattr(classify, "is_conical_position", counting)
        for check in (check_strong_monotypy, check_monotypy, check_monotypy_mss):
            check.cache_clear()
        path = tmp_path / "p.json"
        path.write_text(dump(polytope_to_doc(P)))
        run(capsys, "classify", str(path))
        assert len(calls) == len(set(calls)) == tests

    def test_classify_exits_three_when_the_monotypy_routes_disagree(
            self, capsys, monkeypatch, cube_file):
        monkeypatch.setattr(classify, "check_monotypy_mss", lambda N: (False, None))
        code, payload = run(capsys, "classify", cube_file)
        assert code == 3
        assert payload == {"error": "the two monotypy characterizations disagree"}

    def test_classify_has_no_method_flag(self, capsys, cube_file):
        assert run_command(["classify", "--method", "conical", cube_file]) == 2

    def test_skeleton(self, capsys, cube_file):
        code, payload = run(capsys, "skeleton", cube_file)
        assert code == 0
        assert payload["product_of_part_sizes"] == 8
        assert len(payload["parts"]) == 3

    def test_skeleton_pyramid_exits_one(self, capsys, pyramid_file):
        code, payload = run(capsys, "skeleton", pyramid_file)
        assert code == 1
        assert "certificate" in payload

    def test_skeleton_agrees_with_classify_on_set_n(self, capsys, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(dump(polytope_to_doc(set_n())))
        code, payload = run(capsys, "skeleton", str(path))
        assert code == 1
        _, verdict = run(capsys, "classify", str(path))
        assert verdict["strongly_monotypic"] is False
        assert payload["certificate"] == verdict["certificates"]["conical_subset"]

    def test_illuminate_verify(self, capsys, tmp_path):
        path = tmp_path / "simplex3.json"
        path.write_text(dump(polytope_to_doc(generate("simplex", (3,)))))
        code, payload = run(capsys, "illuminate", str(path), "--verify")
        assert code == 0
        assert payload["verified"] is True
        assert len(payload["directions"]) == 4

    def test_verify_subcommand(self, capsys, tmp_path):
        path = tmp_path / "hex.json"
        path.write_text(dump(polytope_to_doc(hexagon())))
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps({
            "epsilon": "1/4",
            "directions": [["1", "1"], ["-2", "1"], ["1", "-2"]]}))
        code, payload = run(capsys, "verify", str(path), "--directions", str(dirs))
        assert code == 0 and payload["verified"] is True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epsilon": "1/4", "directions": [["1", "1"]]}))
        code, payload = run(capsys, "verify", str(path), "--directions", str(bad))
        assert code == 1 and payload["verified"] is False

    def test_fan(self, capsys, cube_file):
        code, payload = run(capsys, "fan", cube_file, "--verify-unique")
        assert code == 0
        assert payload["unique"] is True
        assert len(payload["cones"]) == 8

    def test_fan_pyramid_is_input_error(self, capsys, pyramid_file):
        code, payload = run(capsys, "fan", pyramid_file)
        assert code == 2
        assert "not simple" in payload["error"]

    def test_oracle(self, capsys, cube_file):
        code, payload = run(capsys, "oracle", cube_file)
        assert code == 0
        assert payload["min_illumination_number"] == 8

    def test_gen_round_trips(self, capsys):
        code, payload = run(capsys, "gen", "box", "--dims", "2")
        assert code == 0
        P = parse_polytope(json.dumps(payload))
        assert len(P.vertices) == 4

    def test_gen_randomized_is_deterministic(self, capsys):
        code1, p1 = run(capsys, "gen", "simplex", "--dims", "2", "--seed", "7")
        code2, p2 = run(capsys, "gen", "simplex", "--dims", "2", "--seed", "7")
        assert code1 == code2 == 0
        assert p1 == p2
        assert p1 == polytope_to_doc(randomize_offsets(generate("simplex", (2,)), 7))
        assert p1 != run(capsys, "gen", "simplex", "--dims", "2")[1]
        assert run_command(["gen", "simplex", "--dims", "2", "--randomize-offsets"]) == 2

    def test_gen_beyond_the_vertex_guard_is_input_error(self, capsys):
        # C(24, 12) = 2704156 vertex candidates
        code, payload = run(capsys, "gen", "box", "--dims", "12")
        assert code == 2 and "vertex candidates" in payload["error"]

    @pytest.mark.parametrize("family,dim", [("box", "99999999999"), ("simplex", "100000000000")])
    def test_gen_far_beyond_the_vertex_guard_builds_no_normal(self, family, dim):
        # the guard sees the facet count before any normal is built; the
        # child's address space is capped at 1 GiB, so a guard that comes
        # too late fails this test instead of exhausting memory
        code = ("import sys, time; from polyillum.cli import run_command; "
                "t = time.perf_counter(); "
                f"code = run_command(['gen', {family!r}, '--dims', {dim!r}]); "
                "print(time.perf_counter() - t, file=sys.stderr); sys.exit(code)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)))
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["error"].endswith(
            "vertex candidates exceed the enumeration guard (1000000)")
        assert float(proc.stderr) < 1

    def test_gen_guard_runs_before_any_lp(self, capsys, monkeypatch):
        calls = count_lps(monkeypatch)
        code, payload = run(capsys, "gen", "box", "--dims", "40")
        assert code == 2
        assert payload["error"].endswith(
            "vertex candidates exceed the enumeration guard (1000000)")
        assert calls == []

    def test_gen_to_file(self, capsys, tmp_path):
        out = tmp_path / "p.json"
        code, payload = run(capsys, "gen", "box", "--dims", "3",
                            "--output", str(out))
        assert code == 0 and payload == {"written": str(out)}
        assert len(parse_polytope(out.read_text()).vertices) == 8

    def test_gen_to_an_unwritable_path_is_input_error(self, capsys, tmp_path):
        out = tmp_path / "missing" / "p.json"
        code, payload = run(capsys, "gen", "box", "--dims", "2", "-o", str(out))
        assert code == 2 and payload["error"].startswith(f"cannot write {out}: ")

    def test_a_closed_stdout_exits_two_without_a_traceback(self):
        # the pipe's read end is closed before the child starts, so its
        # first write fails
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "polyillum.cli", "gen", "simplex_product", "--dims", "3", "3"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_output_is_byte_identical_across_runs(self, capsys, cube_file):
        run_command(["classify", cube_file])
        first = capsys.readouterr().out
        run_command(["classify", cube_file])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_file_is_input_error(self, capsys):
        code, payload = run(capsys, "classify", "/nonexistent/p.json")
        assert code == 2 and "error" in payload

    def test_usage_error_exit_code(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_the_package_runs_as_a_module(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-m", "polyillum", "gen", "box", "--dims", "2"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == dump(polytope_to_doc(box(2))) + "\n"

    def test_pretty_flag_changes_layout_not_payload(self, capsys, cube_file):
        code, compact = run(capsys, "classify", cube_file)
        code2, pretty = run(capsys, "--pretty", "classify", cube_file)
        assert code == code2 == 0
        assert compact == pretty


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def parsers_built(monkeypatch):
    """The progs of the `ArgumentParser`s built while the test runs; the
    whole tree is not cached when it starts."""
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


# One well-formed call of each command, after the command name; "p.json"
# is a square and "d.json" a direction set that illuminates it.
WELL_FORMED = {
    "classify": ["p.json"],
    "skeleton": ["p.json"],
    "illuminate": ["p.json", "--verify"],
    "verify": ["p.json", "--directions", "d.json"],
    "fan": ["p.json", "--verify-unique"],
    "oracle": ["p.json"],
    "gen": ["box", "--dims", "2"],
}
# the parsers of the whole tree, as `build_parser` builds them
WHOLE_TREE = ["polyillum", *(f"polyillum {name}" for name in COMMANDS)]


@pytest.fixture
def square_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text(dump(polytope_to_doc(box(2))))
    (tmp_path / "d.json").write_text(json.dumps(
        {"epsilon": "1/2", "directions": sign_vectors(2)}))


class TestParsers:
    """A well-formed call is read off `COMMANDS` and builds no parser; the
    whole argparse tree is built only for the argv that `_match` declines."""

    def test_the_commands_are_the_subcommands(self):
        assert set(WELL_FORMED) == set(COMMANDS)

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
    @pytest.mark.parametrize("command", sorted(WELL_FORMED))
    def test_a_well_formed_call_builds_one_parser(
            self, capsys, square_files, parsers_built, command, pretty):
        # it builds none: the name is kept so that the test IDs stay stable
        assert run_command([*pretty, command, *WELL_FORMED[command]]) == 0
        assert parsers_built == []

    def test_importing_the_cli_builds_no_parser(self, tmp_path, square_files):
        # a fresh interpreter: neither import nor any well-formed call loads
        # argparse, or the locale module its messages would load, nor
        # dataclasses and the inspect module it loads
        script = (
            "import contextlib, io, json, sys\n"
            "from polyillum.cli import run_command\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [run_command(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(codes, sorted({'argparse', 'dataclasses', 'inspect', 'locale'}"
            " & set(sys.modules)))\n")
        calls = [[command, *rest] for command, rest in WELL_FORMED.items()]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[0] * len(calls)} []\n"

    def test_a_usage_error_or_help_leaves_later_calls_unchanged(self, capsys):
        gen = ["gen", "box", "--dims", "2"]
        assert [run_command(argv) for argv in ([], gen, ["--help"], ["gen", "--dims", "2"], gen)
                ] == [2, 0, 0, 2, 0]
        out = capsys.readouterr().out.splitlines()
        assert out[0] == out[-1] == dump(polytope_to_doc(box(2)))

    # each command's argv forms: options before and after the positional,
    # `--`, unique abbreviations, `-o` and several `--dims` values
    EQUIVALENT_FORMS = {
        "classify": [["p.json"], ["--", "p.json"]],
        "skeleton": [["p.json"], ["--", "p.json"]],
        "oracle": [["p.json"], ["--", "p.json"]],
        "illuminate": [["p.json"], ["p.json", "--verify"], ["--verify", "p.json"],
                       ["--ver", "p.json"], ["--verify", "--", "p.json"]],
        "verify": [["p.json", "--directions", "d.json"], ["--directions", "d.json", "p.json"],
                   ["--dir", "d.json", "p.json"], ["--directions=d.json", "--", "p.json"]],
        "fan": [["p.json"], ["p.json", "--verify-unique"], ["--verify-u", "p.json"],
                ["--verify-unique", "--", "p.json"]],
        "gen": [["box", "--dims", "2"], ["--dims", "2", "1", "--", "simplex_product"],
                ["simplex_product", "--dims", "2", "1", "3", "--seed", "3", "-o", "p.json"],
                ["-o", "p.json", "box", "--dims", "3"], ["box", "-op.json"],
                ["box", "--di", "2", "--se", "1", "--out", "p.json"], ["square_pyramid"]],
    }
    # the tokens that make `_match` decline a form: `--`, abbreviations, `=`
    # and `-oFILE`
    DECLINED = {"--", "--ver", "--dir", "--verify-u", "--di", "--se", "--out",
                "--directions=d.json", "-op.json"}

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
    @pytest.mark.parametrize("command,rest", [
        (command, rest) for command, forms in EQUIVALENT_FORMS.items() for rest in forms])
    def test_the_command_parser_agrees_with_the_whole_tree(
            self, parsers_built, command, rest, pretty):
        argv = [*pretty, command, *rest]
        full = build_parser().parse_args(argv)
        build_parser.cache_clear()
        del parsers_built[:]
        assert vars(_parse(argv)) == vars(full)
        assert parsers_built == (WHOLE_TREE if self.DECLINED & {*rest} else [])


# Every token of the differential test below: each command, every option
# and a unique abbreviation of each, `=` and attached values, `--`, `-`, an
# empty string, a negative number, ints, a non-int, each family and a file.
TOKENS = [*COMMANDS, "--pretty", "--pre", "-h", "--help", "--he",
          "--verify", "--ver", "--verify-unique", "--verify-u", "--directions", "--dir",
          "--seed", "--se", "--output", "--out", "-o", "--dims", "--di",
          "--directions=d.json", "--seed=1", "--output=p.json", "--dims=2", "-op.json",
          "--", "-", "", "-1", "0", "1", "2", "3", "x", *FAMILIES, "p.json"]
FORMS = [[command, *rest] for command, forms in TestParsers.EQUIVALENT_FORMS.items()
         for rest in forms]


@st.composite
def near_calls(draw) -> list:
    """A form of `TestParsers.EQUIVALENT_FORMS`, after `--pretty` or not,
    with up to three tokens inserted, replaced or deleted."""
    argv = list(draw(st.sampled_from(FORMS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            argv.insert(i, draw(st.sampled_from(TOKENS)))
        elif i < len(argv):
            argv[i:i + 1] = [draw(st.sampled_from(TOKENS))] if edit == "replace" else []
    return draw(st.sampled_from([[], ["--pretty"]])) + argv


class TestMatcherAgainstTheWholeTree:
    """Whatever argv `_parse` reads, it reads as the whole argparse tree
    does, and whatever the tree refuses or answers with help, `run_command`
    refuses or answers with the same bytes and exit code."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=8) | near_calls())
    # a value too many for an option of one value, none or a bad one for
    # an option of several, a family outside the choices, an option where
    # a file or a value belongs, and a required option left out
    @example(["verify", "p.json", "--directions", "d.json", "x"])
    @example(["gen", "box", "--seed", "1", "2"])
    @example(["gen", "box", "--dims"])
    @example(["gen", "box", "--dims", "2", "x"])
    @example(["gen", "x", "--dims", "2", "1"])
    @example(["classify", "-h"])
    @example(["gen", "box", "-o", "-h"])
    @example(["verify", "p.json"])
    def test_argv(self, argv):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    full = vars(build_parser().parse_args(argv))
                except SystemExit as exit_:
                    full, code = None, 2 if exit_.code else 0
            if full is not None:
                assert vars(_parse(argv)) == full
                return
            got_out, got_err = io.StringIO(), io.StringIO()
            with redirect_stdout(got_out), redirect_stderr(got_err):
                assert run_command(argv) == code
            assert (got_out.getvalue(), got_err.getvalue()) == (out.getvalue(), err.getvalue())


def sign_vectors(n: int) -> list[list[str]]:
    return [[str(s) for s in v] for v in product((1, -1), repeat=n)]


USAGE = json.loads((Path(__file__).parent / "golden" / "usage.json").read_text())


class TestUsagePins:
    """The exact help and usage errors, with argparse wrapping to 80
    columns; "p.json" is a square."""

    @pytest.mark.parametrize("pin", USAGE, ids=[" ".join(pin["argv"]) or "(none)"
                                                for pin in USAGE])
    def test_output(self, capsys, monkeypatch, square_files, pin):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_command(pin["argv"]) == pin["code"]
        out, err = capsys.readouterr()
        assert (out, err) == (pin["stdout"], pin["stderr"])


def facets_doc(dim, facets) -> str:
    return json.dumps({"dim": dim, "facets": [
        {"normal": [str(x) for x in normal], "offset": str(offset)}
        for normal, offset in facets]}, separators=(",", ":"))


SQUARE = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]

# Each rejected document, with the exact stdout line of `classify` and of
# `illuminate` on it; every one exits 2.
GOLDEN_ERRORS = {
    "unbounded": (
        facets_doc(2, [((1, 0), 1), ((0, 1), 1)]),
        '{"error":"constraint system is unbounded along (-1, 0)","witness":["-1","0"]}'),
    "rank_deficient": (
        facets_doc(2, [((1, 0), 1), ((-1, 0), 1)]),
        '{"error":"constraint system is unbounded along (0, 1)","witness":["0","1"]}'),
    "empty": (
        facets_doc(1, [((1,), -2), ((-1,), 1)]),
        '{"error":"constraint system is empty (infeasible)"}'),
    "redundant_facet": (
        facets_doc(2, SQUARE + [((1, 1), 3)]),
        '{"error":"facet with normal (1, 1) is redundant (offset never attained)"}'),
    "duplicate_direction": (
        facets_doc(2, SQUARE[:1] + [((2, 0), 1)] + SQUARE[1:]),
        '{"error":"normal 1 is a positive multiple of normal 0"}'),
    "negative_dimension": (
        facets_doc(-1, [((), 1)]),
        '{"error":"dimension must be positive, got -1"}'),
    "short_normal": (
        facets_doc(2, [((1,), 1)] + SQUARE[1:]),
        '{"error":"normal 0 has dimension 1, expected 2"}'),
    # the segment x = 0, |y| <= 1
    "flat": (
        facets_doc(2, [((1, 0), 0), ((-1, 0), 0)] + SQUARE[2:]),
        '{"error":"polytope is not full-dimensional (normal (1, 0) is tight at every vertex)"}'),
}


class TestGoldenErrors:
    """The exact payloads of the rejections that input validation emits."""

    @pytest.mark.parametrize("command", ["classify", "illuminate"])
    @pytest.mark.parametrize("name", sorted(GOLDEN_ERRORS))
    def test_rejected_document(self, capsys, tmp_path, command, name):
        doc, expected = GOLDEN_ERRORS[name]
        path = tmp_path / "p.json"
        path.write_text(doc)
        assert run_command([command, str(path)]) == 2
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("facets,message", [
        ([((1, 1), 3)] + SQUARE,
         "facet with normal ({0}, {0}) is redundant (offset never attained)"),
        ([((1, 1), 2)] + SQUARE,
         "facet with normal ({0}, {0}) is redundant (tight set is not a facet)"),
        ([((1, 0), 0), ((-1, 0), 0)] + SQUARE[2:],
         "polytope is not full-dimensional (normal ({0}, 0) is tight at every vertex)"),
    ], ids=["never_attained", "not_a_facet", "flat"])
    def test_a_huge_normal_is_quoted_short(self, capsys, tmp_path, facets, message):
        # the first facet's normal and offset are scaled by a 3,500-digit
        # integer, which makes that normal the first in order; an entry of
        # more than 40 characters is quoted by its length
        scale = 10 ** 3499 + 7
        (normal, offset), *rest = facets
        facets = [(tuple(scale * x for x in normal), scale * offset), *rest]
        path = tmp_path / "p.json"
        path.write_text(facets_doc(2, facets))
        with pytest.raises(InputError) as exc:
            HPolytope.from_facets(2, facets)
        assert exc.value.facet_index == 0
        assert run_command(["classify", str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == str(exc.value) == message.format("<3500 characters>")
        assert len(error) < 300

    @pytest.mark.parametrize("command", [
        "classify", "skeleton", "illuminate", "fan", "oracle", "verify"])
    def test_a_point_in_r1(self, capsys, tmp_path, command):
        # e and -e are both tight at the one vertex, which the flatness
        # check, run before the facet test, rejects
        path = tmp_path / "p.json"
        path.write_text(facets_doc(1, [((1,), "2/3"), ((-1,), "-2/3")]))
        argv = [command, str(path)]
        if command == "verify":
            directions = tmp_path / "d.json"
            directions.write_text('{"epsilon":"1/2","directions":[["1"]]}')
            argv += ["--directions", str(directions)]
        assert run_command(argv) == 2
        assert capsys.readouterr().out == (
            '{"error":"polytope is not full-dimensional (normal (1) is tight at every '
            'vertex)"}\n')

    def test_fan_on_the_square_pyramid(self, capsys, pyramid_file):
        assert run_command(["fan", pyramid_file]) == 2
        assert capsys.readouterr().out == (
            '{"error":"vertex (0, 0, 1) is not simple: 4 tight normals '
            '((1, 0, 1), (0, 1, 1), (0, -1, 1), (-1, 0, 1)) in dimension 3"}\n')

    def test_gen_beyond_the_vertex_guard(self, capsys):
        assert run_command(["gen", "box", "--dims", "12"]) == 2
        assert capsys.readouterr().out == (
            '{"error":"2704156 vertex candidates exceed the enumeration guard '
            '(1000000)"}\n')


SP21 = ["simplex_product", "--dims", "2", "1", "--seed", "3"]
BOX4 = ["box", "--dims", "4"]
# the directions `illuminate` builds for SP21, with its epsilon
SP21_DIRECTIONS = [["-2", "1", "-1"], ["-2", "1", "1"], ["1", "-2", "-1"],
                   ["1", "-2", "1"], ["1", "1", "-1"], ["1", "1", "1"]]

# Each run: the `gen` arguments of its polytope, its directions document
# (None for `illuminate --verify`) and its exit code. The exact stdout is
# tests/golden/<name>.json. A failing set drops a direction, so one vertex
# is lit by none, and takes an epsilon that leaves the polytope.
GOLDEN_RUNS = {
    "verify_sp21_pass": (SP21, {"epsilon": "49/64", "directions": SP21_DIRECTIONS}, 0),
    "verify_sp21_fail": (SP21, {"epsilon": "3", "directions": SP21_DIRECTIONS[1:]}, 1),
    "verify_box4_pass": (BOX4, {"epsilon": "1/2", "directions": sign_vectors(4)}, 0),
    "verify_box4_fail": (BOX4, {"epsilon": "2", "directions": sign_vectors(4)[1:]}, 1),
    "verify_box4_wrong_dimension": (
        BOX4, {"epsilon": "49/64", "directions": SP21_DIRECTIONS}, 2),
    "illuminate_sp22_seed5": (
        ["simplex_product", "--dims", "2", "2", "--seed", "5"], None, 0),
}
GOLDEN = Path(__file__).parent / "golden"
SP221 = ["simplex_product", "--dims", "2", "2", "1", "--seed", "5"]
# Each run of a command that reads the circuit table: its polytope, as
# `gen` arguments or a function that builds it, its argv after the file and
# its exit code. The exact stdout is tests/golden/<command>_<name>.json. The
# normals of SP221 split into three simplices; the hexagon's are connected.
# The square pyramid and N over its apex each have a vertex with four tight
# normals, so neither is monotypic and `fan` refuses both.
GOLDEN_COMMANDS = {
    f"{argv[0]}_{name}": (source, argv, code)
    for name, source, codes in (("sp221_seed5", SP221, (0, 0, 0)), ("hexagon", hexagon, (0, 0, 0)),
                                ("pyramid", ["square_pyramid"], (1, 2, 0)),
                                ("n_apex", n_over_apex, (1, 2, 0)))
    for argv, code in zip((["classify"], ["fan", "--verify-unique"], ["oracle"]), codes)
}
# the heaviest shapes of the benchmark's oracle workload
GOLDEN_COMMANDS.update({
    f"oracle_{name}_seed5": ([family, "--dims", *dims, "--seed", "5"], ["oracle"], 0)
    for name, family, dims in (("simplex7", "simplex", ["7"]),
                               ("sp33", "simplex_product", ["3", "3"]),
                               ("box4", "box", ["4"]))
})
# illuminate --verify on three parts of unequal size and on parts of size 3
GOLDEN_COMMANDS.update({
    f"illuminate_{name}": (source, ["illuminate", "--verify"], 0)
    for name, source in (("sp221_seed5", SP221), ("hexagon", hexagon))
})
# skeleton on a basis found by one swap over two passes (the hexagon), on
# three parts and on four, and on N, refused with its conical certificate
GOLDEN_COMMANDS.update({
    f"skeleton_{name}": (source, ["skeleton"], code)
    for name, source, code in (("hexagon", hexagon, 0), ("sp221_seed5", SP221, 0),
                               ("box4_seed5", ["box", "--dims", "4", "--seed", "5"], 0),
                               ("set_n", set_n, 1))
})

# classify on the 26 nonzero vectors of {-1, 0, 1}^3, whose 5,805 circuits
# give a conical, an uncaptured and an MSS certificate
GOLDEN_COMMANDS["classify_sign_vectors_26"] = (sign_vectors_26, ["classify"], 1)
# classify on nine normals of R^4 whose conical and uncaptured certificates
# both have rank 3: `is_conical_position` decides them by its LP, as does
# `captured` the further normals
GOLDEN_COMMANDS["classify_rank3_r4"] = (rank_three_certificates, ["classify"], 1)


class TestGoldenRuns:
    """The exact payloads of successful and failing verifications."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_run(self, capsys, tmp_path, name):
        gen, directions, code = GOLDEN_RUNS[name]
        polytope = tmp_path / "p.json"
        assert run_command(["gen", *gen, "--output", str(polytope)]) == 0
        capsys.readouterr()
        if directions is None:
            argv = ["illuminate", str(polytope), "--verify"]
        else:
            path = tmp_path / "d.json"
            path.write_text(json.dumps(directions))
            argv = ["verify", str(polytope), "--directions", str(path)]
        assert run_command(argv) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_command(self, capsys, tmp_path, name):
        source, argv, code = GOLDEN_COMMANDS[name]
        polytope = tmp_path / "p.json"
        if callable(source):
            polytope.write_text(dump(polytope_to_doc(source())))
        else:
            assert run_command(["gen", *source, "--output", str(polytope)]) == 0
            capsys.readouterr()
        assert run_command([argv[0], str(polytope), *argv[1:]]) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


class TestMalformedLiterals:
    """Malformed input ends in exit 2 with a JSON error payload, never in
    a traceback (which would exit 1, the code of a negative verdict)."""

    def test_classify_json_number_coordinates(self, capsys, tmp_path):
        path = tmp_path / "numbers.json"
        path.write_text(TRIANGLE_DOC.replace('["1","0"]', "[1, 0]"))
        code, payload = run(capsys, "classify", str(path))
        assert code == 2
        assert "facet 0" in payload["error"] and "string" in payload["error"]

    def test_classify_json_number_offset(self, capsys, tmp_path):
        path = tmp_path / "numbers.json"
        path.write_text(TRIANGLE_DOC.replace('"offset":"1"', '"offset":1', 1))
        code, payload = run(capsys, "classify", str(path))
        assert code == 2 and "string" in payload["error"]

    @pytest.mark.parametrize("doc", [
        {"epsilon": "1/4", "directions": [[1, 1], ["-2", "1"], ["1", "-2"]]},
        {"epsilon": 0.25, "directions": [["1", "1"], ["-2", "1"], ["1", "-2"]]},
    ], ids=["direction", "epsilon"])
    def test_verify_directions_json_numbers(self, capsys, tmp_path, doc):
        path = tmp_path / "hex.json"
        path.write_text(dump(polytope_to_doc(hexagon())))
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps(doc))
        code, payload = run(capsys, "verify", str(path), "--directions", str(dirs))
        assert code == 2 and "string" in payload["error"]

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"dim":' + "1" * 5000 + ',"facets":[]}',
        TRIANGLE_DOC.replace('"dim":2', '"dim":Infinity'),
        TRIANGLE_DOC.replace('"dim":2', '"dim":2.5'),
        TRIANGLE_DOC.replace('"dim":2', '"dim":"2"'),
        TRIANGLE_DOC.replace('["1","0"]', '"10"'),
        TRIANGLE_DOC.replace('["1","0"]', '{"1":"","0":""}'),
        TRIANGLE_DOC.replace('["1","0"]', '["\u0661","0"]'),
    ], ids=["deep-nesting", "5000-digit-integer", "infinite-dim", "float-dim",
            "string-dim", "string-normal", "object-normal", "non-ascii-digit"])
    def test_classify_malformed_document(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, payload = run(capsys, "classify", str(path))
        assert code == 2 and "error" in payload

    def test_classify_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(TRIANGLE_DOC.replace('"1"', '"\xff"').encode("latin-1"))
        code, payload = run(capsys, "classify", str(path))
        assert code == 2 and "cannot read" in payload["error"]

    def test_verify_string_direction(self, capsys, tmp_path):
        path = tmp_path / "hex.json"
        path.write_text(dump(polytope_to_doc(hexagon())))
        dirs = tmp_path / "dirs.json"
        dirs.write_text(json.dumps({"epsilon": "1/4",
                                    "directions": ["11", ["-2", "1"], ["1", "-2"]]}))
        code, payload = run(capsys, "verify", str(path), "--directions", str(dirs))
        assert code == 2 and "list" in payload["error"]

    @pytest.mark.parametrize("doc,error", [
        ('{"epsilon":"1/2","directions":{"a":["1","1"]}}',
         "'directions' must be a JSON list, got dict"),
        ('{"epsilon":"1/2","directions":"ab"}', "'directions' must be a JSON list, got str"),
        ("[1, 2]", "directions document must be a JSON object"),
    ], ids=["object-directions", "string-directions", "list-document"])
    def test_verify_directions_document_of_the_wrong_shape(self, capsys, tmp_path, doc, error):
        path = tmp_path / "hex.json"
        path.write_text(dump(polytope_to_doc(hexagon())))
        dirs = tmp_path / "dirs.json"
        dirs.write_text(doc)
        assert run_command(["verify", str(path), "--directions", str(dirs)]) == 2
        assert capsys.readouterr().out == json.dumps({"error": error}, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("offset", [
        "[" * 500 + '"1"' + "]" * 500, '"' + "x" * 5000 + '"',
    ], ids=["deep-list", "long-string"])
    def test_classify_error_does_not_echo_a_large_offset(self, capsys, tmp_path, offset):
        path = tmp_path / "p.json"
        path.write_text(TRIANGLE_DOC.replace('"offset":"1"', '"offset":' + offset, 1))
        code, payload = run(capsys, "classify", str(path))
        assert code == 2
        assert "facet 0" in payload["error"] and len(payload["error"]) < 200

    def test_classify_literal_beyond_the_int_conversion_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(TRIANGLE_DOC.replace('["1","0"]', '["' + "9" * 4401 + '","0"]'))
        code, payload = run(capsys, "classify", str(path))
        assert code == 2
        assert "facet 0" in payload["error"] and "limit" in payload["error"]


LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

# Arbitrary JSON, weighted towards near misses: numbers where literals or
# integers belong, literals where lists belong, non-ASCII decimal digits.
texts = (st.text(max_size=6) | st.from_regex(LITERAL, fullmatch=True)
         | st.text(st.characters(whitelist_categories=["Nd"]), min_size=1, max_size=3))
small = st.integers(-3, 5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts
    | small | small.map(float) | small.map(lambda k: k + 0.5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=8)


def is_literal(value) -> bool:
    return isinstance(value, str) and LITERAL.fullmatch(value.strip()) is not None


def is_vector(value, dim: int) -> bool:
    return (isinstance(value, list) and len(value) == dim
            and all(is_literal(x) for x in value))


def well_formed(field: str, value, dim: int) -> bool:
    """Could this value stand in its field of a valid document?"""
    if field == "dim":
        return type(value) is int and value == dim
    if field == "facets":
        return isinstance(value, list) and value != [] and all(
            isinstance(f, dict) and {"normal", "offset"} <= f.keys() for f in value)
    if field in ("offset", "epsilon"):
        return is_literal(value)
    if field == "normal":
        return is_vector(value, dim)
    # directions
    return (isinstance(value, list) and value != []
            and all(is_vector(v, dim) for v in value))


def substitute(P, field: str, value) -> tuple[dict, dict]:
    """The polytope and direction documents with one field replaced."""
    doc = json.loads(dump(polytope_to_doc(P)))
    dirs = {"epsilon": "1/4", "directions": [["1", "1"], ["-2", "1"], ["1", "-2"]]}
    if field in ("dim", "facets"):
        doc[field] = value
    elif field in ("normal", "offset"):
        doc["facets"][0][field] = value
    else:
        dirs[field] = value
    return doc, dirs


# offsets whose products reach past Python's 4,300-digit limit on int-to-str
# conversion, though each literal is under it
HUGE_SQUARE = {"dim": 2, "facets": [
    {"normal": normal, "offset": offset} for normal, offset in (
        (["1", "0"], "1" + "0" * 4000), (["-1", "0"], "1" + "0" * 4000),
        (["0", "1"], "1/1" + "0" * 4000), (["0", "-1"], "1/" + "3" * 4000))]}


# the normals of a triangle, a square and a pentagon: any positive offsets
# bound each, though they may make a facet of the pentagon redundant
POLYGONS = (((1, 0), (0, 1), (-1, -1)),
            ((1, 0), (-1, 0), (0, 1), (0, -1)),
            ((1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)))
long_integers = st.builds(lambda digits, low: 10 ** (digits - 1) + low,
                          st.integers(3000, 4300), st.integers(0, 10 ** 6))


@st.composite
def extreme_documents(draw):
    """Well-formed documents in R^2 with 3 to 5 facets whose literals have
    3,000 to 4,300 digits: normals scaled by a long integer, and huge,
    tiny and unit offsets mixed."""
    offsets = (long_integers.map(str) | long_integers.map(lambda q: f"1/{q}")
               | st.tuples(long_integers, long_integers).map(lambda pq: "%d/%d" % pq)
               | st.just("1"))
    facets = []
    for normal in draw(st.sampled_from(POLYGONS)):
        scale = draw(st.just(1) | long_integers)
        facets.append({"normal": [str(scale * x) for x in normal], "offset": draw(offsets)})
    return {"dim": 2, "facets": facets}


class TestLastResort:
    """Any exception a command raises ends in exit 3 and a JSON error
    payload, never in a traceback."""

    @pytest.mark.parametrize("argv", [
        ["classify"], ["skeleton"], ["illuminate"], ["illuminate", "--verify"], ["fan"],
        ["fan", "--verify-unique"], ["oracle"], ["verify", "--directions"]],
        ids=" ".join)
    def test_huge_square_through_every_file_command(self, capsys, tmp_path, argv):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(HUGE_SQUARE))
        if argv[0] == "verify":
            directions = tmp_path / "d.json"
            directions.write_text(json.dumps({"epsilon": "1/2", "directions": sign_vectors(2)}))
            argv = argv + [str(directions)]
        code = run_command([argv[0], str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert err == "" and out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
        # output is exact at any length: epsilon has more digits than `str`
        # converts by default
        if argv[0] == "illuminate":
            P = parse_polytope(json.dumps(HUGE_SQUARE))
            ill = build_illumination_set(P)
            assert code == 0
            assert json.loads(out)["epsilon"] == format_rational(
                compute_epsilon(P, ill.directions, ill.delta))

    @settings(max_examples=25, deadline=None)
    @given(extreme_documents())
    def test_extreme_literals_through_every_file_command(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            polytope, directions = Path(tmp, "p.json"), Path(tmp, "d.json")
            polytope.write_text(json.dumps(doc))
            directions.write_text(json.dumps({"epsilon": "1/2", "directions": sign_vectors(2)}))
            for argv in (["classify"], ["skeleton"], ["illuminate"], ["illuminate", "--verify"],
                         ["fan"], ["fan", "--verify-unique"], ["oracle"],
                         ["verify", "--directions", str(directions)]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = run_command([argv[0], str(polytope), *argv[1:]])
                out = out.getvalue()
                assert code in (0, 1, 2) and err.getvalue() == ""
                assert out.endswith("\n") and out.count("\n") == 1
                assert isinstance(json.loads(out), dict)

    def test_any_other_exception_is_an_internal_error(self, capsys, cube_file, monkeypatch):
        def failing(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(COMMANDS, "classify", COMMANDS["classify"]._replace(handler=failing))
        assert run_command(["classify", cube_file]) == 3
        assert capsys.readouterr().out == '{"error":"RuntimeError: boom"}\n'


class TestFuzzedDocuments:
    """An ill-typed value in any field of a polytope or directions document
    ends in exit 2 with a JSON error, never in a traceback or exit 1."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_classify(self, data):
        self.check(data, "classify", ("dim", "facets", "normal", "offset"))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_verify_directions(self, data):
        self.check(data, "verify", ("dim", "facets", "normal", "offset",
                                    "epsilon", "directions"))

    def check(self, data, command, fields):
        P = hexagon()
        field = data.draw(st.sampled_from(fields))
        value = data.draw(json_values.filter(lambda v: not well_formed(field, v, P.dim)))
        doc, dirs = substitute(P, field, value)
        with tempfile.TemporaryDirectory() as tmp:
            polytope, directions = Path(tmp, "p.json"), Path(tmp, "d.json")
            polytope.write_text(json.dumps(doc))
            directions.write_text(json.dumps(dirs))
            argv = [command, str(polytope)]
            if command == "verify":
                argv += ["--directions", str(directions)]
            out = io.StringIO()
            with redirect_stdout(out):
                code = run_command(argv)
        assert code == 2
        assert "error" in json.loads(out.getvalue())
