"""Every name a module imports is used in it, every top-level definition
of the package is named outside itself, and the modules keep their
layering.

No linter is a dependency of this project, so this test is the gate: it
reads each module's syntax tree and reports the imported names that the
module never mentions. `__init__.py` is exempt, since its imports are the
package's re-exports. The layering checks read the same trees.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyillum"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The test and script modules keep their imports to what they use too.
CHECKED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                             key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml requires Python >= 3.10: no module may use a later syntax
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_detects_a_syntax_newer_than_3_10():
    # exception groups came in Python 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(source, feature_version=(3, 10))


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import comb, gcd\nprint(gcd)\n") == [
        "line 1: os", "line 2: comb"]


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: (
    p.name if p.parent == PACKAGE else str(p.relative_to(ROOT))))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def statement_names(statement: ast.stmt) -> set[str]:
    """Every name a statement uses, reads an attribute of or imports."""
    nodes = list(ast.walk(statement))
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """module.name for each top-level function or class of the given
    modules that no statement of any of them names, apart from its own
    definition."""
    statements = [(module, statement) for module, source in sources.items()
                  for statement in ast.parse(source).body]
    named = [statement_names(statement) for _, statement in statements]
    return [f"{module}.{statement.name}" for k, (module, statement) in enumerate(statements)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
            and not any(statement.name in names for j, names in enumerate(named) if j != k)]


def test_detects_an_uncalled_definition():
    assert uncalled_definitions({
        "a": "def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
        "b": "from .a import g\n\ndef h():\n    return x.C\n",
        "__init__": "from .b import h\n",
    }) == ["a.f"]


def test_every_definition_has_a_caller():
    # an import into `__init__.py`, the package's public names, counts
    assert uncalled_definitions({p.stem: p.read_text(encoding="utf-8")
                                 for p in sorted(PACKAGE.glob("*.py"))}) == []


def imported_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every import in a module, the module named by the
    last part of its dotted path: `from .m import f` gives (m, f), and
    `import a.m` or `from . import m` gives (m, "*")."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            found |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(alias.name.rpartition(".")[2], "*") for alias in node.names}
    return found


def test_only_classify_enumerates_circuits():
    # every position fact is read off the one circuit table in classify
    importers = [p.name for p in MODULES
                 if any(name == "circuits" for _, name in imported_names(p))]
    assert importers == ["classify.py"]


def test_fan_decides_without_an_lp():
    modules = {module for module, _ in imported_names(PACKAGE / "fan.py")}
    assert not modules & {"lp", "position"}


@pytest.mark.parametrize("name", ["classify.py", "fan.py"])
def test_subsets_come_from_the_pattern_search(name):
    # conical subsets, uncaptured subsets and primitive bases are each one
    # `classify.avoiding` search over the circuit table, not a C(m, k) scan
    assert ("itertools", "combinations") not in imported_names(PACKAGE / name)


def points_scaled_to_ints(source: str) -> list[int]:
    """The lines of the calls to `_integers` with a `.point` in their arguments."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and "_integers" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(isinstance(a, ast.Attribute) and a.attr == "point"
                    for arg in node.args for a in ast.walk(arg))]


def test_vertex_integers_come_only_from_the_polytope():
    # the vertex walk keeps each vertex as ints, in `HPolytope.vertex_table`,
    # so no module scales a vertex's `Fraction` point back to them
    assert points_scaled_to_ints("x = 1\ny = kernel._integers(v.point, n)\n_integers(w)\n") == [2]
    assert [(p.name, line) for p in MODULES
            for line in points_scaled_to_ints(p.read_text(encoding="utf-8"))] == []


def test_skeleton_decides_without_an_lp():
    # the skeleton reads every sign off its basis inverse, which the
    # illumination build reuses instead of inverting the basis again
    assert not {module for module, _ in imported_names(PACKAGE / "skeleton.py")} & {
        "lp", "position"}
    assert ("kernel", "inverse") not in imported_names(PACKAGE / "illuminate.py")


def index_calls(source: str) -> list[int]:
    """The lines of the calls to a method named `index`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index"]


def test_detects_an_index_call():
    assert index_calls("i = normals.index(x)\nj = index(x)\nk = f(x).index(y)\n") == [1, 3]


@pytest.mark.parametrize("name", ["skeleton.py", "illuminate.py"])
def test_no_normal_is_looked_up_by_value(name):
    # the skeleton names every normal by its index into the normal set, and
    # the build reads its apexes off `Skeleton.part_indices`
    assert index_calls((PACKAGE / name).read_text(encoding="utf-8")) == []


def test_only_polytope_decides_positive_spanning():
    # outside `position`, only NormalSet construction reads a Farkas direction
    importers = [p.name for p in MODULES if p.name != "position.py"
                 and ("position", "farkas_direction") in imported_names(p)]
    assert importers == ["polytope.py"]


def function_calls(source: str) -> dict[str, list[str]]:
    """Per function or method, by name, the names it calls, as a name or an
    attribute, outside the functions nested in it."""
    found = {}

    def visit(node: ast.AST, calls: list) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, found.setdefault(child.name, []))
                continue
            if isinstance(child, ast.Call):
                calls.append(getattr(child.func, "id", None) or getattr(child.func, "attr", None))
            visit(child, calls)

    visit(ast.parse(source), [])
    return found


def test_detects_the_callers_of_a_function():
    source = ("class C:\n    def f(self):\n        return g(set(x))\n"
              "def h():\n    def k():\n        return m.g()\n    return {1}\n")
    assert function_calls(source) == {"f": ["g", "set"], "h": [], "k": ["g"]}


def test_only_the_spanning_check_reads_a_farkas_direction():
    # a build from facets leaves positive spanning to the vertex walk; the
    # LP runs for a bare normal set, or for a build whose walk cannot finish
    calls = function_calls((PACKAGE / "polytope.py").read_text(encoding="utf-8"))
    assert [name for name, called in calls.items() if "farkas_direction" in called] == [
        "_decide_spanning"]


def test_the_walk_keeps_its_tight_sets_as_masks():
    # each vertex's tight set and each basis is one int, with no set built
    calls = function_calls((PACKAGE / "polytope.py").read_text(encoding="utf-8"))
    assert "set" not in calls["_walk"] + calls["_steps"]


def test_lp_has_one_entry_point():
    # no relation constants, constraint types or second formulation
    tree = ast.parse((PACKAGE / "lp.py").read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)]
    assert [name for name in defined if not name.startswith("_")] == ["solve_eq_nonneg"]


def test_lp_imports_only_errors_from_the_package():
    # the LP works on ints and Fractions alone, not on the package's
    # vectors; besides the errors it imports only the kernel's pivot step
    package = {p.stem for p in MODULES}
    names = {(module, name) for module, name in imported_names(PACKAGE / "lp.py")
             if module in package}
    assert {module for module, _ in names} == {"errors", "kernel"}
    assert {name for module, name in names if module == "kernel"} == {"_pivot"}


def test_only_the_kernel_imports_gcd():
    # `kernel._pivot` is the one place that divides a common gcd out
    importers = [p.name for p in MODULES if ("math", "gcd") in imported_names(p)]
    assert importers == ["kernel.py"]


def named(path: Path) -> set[str]:
    """Every name a module uses, reads an attribute of or imports."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return ({node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {name for _, name in imported_names(path)})


def test_only_the_kernel_names_its_row_reduction():
    # circuits, the normal set's first basis, `rank`, `inverse` and
    # `simplex_dependence` each make one elimination in the kernel; no other
    # module reduces rows of its own, and the facet test ranks nothing
    assert [p.name for p in MODULES if "_row_reduce" in named(p)] == ["kernel.py"]
    assert ("kernel", "rank") not in imported_names(PACKAGE / "polytope.py")


def test_primitivity_poses_no_lp():
    # `is_primitive` reads every normal off one `kernel.coordinates`
    tree = ast.parse((PACKAGE / "position.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "is_primitive")
    assert not statement_names(body) & {"cone_membership", "captured", "_cone_query",
                                        "solve_eq_nonneg"}


def test_no_square_solve_is_defined():
    # a square system is read off `kernel.inverse`, in the walk's start scan
    defined = {node.name for p in MODULES for node in ast.walk(ast.parse(p.read_text(
        encoding="utf-8"))) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"solve_rows", "solve_linear"}


def test_kernel_imports_only_errors_from_the_package():
    # the row reductions work on ints and Fractions alone, with no
    # vector-level helper of another module
    package = {p.stem for p in MODULES}
    assert {module for module, _ in imported_names(PACKAGE / "kernel.py")} & package == {"errors"}


def test_only_position_poses_lps():
    importers = [p.name for p in MODULES
                 if "lp" in {module for module, _ in imported_names(p)}]
    assert importers == ["position.py"]


@pytest.mark.parametrize("name", ["oracle.py", "polytope.py"])
def test_cone_questions_go_through_position(name):
    names = imported_names(PACKAGE / name)
    assert "lp" not in {module for module, _ in names}
    assert not {imported for _, imported in names} & {"solve_eq_nonneg", "cone_membership"}


def test_no_module_imports_dataclasses():
    # records are named tuples or slotted classes: `dataclasses` would load
    # `inspect` on every start; the test-only reference modules may use it
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in {module for module, _ in imported_names(p)}]
    assert importers == []


def test_no_module_names_frozenset_or_quote_vector():
    # supports, drops and tight sets are index bitmasks, and `format_vector`
    # alone keeps an error message's entries short
    assert [p.name for p in MODULES if named(p) & {"frozenset", "quote_vector"}] == []
