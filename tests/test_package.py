"""Package-wide constraints that no behavioral test would catch."""

from __future__ import annotations

import ast
import json
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import gcdlcm
from helpers import run_python

SOURCES = sorted(Path(gcdlcm.__file__).parent.glob("*.py"))
SUBMODULES = {path.stem for path in SOURCES} - {"__init__", "__main__"}
# what the two modules every command loads import at module level; the
# commands and the cover parser import the rest where they run it
EVERY_CALL_IMPORTS = {"cli.py": {"jsonio", "errors", "numeric"}, "jsonio.py": {"errors", "numeric"}}


def _imported(node: ast.AST) -> list[str]:
    """Modules an import statement names; ``from m import x`` names m and m.x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def _submodules_imported(nodes) -> set[str]:
    """The gcdlcm submodules that these import statements name."""
    names = (name.split(".") for node in nodes for name in _imported(node))
    return {n[1] for n in names if n[0] == "gcdlcm" and len(n) > 1 and n[1] in SUBMODULES}


def test_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no dependency: a third-party import would
    # pass wherever that package happens to be installed and fail elsewhere
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            for name in _imported(node):
                top = name.split(".")[0]
                assert top == "gcdlcm" or top in sys.stdlib_module_names, (path.name, name)


def test_no_dataclasses_and_no_module_level_import_the_cli_never_runs():
    # importing dataclasses costs about as much as the work of a small CLI
    # call, and each frozen dataclass about 1 ms more; the subprocess test
    # below only sees the modules a CLI call loads
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            assert not any(n.split(".")[0] == "dataclasses" for n in _imported(node)), path.name
        if path.name in EVERY_CALL_IMPORTS:
            # TYPE_CHECKING blocks and function bodies are not module level
            assert _submodules_imported(tree.body) == EVERY_CALL_IMPORTS[path.name], path.name


def test_every_private_helper_is_named_outside_its_own_definition():
    # a helper the library no longer calls (left behind by a rewrite, or
    # kept only for tests) is named nowhere else in the package
    statements = [node for path in SOURCES for node in ast.parse(path.read_text(), str(path)).body]

    def names(statement):
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1]

    named = [set(names(statement)) for statement in statements]
    helpers = [
        (i, node.name)
        for i, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert any(name == "_kernelize" for _, name in helpers)  # the definitions were read
    for i, name in helpers:
        assert any(name in other for j, other in enumerate(named) if j != i), name


def test_the_import_graph_is_acyclic():
    # every import statement counts, in function bodies and TYPE_CHECKING
    # blocks too: a layer that names one above it, even for an annotation,
    # is a cycle waiting for its first run-time use
    graph = {
        path.stem: _submodules_imported(ast.walk(ast.parse(path.read_text(), str(path))))
        for path in SOURCES
    }
    assert "numeric" in graph["reductions"]  # the imports were read
    tuple(TopologicalSorter(graph).static_order())  # raises CycleError naming the cycle


# The child snapshots sys.modules, runs ``python -m gcdlcm ARGS`` as runpy
# does, and reports on stderr what the call loaded.
_CLI_CHILD = """
import json, runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("gcdlcm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)
"""


INSTANCE = ("-A", "6", "10", "15", "-B", "4")
COVER = '{"universe_size": 3, "sets": [[0, 1], [1, 2], [2]]}'
EVERY_CALL = {"gcdlcm", "gcdlcm.cli", "gcdlcm.jsonio", "gcdlcm.errors", "gcdlcm.numeric"}
TO_A_COVER = {"gcdlcm.basis", "gcdlcm.reductions", "gcdlcm.setcover"}


@pytest.mark.parametrize(
    "argv, stdin, modules",
    [
        (("solve", *INSTANCE), None, TO_A_COVER | {"gcdlcm.solver"}),
        (("basis", *INSTANCE), None, {"gcdlcm.basis"}),
        (("reduce", "--direction", "forward", *INSTANCE), None, TO_A_COVER),
        # reductions imports basis at module level, which the backward maps never run
        (("reduce", "--direction", "backward", "--input", "-"), COVER, TO_A_COVER),
        (("gen", "--seed", "7", "--count", "5"), None, {"gcdlcm.generate"}),
        (
            ("circulant", "-m", "12", "--links", "2", "3", "4", "6"),
            None,
            TO_A_COVER | {"gcdlcm.solver", "gcdlcm.circulant"},
        ),
    ],
    ids=["solve", "basis", "reduce", "reduce-backward", "gen", "circulant"],
)
def test_cli_loads_only_what_its_command_runs(argv, stdin, modules):
    r = run_python("-c", _CLI_CHILD, *argv, stdin=stdin)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stderr.splitlines()[-1]))
    assert json.loads(r.stdout)
    assert {m for m in loaded if m.split(".")[0] == "gcdlcm"} == EVERY_CALL | modules
    assert "dataclasses" not in loaded
    if "gcdlcm.setcover" not in modules:
        assert "heapq" not in loaded  # only the cover search imports it


def test_every_public_name_resolves_through_the_lazy_root():
    star: dict = {}
    exec("from gcdlcm import *", star)
    for name in gcdlcm.__all__:
        assert star[name] is getattr(gcdlcm, name), name
    assert set(gcdlcm.__all__) <= set(dir(gcdlcm))
    assert "__version__" in dir(gcdlcm)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(gcdlcm, "no_such_name")


def test_importing_the_root_loads_no_submodule():
    r = run_python("-c", "import sys, gcdlcm; print([m for m in sys.modules if m.startswith('gcdlcm.')])")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
