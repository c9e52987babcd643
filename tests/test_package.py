"""Package-wide constraints that no behavioral test would catch."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

import gcdlcm
from helpers import run_python

SOURCES = sorted(Path(gcdlcm.__file__).parent.glob("*.py"))
# what a solve, basis or reduce call has no use for
NOT_FOR_THE_CLI = ("dataclasses", "gcdlcm.circulant", "gcdlcm.generate")


def _imported(node: ast.AST) -> list[str]:
    """Modules an import statement names; ``from m import x`` names m and m.x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


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
        if path.name == "cli.py":
            loaded = {name for node in tree.body for name in _imported(node)}
            assert "gcdlcm.jsonio" in loaded  # the module-level imports were read
            assert not loaded & {"gcdlcm.circulant", "gcdlcm.generate"}


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


@pytest.mark.parametrize(
    "command", [("solve",), ("basis",), ("reduce", "--direction", "forward")], ids=lambda c: c[0]
)
def test_cli_loads_only_what_its_command_runs(command):
    r = run_python("-c", _CLI_CHILD, *command, "-A", "6", "10", "15", "-B", "4")
    assert r.returncode == 0, r.stderr
    loaded = json.loads(r.stderr.splitlines()[-1])
    assert "gcdlcm.cli" in loaded and json.loads(r.stdout)
    assert not set(loaded) & set(NOT_FOR_THE_CLI)


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
