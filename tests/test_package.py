"""Package-wide constraints that no behavioral test would catch."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import gcdlcm

SOURCES = sorted(Path(gcdlcm.__file__).parent.glob("*.py"))


def test_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no dependency: a third-party import would
    # pass wherever that package happens to be installed and fail elsewhere
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "gcdlcm" or top in sys.stdlib_module_names, (path.name, name)
