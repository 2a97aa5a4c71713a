"""Checks on the source text of the `coble` package."""

import ast
import sys
from pathlib import Path

import coble


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may rest on one.
    found = []
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_only_the_standard_library():
    # The package has no runtime dependency: every module it imports is
    # `coble` itself (relative or absolute) or in the standard library.
    found = []
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] != "coble"
                      and name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []
