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


def test_every_module_level_name_is_used_in_the_package():
    # A module-level def, class or assigned name that nothing in the package
    # refers to is test-only code and belongs under tests/.  A reference is
    # a name or an attribute in the syntax tree (docstrings do not count)
    # outside the statement that defines it.  Dunder names such as
    # `__version__` are read by Python and its tools, not by the package.
    defined = {}
    used = set()
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = {statement.name}
            elif isinstance(statement, ast.Assign):
                own = {node.id for target in statement.targets
                       for node in ast.walk(target)
                       if isinstance(node, ast.Name)}
            elif isinstance(statement, ast.AnnAssign):
                own = {statement.target.id}
            else:
                own = set()
            defined.update((name, f"{path.name}:{statement.lineno}")
                           for name in own)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in used and not name.startswith("__")) == []
