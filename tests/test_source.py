"""Checks on the source text of the `coble` package."""

import ast
import sys
from collections import Counter
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


def references(node):
    """How often each name or attribute occurs in the syntax tree of node
    (docstrings do not count)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_definitions():
    """(module-level, method) lists of "file:line name" for each name that
    nothing in the package refers to outside the statement that defines it.
    A module-level name is a def, class or assigned name; a method is a def
    in a module-level class.  Dunder names such as `__version__` or
    `__eq__` are read by Python and its tools, not by the package."""
    definitions = ([], [])  # (where, name, defining node) per kind
    used = Counter()
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(references(tree))
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
            definitions[0].extend((f"{path.name}:{statement.lineno}", name,
                                   statement) for name in own)
            if isinstance(statement, ast.ClassDef):
                definitions[1].extend(
                    (f"{path.name}:{node.lineno}", node.name, node)
                    for node in statement.body
                    if isinstance(node, ast.FunctionDef))
    return tuple(sorted(f"{where} {name}" for where, name, statement in kind
                        if not name.startswith("__")
                        and used[name] == references(statement)[name])
                 for kind in definitions)


def test_every_module_level_name_is_used_in_the_package():
    # A module-level def, class or assigned name that nothing in the package
    # refers to is test-only code and belongs under tests/.  A reference is
    # a name or an attribute in the syntax tree outside the statement that
    # defines it.
    assert unused_definitions()[0] == []


def test_every_method_is_used_in_the_package():
    # So is a method of a package class that nothing in the package calls or
    # names outside its own def.
    assert unused_definitions()[1] == []
