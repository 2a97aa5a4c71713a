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


# Names that no certificate calls yet; each is planned to become one.
PLANNED_CERTIFICATE_CHECKS = {
    "annexe_subblock_kernel", "diagonal_filter_pipeline", "cusp_orbit_check",
    "run_default_oracle", "minus_space_restriction", "steiner_matrix",
    "printed_block_span_report", "ramification_degree",
    "coefficient_in_basis",
}


def test_every_module_level_name_is_used_in_the_package():
    # A module-level def or class that nothing in the package refers to is
    # test-only code and belongs under tests/.  A reference is a name or an
    # attribute in the syntax tree (docstrings do not count) outside the
    # statement that defines it.
    defined = {}
    used = set()
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined[statement.name] = f"{path.name}:{statement.lineno}"
                own = statement.name
            else:
                own = None
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    unused = {name: where for name, where in defined.items()
              if name not in used}
    assert sorted(f"{where} {name}" for name, where in unused.items()
                  if name not in PLANNED_CERTIFICATE_CHECKS) == []
    # Each exception is still defined and still unused.
    assert set(unused) == PLANNED_CERTIFICATE_CHECKS
