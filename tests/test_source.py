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


# Standard-library modules that the running interpreter may not list: the
# builtin SHA-256 is `_sha256` up to Python 3.11 and `_sha2` from 3.12 on.
STDLIB_OF_OTHER_VERSIONS = {"_sha256", "_sha2"}


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
                      and name.split(".")[0] not in sys.stdlib_module_names
                      and name not in STDLIB_OF_OTHER_VERSIONS]
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


def defaults_left_out():
    """"file:line function(parameter)" for each defaulted parameter in the
    package that every call of its function passes.  A call is matched by
    the function's name (a method's attribute name, an `__init__` by its
    class name); a call with *args or **kwargs counts as leaving every
    parameter out."""
    defaulted, calls = [], []
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        methods = {id(node): cls.name for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = methods.get(id(node))
            name = cls if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            if cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list):
                positional = positional[1:]  # self or cls
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                defaulted.append((f"{path.name}:{node.lineno}", name, i,
                                  arg.arg))
            defaulted += [(f"{path.name}:{node.lineno}", name, None, arg.arg)
                          for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]

    def leaves_out(call, position, parameter):
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            return True
        if position is not None and len(call.args) > position:
            return False
        return all(k.arg != parameter for k in call.keywords)

    def called_name(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    return sorted(f"{where} {name}({parameter})"
                  for where, name, position, parameter in defaulted
                  if not any(called_name(call) == name
                             and leaves_out(call, position, parameter)
                             for call in calls))


def test_every_parameter_default_is_used_in_the_package():
    # A default that no call in the package relies on is a knob for tests
    # only: the parameter should be required, and the tests pass it.
    assert defaults_left_out() == []


def exception_classes(tree):
    """The module-level classes of tree that subclass Exception."""
    return [node for node in tree.body if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Exception"
                    for base in node.bases)]


def unraised_or_untested_exceptions():
    """"file:line name" for each Exception subclass defined in the package
    that no `raise` in the package names, or that nothing under tests/
    names."""
    defined, raised, tested = [], Counter(), Counter()
    for path in sorted(Path(coble.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                raised.update(references(node))
        defined += [(f"{path.name}:{node.lineno}", node.name)
                    for node in exception_classes(tree)]
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tested.update(references(ast.parse(path.read_text(),
                                           filename=str(path))))
    return [f"{where} {name}" for where, name in defined
            if not raised[name] or not tested[name]]


def test_every_exception_class_is_raised_and_tested():
    # An exception class that nothing raises is dead code; one that no test
    # names is a failure branch that no test shows can fire.
    assert unraised_or_untested_exceptions() == []


# The package exceptions that a handler may catch: a restriction off the
# target's span aborts nu's matrix (`nu.target_rows`) and is caught only by
# `coble check`, and an impossible cover is a usage error
# (`cli.combination_error`).  Any other outcome the maths can give, such as
# a counterexample point or a singular system, is returned as a value.
CATCHABLE = {"NotInSpan", "InadmissibleCover"}


def caught_package_exceptions():
    """"file:line name" for each `except` in the package that names one of
    the package's own Exception subclasses outside CATCHABLE."""
    trees = [(path.name, ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(Path(coble.__file__).parent.glob("*.py"))]
    own = {node.name for _, tree in trees for node in exception_classes(tree)}
    return [f"{name}:{node.lineno} {caught}" for name, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type
            for caught in sorted((set(references(node.type)) & own)
                                 - CATCHABLE)]


def test_only_span_and_cover_failures_are_caught():
    # A finding is a value of the function that finds it; catching a
    # package exception to turn it back into a check hides a second path.
    assert caught_package_exceptions() == []
