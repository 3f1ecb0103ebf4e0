import ast
import builtins
from pathlib import Path

import sgdtherm

PACKAGE = Path(sgdtherm.__file__).parent


def test_every_export_is_used_inside_the_package():
    """A name `__init__` exports is referenced by package code other than its definition.

    Helpers that only tests call belong in tests/oracles.py, not in the
    public surface.
    """
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name
                for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert exported
    assert sorted(exported - referenced) == []


def test_every_error_type_exits_through_main():
    """Each class `sgdtherm.errors` defines is named in an `except` clause of `cli.main`.

    Every error type is a reason the command line exits 2; a value that does
    not exist is NaN, not an exception that some other caller catches.
    """
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name.id for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)
              for name in ast.walk(node.type) if isinstance(name, ast.Name)}
    assert defined
    assert sorted(defined - caught) == []


def test_no_raise_names_a_builtin_exception():
    """Every `raise` in the package names a type of `sgdtherm.errors`, or re-raises.

    An argument outside its domain raises InvalidConfig, so a caller that
    handles the package's errors never meets a bare IndexError or ValueError.
    A bare `raise` re-raises what an `except` clause caught, and is allowed.
    """
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in builtin:
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []
