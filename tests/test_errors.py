"""The package raises one exception type, and the CLI maps it and OSError to exit codes.

These read the source with `ast`, so a second exception class, or a handler
in `cli.main` for anything else, fails here before it can spread.
"""

import ast
import builtins
from pathlib import Path

import icdscribe
from icdscribe.errors import ContractError

PACKAGE = Path(icdscribe.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def base_names(node):
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def is_exception_class(node):
    """True for a class deriving from a builtin exception or from ContractError."""
    for name in base_names(node):
        builtin = getattr(builtins, name, None)
        if name == "ContractError" or (isinstance(builtin, type)
                                       and issubclass(builtin, BaseException)):
            return True
    return False


def handled(handler):
    """The exception names an `except` clause catches; a bare `except` catches everything."""
    if handler.type is None:
        return ["BaseException"]
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [ast.unparse(kind) for kind in kinds]


def returned(handler):
    return [ast.unparse(node.value) for node in ast.walk(handler)
            if isinstance(node, ast.Return) and node.value is not None]


def test_errors_defines_exactly_one_exception_class():
    body = parsed(PACKAGE / "errors.py").body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the module docstring
    assert [type(node) for node in body] == [ast.ClassDef]
    assert body[0].name == "ContractError" and is_exception_class(body[0])
    assert issubclass(ContractError, ValueError)


def test_no_other_module_defines_an_exception_class():
    assert {"cli.py", "schema.py", "checkpoint.py"} <= {path.name for path in MODULES}
    found = [
        f"{path.name}: {node.name}"
        for path in MODULES if path.name != "errors.py"
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.ClassDef) and is_exception_class(node)
    ]
    assert found == []


def test_cli_main_maps_the_one_class_to_2_and_os_errors_to_3():
    tree = parsed(PACKAGE / "cli.py")
    (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "main"]
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [(handled(h), returned(h)) for h in handlers] == [
        (["ContractError"], ["2"]),
        (["OSError"], ["3"]),
    ]
