"""Every JSON document the package writes is `schema.to_payload` of a dataclass.

These read the source with `ast`: outside `schema`, a `write_document(...)`
or `json.dumps(...)` call whose payload argument holds no `to_payload(...)`
call fails here, so configs and artifacts keep one serialization mechanism.
"""

import ast
from pathlib import Path

import icdscribe

PACKAGE = Path(icdscribe.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "schema.py")
PAYLOAD_ARGUMENT = {"write_document": (2, "payload"), "json.dumps": (0, "obj")}


def called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return getattr(func, "id", None)


def payload_of(call, position, keyword):
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == keyword), None)


def holds_to_payload(node):
    return any(isinstance(n, ast.Call) and called_name(n) == "to_payload" for n in ast.walk(node))


def writers(tree):
    """(line, name, payload node) of each document write in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and called_name(node) in PAYLOAD_ARGUMENT:
            name = called_name(node)
            yield node.lineno, name, payload_of(node, *PAYLOAD_ARGUMENT[name])


def test_every_document_write_passes_through_to_payload():
    found, bare = 0, []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for line, name, payload in writers(tree):
            found += 1
            if payload is None or not holds_to_payload(payload):
                bare.append(f"{path.name}:{line} {name}")
    assert bare == []
    # the manifest, config, LM, checkpoint header, training log and report writers
    assert found >= 6


def test_a_hand_built_payload_is_caught():
    tree = ast.parse("write_document(path, None, report.to_dict())\n"
                     "json.dumps({'a': to_payload(x)})\n"
                     "json.dumps(obj={'a': 1})\n")
    caught = [(line, name) for line, name, payload in writers(tree)
              if not holds_to_payload(payload)]
    assert caught == [(1, "write_document"), (3, "json.dumps")]
