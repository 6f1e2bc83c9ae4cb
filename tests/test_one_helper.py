"""Every thread the package starts is `autodiff`'s one helper.

These read the source with `ast`: a module other than `autodiff` that
imports a threading module, or builds an executor or a `Thread`, fails here,
so training and decoding keep sharing the one helper behind `_helper()`.
The helper has two users, Adam's blocks and realization: a new caller of
`run_shared` or `mapped` fails here too, and must bring a measurement that
the helper pays off for it.
"""

import ast
from pathlib import Path

import icdscribe

PACKAGE = Path(icdscribe.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}
THREAD_MAKERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Pool",
                 "start_new_thread"}


def call_name(call):
    """The name a call calls: `f` of `f(...)` and of `module.f(...)`."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def thread_uses(tree):
    """Each import of a threading module and each call that builds a thread or a pool."""
    def threading_module(name):
        return (name or "").split(".")[0] in THREAD_MODULES

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if threading_module(alias.name))
        elif isinstance(node, ast.ImportFrom) and threading_module(node.module):
            yield f"from {node.module}"
        elif isinstance(node, ast.Call) and call_name(node) in THREAD_MAKERS:
            yield f"{call_name(node)}()"


def test_only_autodiff_starts_threads():
    assert {"autodiff.py", "cli.py", "data.py"} <= {path.name for path in MODULES}
    found = [
        f"{path.name}: {use}"
        for path in MODULES if path.name != "autodiff.py"
        for use in thread_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == []


def test_autodiff_builds_one_executor_in_helper():
    tree = ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    builders = [
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for use in thread_uses(function) if use.endswith("()")
    ]
    assert builders == ["_helper"]


# the one function that may call each entry point to the helper
HELPER_CALLERS = {"run_shared": "autodiff.adam_step", "mapped": "data.iter_utterances"}


def helper_calls(module, node, owner="<module>"):
    """(entry, `module.function`) for each call of a `HELPER_CALLERS` entry, by name or attribute.

    The function is the innermost one that holds the call.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    elif isinstance(node, ast.Call) and call_name(node) in HELPER_CALLERS:
        yield call_name(node), f"{module}.{owner}"
    for child in ast.iter_child_nodes(node):
        yield from helper_calls(module, child, owner)


def test_each_helper_entry_point_has_one_caller():
    found = sorted(
        call
        for path in MODULES
        for call in helper_calls(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == sorted(HELPER_CALLERS.items())


def test_the_caller_guard_sees_each_form():
    source = """
run_shared(print, [])
def outer():
    ad.mapped(print, [])
    def inner():
        autodiff.run_shared(print, [])
"""
    assert list(helper_calls("m", ast.parse(source))) == [
        ("run_shared", "m.<module>"), ("mapped", "m.outer"), ("run_shared", "m.inner"),
    ]


def test_the_guard_sees_each_form():
    source = """
import threading
import concurrent.futures as cf
from concurrent.futures import ThreadPoolExecutor
from concurrent import futures
threading.Thread(target=print)
cf.ThreadPoolExecutor(2)
"""
    assert list(thread_uses(ast.parse(source))) == [
        "threading", "concurrent.futures", "from concurrent.futures", "from concurrent",
        "Thread()", "ThreadPoolExecutor()",
    ]
