"""The allocator policy: set once, by the `icdscribe` command, and silent where it cannot be.

`cli._keep_freed_memory` asks glibc to keep the memory each utterance frees,
so the next utterance's arrays reuse those pages instead of faulting in
fresh ones.  Only `cli.py` may touch the C allocator, and only `cli.main`
applies the policy, so a program that imports `icdscribe` keeps its own.
"""

import ast
import contextlib
import ctypes
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from test_one_helper import MODULES, call_name

import icdscribe
from icdscribe import cli

CORPUS = "low back pain\nacute pharyngitis unspecified\n"


def allocator_uses(tree):
    """Each import of ctypes and each call of mallopt or of the policy, with its function."""
    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Import):
            yield from ((alias.name, owner) for alias in node.names
                        if alias.name.split(".")[0] == "ctypes")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes":
            yield f"from {node.module}", owner
        elif isinstance(node, ast.Call) and call_name(node) in ("mallopt", "_keep_freed_memory"):
            yield f"{call_name(node)}()", owner
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    return walk(tree, "<module>")


def test_only_cli_touches_the_allocator():
    found = sorted(
        (path.name, *use)
        for path in MODULES
        for use in allocator_uses(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [
        ("cli.py", "_keep_freed_memory()", "main"),
        ("cli.py", "ctypes", "<module>"),
        ("cli.py", "mallopt()", "_keep_freed_memory"),
        ("cli.py", "mallopt()", "_keep_freed_memory"),
    ]


def test_the_guard_sees_each_form():
    source = """
import ctypes.util
from ctypes import CDLL
def f():
    CDLL(None).mallopt(-3, 1)
    libc.mallopt(-1, 1)
"""
    assert list(allocator_uses(ast.parse(source))) == [
        ("ctypes.util", "<module>"), ("from ctypes", "<module>"),
        ("mallopt()", "f"), ("mallopt()", "f"),
    ]


def train_lm_output(tmp_path):
    """`icdscribe train-lm` on a two-line corpus: (exit code, stdout, stderr)."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["train-lm", "--corpus", str(corpus), "--output", str(tmp_path / "lm.json")])
    return code, out.getvalue(), err.getvalue()


class NoMallopt:
    def __init__(self, name):
        pass


def no_c_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_c_library, NoMallopt], ids=["CDLL-raises", "no-mallopt"])
def test_without_mallopt_the_command_runs_as_it_would(tmp_path, monkeypatch, cdll):
    expected = train_lm_output(tmp_path)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert train_lm_output(tmp_path) == expected
    assert expected[0] == 0 and expected[2] == ""


def test_main_sets_both_thresholds(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    class Recorder:
        def __init__(self, name):
            assert name is None  # the running program's own C library
            self.mallopt = mallopt

    monkeypatch.setattr(ctypes, "CDLL", Recorder)
    assert train_lm_output(tmp_path)[0] == 0
    assert calls == [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD),
                     (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD)]
    assert (mallopt.argtypes, mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)


# The smoke dataset's first three records (3, 6 and 1 words) realized in turn, as utterances
# of unlike lengths follow each other: one warm-up round, then the minor faults of 5 more.
FAULTS_SCRIPT = """
import resource
from icdscribe import cli
from icdscribe.data import (DatasetConfig, bundled_icd_path, generate_dataset, load_icd_list,
                            realize_utterance)
manifest = generate_dataset(load_icd_list(bundled_icd_path()),
                            DatasetConfig(seed=7, repeats=1, cap=1))
records = manifest.records[:3]
cli._keep_freed_memory()
for record in records:
    realize_utterance(manifest, record)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    for record in records:
        realize_utterance(manifest, record)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (5 * len(records)))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_realization_reuses_the_pages_the_last_utterance_freed():
    """Without the policy each of these realizations faults in about 200 fresh pages."""
    src = str(Path(icdscribe.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], capture_output=True, text=True,
                          env=env, check=True)
    assert float(done.stdout) <= 10
