"""A pytest plugin that fails the run when a statement of ``src/holocap`` never ran.

Run the tests with it loaded from this directory:

    PYTHONPATH=src:tests python -m pytest -q -p statement_trace

It records with ``sys.settrace`` each line of the package that runs, except
inside a hypothesis test, so that no statement counts as run because a random
draw happened to reach it.  At the end of the session it names every
statement none of whose lines ran, one "path:line: text" per statement, and
sets the exit status to 1.  A compound statement's lines are its header (its
decorators, through the line before its first body statement); a docstring,
``global`` and ``nonlocal`` run no code and are not counted.
"""

import ast
import os
import sys

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "holocap")

_ran = set()        # (absolute path, line)
_traced = {}        # co_filename -> absolute path if in the package, else None
_paused = [False]   # set while a hypothesis test runs


def _line(frame, event, arg):
    if event == "line" and not _paused[0]:
        _ran.add((_traced[frame.f_code.co_filename], frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _traced:
        path = os.path.abspath(name)
        _traced[name] = path if os.path.dirname(path) == PACKAGE else None
    return _line if _traced[name] else None


def pytest_configure(config):
    sys.settrace(_call)   # before collection imports holocap


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    _paused[0] = bool(getattr(getattr(item, "obj", None), "is_hypothesis_test", False))
    try:
        yield
    finally:
        _paused[0] = False


def statements(source: str):
    """(line, first line, last line, text) of each statement of ``source`` that runs code."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    lines = source.splitlines()
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, first, last, lines[node.lineno - 1].strip()


def unrun() -> list:
    """"path:line: text" of each statement of the package no line of which ran."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            found = statements(fh.read())
        for lineno, first, last, text in sorted(found):
            if not any((path, line) in _ran for line in range(first, last + 1)):
                out.append(f"src/holocap/{name}:{lineno}: {text}")
    return out


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    missed = unrun()
    if missed:
        sys.stderr.write(f"\n{len(missed)} statements of src/holocap never ran:\n"
                         + "".join(f"  {line}\n" for line in missed))
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
