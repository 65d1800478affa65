"""Statement check: the statements of src/cctab/ that no test runs in-process.

A pytest plugin that uses only the standard library.  Load it with the tests
directory on the import path:

    PYTHONPATH=src:tests python -m pytest -p statements -q -W error

It records every line run in src/cctab/ through sys.settrace and
threading.settrace, except while a test listed in UNTRACED runs.  At the end of the session it lists each statement that
no test ran: an AST statement that is not a definition, an import or a
docstring.  It fails the session when there are more than MISSED_AT_MOST of
them.  A statement that runs only in a child process, as in the CLI tests
that run under run_limited, is not seen, so it is counted as missed.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src", "cctab")

# two statements run only in the CLI tests' child processes: cli.py's error
# for a file that is not UTF-8 and its `__main__` exit
MISSED_AT_MOST = 2

# tests run without the tracer: the chain-512 acceptance test gates its own
# wall time, which tracing would more than triple, and runs no statement
# that other tests do not
UNTRACED = ("tests/test_acceptance.py::test_criterion_9_chain_benchmark",)

# definitions and imports: not counted
NOT_COUNTED = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)

_lines: dict = {}  # real path of each file in SRC -> the lines run in it
_tracers: dict = {}  # file name as code objects give it -> its line tracer, None outside SRC
_missed: list = []  # (file, line, its source text) of each statement no test ran


def _tracer(name: str):
    """The local trace function for frames of the file name, None outside
    SRC.  It records the line of every event, not only of line events: that
    is a line run, or for a call the first line of a definition, so one
    Python call per line run is all it costs."""
    path = os.path.realpath(name)
    if not path.startswith(SRC + os.sep):
        return None
    add = _lines.setdefault(path, set()).add

    def trace(frame, event, arg):
        add(frame.f_lineno)
        return trace

    return trace


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        return _tracers[name]
    except KeyError:
        tracer = _tracers[name] = _tracer(name)
        return tracer


def statements(source: str):
    """(line, lines) of each statement of the source that runs code: lines
    are those where running it shows, its header for a compound statement."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, NOT_COUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        if body:  # a try has no header code: its first body statement runs with it
            last = body[0].lineno if isinstance(node, ast.Try) else body[0].lineno - 1
        else:
            last = node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    # before any conftest imports cctab, so that module-level statements count
    threading.settrace(_call)
    sys.settrace(_call)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if item.nodeid not in UNTRACED:
        return (yield)
    sys.settrace(None)
    try:
        return (yield)
    finally:
        sys.settrace(_call)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    for file in sorted(os.listdir(SRC)):
        if not file.endswith(".py"):
            continue
        path = os.path.join(SRC, file)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines = source.splitlines()
        ran = _lines.get(path, set())
        for first, span in sorted(statements(source), key=lambda s: s[0]):
            if ran.isdisjoint(span):
                _missed.append((f"cctab/{file}", first, lines[first - 1].strip()))
    if len(_missed) > MISSED_AT_MOST and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if not _lines:
        return
    terminalreporter.section("statements no test ran in-process")
    for path, line, text in _missed:
        terminalreporter.write_line(f"{path}:{line}: {text}")
    verdict = "more than" if len(_missed) > MISSED_AT_MOST else "at most"
    terminalreporter.write_line(
        f"{len(_missed)} statements not run, {verdict} the {MISSED_AT_MOST} allowed")
