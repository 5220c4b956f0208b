import ast
import collections
import os
import sys
import threading
from pathlib import Path

import pytest

from ctxprob import cli, twoslit


@pytest.fixture
def validation_calls(monkeypatch):
    """A count of the calls of ``validate_scenario`` and ``validate_grid``, wherever they are imported."""
    calls = collections.Counter()
    for name in ("validate_scenario", "validate_grid"):
        def counted(record, name=name, check=getattr(twoslit, name)):
            calls[name] += 1
            return check(record)
        for module in (twoslit, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# With CTXPROB_LINES=1 the session fails if a statement in a function body of
# the package never ran. Run it over the whole suite: a subset leaves more unrun.
#
#     CTXPROB_LINES=1 PYTHONPATH=src python -m pytest -q
# ---------------------------------------------------------------------------

TRACE_LINES = os.environ.get("CTXPROB_LINES") == "1"
PACKAGE = Path(twoslit.__file__).parent
_IN_PACKAGE = str(PACKAGE) + os.sep

#: Statements that run only in a child process, by function and first line, with the test that runs each.
SUBPROCESS_ONLY = {
    ("cli.entrypoint", "raise SystemExit(main())"): "test_cli.py::test_python_m_runs_the_cli",
    ("cli._emit", "os.dup2(os.open(os.devnull, os.O_WRONLY), fd)"):
        "test_cli.py::test_stdout_to_a_full_device_exits_3",
    ("cli._emit", "raise SystemExit(1) from None"): "test_cli.py::test_stdout_closed_early_exits_1_quietly",
}

#: Tests that bound the time of a loop over the scalar calculus by 1.0 s. They run untraced: any
#: sys.settrace tracer, even one that traces no line, makes that loop about three times slower.
UNTRACED = {"test_criterion_1_quantum_rule_reproduction", "test_criterion_2_round_trip_decomposition"}

#: Per code object called, its lines that have not run; empty once all have, or outside the package.
_unrun: dict = {}
_problems: list[str] = []


def _call(frame, event, arg):
    code = frame.f_code
    unrun = _unrun.get(code)
    if unrun is None:
        lines = code.co_lines() if code.co_filename.startswith(_IN_PACKAGE) else ()
        unrun = _unrun[code] = {line for _, _, line in lines if line is not None}
    unrun.discard(frame.f_lineno)  # the def line, or the line a generator resumes at
    if not unrun:  # every line has run, or the code is not the package's: not traced
        return None
    discard = unrun.discard

    def line(frame, event, arg):
        discard(frame.f_lineno)  # a return or exception is at a line that ran, too
        return line

    return line


def _statements(path: Path):
    """(function, first line of text, lines) of each statement in a function body; the statement
    ran if one of ``lines`` did. A compound statement's lines are its header's (with decorators).
    Constant expressions such as docstrings, which compile to nothing, and ``global``/``nonlocal``
    declarations are left out."""
    source = path.read_text(encoding="utf-8")

    def walk(body, name, in_function):
        for node in body:
            blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            inner = [s for block in blocks for s in block]
            constant = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)  # a docstring
            if in_function and not constant and not isinstance(node, (ast.Global, ast.Nonlocal)):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                last = max(first, min(s.lineno for s in inner) - 1) if inner else node.end_lineno
                text = ast.get_source_segment(source, node).partition("\n")[0]
                yield name, text, range(first, last + 1)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(node.body, f"{name}.{node.name}", not isinstance(node, ast.ClassDef))
            else:
                yield from walk(inner, name, in_function)

    return walk(ast.parse(source).body, path.stem, False)


def pytest_sessionstart(session):
    if TRACE_LINES:
        threading.settrace(_call)
        sys.settrace(_call)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    untraced = TRACE_LINES and item.name in UNTRACED
    if untraced:
        sys.settrace(None)
    try:
        return (yield)
    finally:
        if untraced:
            sys.settrace(_call)


def pytest_sessionfinish(session):
    if not TRACE_LINES:
        return
    sys.settrace(None)
    threading.settrace(None)
    ran = {
        (code.co_filename, line) for code, unrun in _unrun.items() if code.co_filename.startswith(_IN_PACKAGE)
        for _, _, line in code.co_lines() if line not in unrun
    }
    unrun = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for function, text, lines in _statements(path):
            if not any((str(path), n) in ran for n in lines):
                unrun[function, text] = f"{path.name}:{lines[0]} in {function}: {text}"
    _problems.extend(f"never ran: {where}" for key, where in unrun.items() if key not in SUBPROCESS_ONLY)
    _problems.extend(
        f"SUBPROCESS_ONLY names no unrun statement: {function}: {text}"
        for function, text in SUBPROCESS_ONLY if (function, text) not in unrun
    )
    if _problems:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if TRACE_LINES:
        terminalreporter.section("CTXPROB_LINES")
        for problem in _problems:
            terminalreporter.line(problem)
        if not _problems:
            terminalreporter.line("every statement in a function body ran, or is run only in a child process")
