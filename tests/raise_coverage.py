"""A pytest plugin that fails the run when some ``raise`` statement in
``src/finevo`` never ran in-process.

Run the whole suite with it loaded::

    PYTHONPATH=src:tests python -m pytest -q -p raise_coverage

A ``sys.settrace`` hook traces only frames of ``src/finevo`` code objects
that still hold an unreached raise, and marks a raise reached when a line
of its statement runs. At the end of the session every raise is reached,
or it is on ``ALLOWED`` with the test that reaches it in a child process,
where no tracer runs; an ``ALLOWED`` entry that names no raise fails the
run too. Entries are keyed by file and the raise's text, not by line.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import finevo

# the sources of the finevo that the tests import, as its code objects name them
PACKAGE = Path(finevo.__file__).parent

ALLOWED = {
    ("__main__.py", "raise SystemExit(main())"):
        "tests/test_cli.py::test_closed_stdout_exits_3 runs `python -m finevo`",
    ("cli.py", 'raise InputError(f"cannot write report to stdout: {exc}") from exc'):
        "tests/test_cli.py::test_closed_stdout_exits_3 closes the child's stdout",
}


def raises(path: Path) -> dict:
    """Each line of each raise statement in the file, mapped to the raise:
    (file name, first line, text with runs of whitespace collapsed)."""
    source = path.read_text()
    lines = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            text = " ".join(ast.get_source_segment(source, node).split())
            lines.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1),
                                       (path.name, node.lineno, text)))
    return lines


class RaiseTracer:
    """Records which raise statements of the package run."""

    def __init__(self, package: Path):
        self.raises = {str(path): raises(path) for path in sorted(package.glob("*.py"))}
        self.unreached = {r for lines in self.raises.values() for r in lines.values()}
        self.watched = {}  # code object -> its lines that hold an unreached raise

    def line(self, frame, event, arg):
        if event == "line":
            self.unreached.discard(self.raises[frame.f_code.co_filename].get(frame.f_lineno))
        return self.line

    def call(self, frame, event, arg):
        code = frame.f_code
        lines = self.watched.get(code)
        if lines is None:
            at = self.raises.get(code.co_filename, {})
            lines = self.watched[code] = {line for _, _, line in code.co_lines() if line in at}
        if not lines:
            return None
        at = self.raises[code.co_filename]
        lines.difference_update([line for line in lines if at[line] not in self.unreached])
        return self.line if lines else None

    def problems(self) -> list:
        unreached = [f"unreached in-process: {name}:{line}: {text}"
                     for name, line, text in sorted(self.unreached)
                     if (name, text) not in ALLOWED]
        every = {(name, text) for lines in self.raises.values()
                 for name, _, text in lines.values()}
        stale = [f"allow-list entry names no raise: {name}: {text}"
                 for name, text in sorted(set(ALLOWED) - every)]
        return unreached + stale


_tracer = RaiseTracer(PACKAGE)


def pytest_configure(config):
    sys.settrace(_tracer.call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    if _tracer.problems() and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    problems = _tracer.problems()
    terminalreporter.write_sep("=", f"raise coverage: {len(problems)} problems")
    for line in problems:
        terminalreporter.write_line(line)
