"""Opt-in pytest plugin: the statements of ``src/monocat`` that no test runs.

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

No coverage package is needed: a ``sys.settrace`` line tracer records each
line of the package that runs, and the summary counts the statements whose
line never did.  A statement is any ``ast`` statement but a docstring, a
``def``, a ``class`` or an import.  The tracer is installed as pytest loads the
plugin, before the conftest imports the package, and again before each
test, since hypothesis may swap the tracer out.  The run is about twice
as slow as an untraced one, so it is not part of the default run (this file
is not named ``test_*``).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monocat"

_ran: set[tuple[str, int]] = set()


def _statements(path: Path) -> set[int]:
    """The line of every statement of the module at ``path`` that counts."""
    skipped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, skipped):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        lines.add(node.lineno)
    return lines


_ours: dict[str, str] = {}  # a code object's file name -> its module's resolved path, or ""


def _local(frame, event, arg):
    if event == "line":
        _ran.add((_ours[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        path = Path(name).resolve()
        _ours[name] = str(path) if path.parent == PACKAGE else ""
    if _ours[name]:
        _ran.add((_ours[name], frame.f_lineno))
        return _local
    return None


# installed as the plugin loads, before the conftest imports the package
sys.settrace(_global)


def pytest_runtest_setup(item):
    sys.settrace(_global)


def pytest_runtest_call(item):
    sys.settrace(_global)


def unrun() -> list[tuple[str, int]]:
    """``(module file name, line)`` of every statement that has not run, sorted."""
    return sorted((path.name, line) for path in sorted(PACKAGE.glob("*.py"))
                  for line in _statements(path) if (str(path), line) not in _ran)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    total = sum(len(_statements(path)) for path in PACKAGE.glob("*.py"))
    missed = unrun()
    write = terminalreporter.write_line
    write(f"linetrace: {len(missed)} of {total} statements in src/monocat never ran")
    for name, line in missed:
        write(f"  {name}:{line}")
