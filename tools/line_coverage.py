"""List the statements of ``src/blossom`` that the test suite never runs.

Runs pytest over ``tests/`` in this process, under ``sys.settrace`` and
``threading.settrace``, and records the lines run by frames whose code
lies in ``src/blossom``. A statement is a line where an ``ast`` statement
starts and the compiler emits code, so docstrings and bare ``try:`` lines
do not count. Each statement that never ran is printed as
``path:line: source``, and the exit code is pytest's. Code run in a
subprocess, such as the CLI tests' ``python -m blossom.cli``, is not seen.
Slow, since every call made while the tests run passes through the tracer:

    python3 tools/line_coverage.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blossom"


def code_lines(code: CodeType) -> set[int]:
    """The lines that the code object and those nested in it emit code for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    source = path.read_text()
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return starts & code_lines(compile(source, str(path), "exec"))


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def on_call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(statements(path) - ran[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} statements of src/blossom never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
