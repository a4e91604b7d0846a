"""No module of the package, the oracle included, uses an ``assert``
statement, so every check it makes still runs under ``python -O``."""

import ast
from pathlib import Path

import blossom


def test_no_module_asserts():
    paths = sorted(Path(blossom.__file__).parent.glob("*.py"))
    assert {p.name for p in paths} >= {"matching.py", "assembly.py", "oracle.py"}
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
