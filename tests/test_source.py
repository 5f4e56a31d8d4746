"""Checks on the library source itself."""

import ast
from pathlib import Path

import bruhat_hypercubes

SRC = Path(bruhat_hypercubes.__file__).parent


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so an invariant written as one
    # silently stops firing; the library raises InvariantViolation instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
