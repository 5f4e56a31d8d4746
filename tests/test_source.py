"""Checks on the library source itself."""

import ast
import doctest
from pathlib import Path

import bruhat_hypercubes
from bruhat_hypercubes import perms

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


def test_perms_doctests_pass():
    # the examples in the perms docstrings are executable documentation
    result = doctest.testmod(perms)
    assert result.attempted == 9 and result.failed == 0
