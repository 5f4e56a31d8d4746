"""Checks on the library source itself."""

import ast
import doctest
import re
from pathlib import Path

import bruhat_hypercubes
from bruhat_hypercubes import errors, perms

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


def test_cluster_error_reasons_are_the_documented_ones():
    # the HD3 reasons in reports are ClusterError reasons; the docstring
    # lists exactly the reasons the library raises
    documented = set(re.findall(r'"([^"]+)"', errors.ClusterError.__doc__))
    first_args = [
        node.args[0]
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ClusterError"
    ]
    assert all(isinstance(arg, ast.Constant) and isinstance(arg.value, str) for arg in first_args)
    assert {arg.value for arg in first_args} == documented
