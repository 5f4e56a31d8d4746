"""Checks on the library source itself."""

import ast
import doctest
import json
import re
import subprocess
import sys
from pathlib import Path

import bruhat_hypercubes
from bruhat_hypercubes import errors, perms

from helpers import comparable_pairs, subprocess_env

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


def test_package_root_imports_nothing():
    # every caller imports from the modules; a re-export layer at the root
    # would load all of them for every command
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [
        node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _loaded_after(script: str, *args: str) -> tuple[str, set[str]]:
    """Run script in a fresh interpreter; its stdout but the last line, and
    the modules the last line names."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    return "\n".join(out), set(loaded.split())


# python -m bruhat_hypercubes ARGS..., then the modules it left loaded
QUERY = """
import runpy, sys
sys.argv = ["bruhat_hypercubes", *sys.argv[1:]]
try:
    runpy.run_module("bruhat_hypercubes", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert stop.code == 0, stop.code
print(" ".join(sorted(sys.modules)))
"""


def test_a_query_loads_only_what_it_uses():
    # records are plain classes: dataclasses, and the inspect it imports,
    # would double the import time of every query
    for argv, field, want in (
        (("kl", "1324", "4231"), "P", [1]),
        (("hcd", "1324", "4231"), "verdict", "equal"),
    ):
        report, loaded = _loaded_after(QUERY, *argv, "--json")
        assert json.loads(report)[field] == want
        assert "bruhat_hypercubes.cli" in loaded
        assert not loaded & {
            "bruhat_hypercubes.reflection_orders",
            "fractions",
            "dataclasses",
            "inspect",
        }, argv


def test_no_library_module_imports_dataclasses():
    # every module but the package root and __main__, which runs the CLI
    modules = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
    assert "reflection_orders" in modules
    script = "".join(f"import bruhat_hypercubes.{m}\n" for m in modules)
    _, loaded = _loaded_after(script + "import sys\nprint(' '.join(sorted(sys.modules)))")
    assert {f"bruhat_hypercubes.{m}" for m in modules} <= loaded
    assert "dataclasses" not in loaded


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


def test_invariants_fire_under_python_O():
    # under -O a wrong cycle formula must still raise InvariantViolation, and
    # the verify stream must not change (the summary's seconds aside)
    script = """
import sys
from bruhat_hypercubes import hypercubes
from bruhat_hypercubes.errors import InvariantViolation
from bruhat_hypercubes.intervals import build_interval
from bruhat_hypercubes.perms import right_cycle

assert False, "asserts are live: not running under -O"
hypercubes.right_cycle = lambda w, c: right_cycle(w, c[::-1])
try:
    hypercubes.standard_hcd(build_interval((1, 2, 3), (3, 2, 1)))
except InvariantViolation:
    sys.exit(0)
sys.exit(3)
"""

    def run(*argv: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("-O", "-c", script)

    def stream(*flags: str, jobs: str = "1") -> tuple:
        argv = ["verify", "4", "--exhaustive-z", "--json", "--jobs", jobs]
        proc = run(*flags, "-m", "bruhat_hypercubes", *argv)
        *reports, summary = proc.stdout.splitlines()
        assert len(reports) == len(comparable_pairs(4))
        summary = json.loads(summary)
        del summary["summary"]["seconds"]
        return reports, summary

    # and in forked workers (two, where the host has two CPUs)
    assert stream("-O", jobs="2") == stream("-O") == stream()
