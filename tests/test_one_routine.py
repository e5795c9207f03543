"""verify.verify_pair is the one routine that judges a pair by verify's checks.

``cli verify`` prints the results that verify_pair yields.  Were cli.py to
call a check function itself, the checks' order, the residual tolerance, the
default grid or the check radii would have a second owner.  The rule is read
from the package source with ``ast``.
"""

import ast
from pathlib import Path

import beltrami_growth

PACKAGE = Path(beltrami_growth.__file__).parent

#: the functions whose reports verify_pair judges
CHECK_FUNCTIONS = ("pde_residual", "disk_checks", "theorem1_check")


def reached_names(tree):
    """(name, line) of every name the source binds or reads: import aliases,
    definitions, plain names and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[-1], node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def module_reaches(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(name, f"{path.name}:{line}") for name, line in reached_names(tree)]


def test_cli_reaches_no_check_function():
    stray = [where for name, where in module_reaches("cli") if name in CHECK_FUNCTIONS]
    assert stray == []


def test_verify_calls_every_check_function():
    reached = {name for name, _ in module_reaches("verify")}
    assert set(CHECK_FUNCTIONS) <= reached


def test_walker_sees_imports_definitions_and_attributes():
    source = (
        "from .verify import pde_residual as residual\n"
        "import beltrami_growth.growth\n"
        "def disk_checks():\n"
        "    return beltrami_growth.growth.theorem1_check\n"
    )
    found = set(reached_names(ast.parse(source)))
    assert {("residual", 1), ("growth", 2), ("disk_checks", 3), ("theorem1_check", 4)} <= found
