"""Each guarded error is built by its one guard function alone.

``require_radii_within`` owns the radius-in-domain rule,
``require_jacobian_above`` the J_f > floor rule and
``require_radius_above_floor`` the |z - center| >= RADIUS_FLOOR rule,
``require_finite`` the rule that a computed value is within the double
range, and the four parameter guards of ``mappings`` the rules on a
constructor's parameters (a finite modulus, positive and finite, an integer
of at least some minimum, positive and strictly ascending); a second check
elsewhere would bring back a second slop or a second message.
The rule is read from the package source with ``ast``.
"""

import ast
from pathlib import Path

import pytest

import beltrami_growth

PACKAGE = Path(beltrami_growth.__file__).parent

#: guarded error -> the functions that alone may construct or raise it
GUARDS = {
    "OutOfDomain": {"require_radii_within"},
    "NonPositiveJacobian": {"require_jacobian_above"},
    "DegenerateRadius": {"require_radius_above_floor"},
    "BeyondDoubleRange": {"require_finite"},
    "InvalidParameter": {
        "require_finite_modulus",
        "require_positive",
        "require_count",
        "require_ascending",
    },
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def constructions(tree, where, function=None):
    """(error, enclosing function, location) of every call to a guarded
    error class, and every bare ``raise`` of one, in the syntax tree."""
    for node in ast.iter_child_nodes(tree):
        inner = function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        error = None
        if isinstance(node, ast.Call):
            error = _name(node.func)
        elif isinstance(node, ast.Raise):
            error = _name(node.exc)
        if error in GUARDS:
            yield error, function, f"{where}:{node.lineno}"
        yield from constructions(node, where, inner)


def package_constructions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield from constructions(tree, path.name)


@pytest.mark.parametrize("error", sorted(GUARDS))
def test_only_the_guard_builds_the_error(error):
    found = [(func, where) for e, func, where in package_constructions() if e == error]
    assert found, f"no {error} is built anywhere"
    stray = [where for func, where in found if func not in GUARDS[error]]
    assert not stray, f"{error} built outside {sorted(GUARDS[error])} at {stray}"
    assert {func for func, _ in found} == GUARDS[error], f"a guard of {error} never raises it"


def test_walker_sees_calls_and_bare_raises():
    source = (
        "def require_radii_within(r):\n"
        "    raise errors.OutOfDomain('x')\n"
        "class Table:\n"
        "    def rho(self, r):\n"
        "        raise OutOfDomain\n"
        "def area(j):\n"
        "    return [NonPositiveJacobian(j)]\n"
    )
    found = list(constructions(ast.parse(source), "example.py"))
    assert found == [
        ("OutOfDomain", "require_radii_within", "example.py:2"),
        ("OutOfDomain", "rho", "example.py:5"),
        ("NonPositiveJacobian", "area", "example.py:7"),
    ]
