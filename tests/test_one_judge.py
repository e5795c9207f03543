"""growth.judge is the one rule that turns two sides and a tolerance into a verdict.

Six verdicts hold a computed value to a tolerance: the isoperimetric
inequality, the differential inequality, the area bound, the growth ladder,
the PDE residual and the power sharpness ratio.  Each passes its two sides
and its tolerance constant to ``judge``, which alone holds the scale: the
margin lhs - rhs may fall below zero by rel_tol times the larger side.  A
second comparison elsewhere would bring back a second scale.  The rule is
read from the package source with ``ast``; the boundary and the six old
expressions are held below.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beltrami_growth
from beltrami_growth import growth
from beltrami_growth.growth import (
    AREA_BOUND_REL_TOL,
    DIFFERENTIAL_REL_TOL,
    GROWTH_REL_TOL,
    ISOPERIMETRIC_REL_TOL,
)
from beltrami_growth.verify import RESIDUAL_TOL, SHARPNESS_TOL

PACKAGE = Path(beltrami_growth.__file__).parent

#: the names a verdict's tolerance goes by: five constants and verify_pair's parameter
VERDICT_TOLERANCES = {
    "ISOPERIMETRIC_REL_TOL",
    "DIFFERENTIAL_REL_TOL",
    "AREA_BOUND_REL_TOL",
    "GROWTH_REL_TOL",
    "RESIDUAL_TOL",
    "SHARPNESS_TOL",
    "residual_tol",
}
#: tolerances of a quadrature and of a search, not of a verdict: the rule
#: leaves their comparisons alone
LEFT_ALONE = {
    "ENVELOPE_ABS_TOL": "the attenuation integral's panel error",
    "MODULUS_ANGLE_TOL": "the golden-section bracket of the modulus search",
    "SYMMETRY_REL_TOL": "the probe test that lets one node stand for its circle",
}
#: the six functions whose verdicts judge makes
JUDGED = {
    "_isoperimetric_reports",
    "_differential_rows",
    "_area_bound_report",
    "theorem1_check",
    "verify_pair",
    "sharpness_ladder",
}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(scope):
    """Every node of a module or function body, less the nested functions."""
    for child in ast.iter_child_nodes(scope):
        if not isinstance(child, SCOPES):
            yield child
            yield from own_nodes(child)


def scopes(tree):
    """(function name or None for the module, node) of every scope in the tree."""
    yield None, tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def mentioned(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def bindings(node):
    """(bound names, value expression) pairs of an assignment-like node; a
    tuple target over a tuple value of the same length pairs element-wise."""
    if isinstance(node, ast.Assign):
        pairs = [(target, node.value) for target in node.targets]
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and node.value:
        pairs = [(node.target, node.value)]
    elif isinstance(node, (ast.For, ast.comprehension)):
        pairs = [(node.target, node.iter)]
    else:
        return
    for target, value in pairs:
        if (
            isinstance(target, ast.Tuple)
            and isinstance(value, ast.Tuple)
            and len(target.elts) == len(value.elts)
        ):
            for t, v in zip(target.elts, value.elts):
                yield {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}, v
        else:
            yield {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}, value


def tolerance_compares(tree, where):
    """(enclosing function, location) of every comparison outside judge that
    mentions a verdict tolerance, directly or through a local assigned from
    one in the same function."""
    for function, scope in scopes(tree):
        if function == "judge":
            continue
        nodes = list(own_nodes(scope))
        tainted = set(VERDICT_TOLERANCES)
        grown = True
        while grown:
            grown = False
            for node in nodes:
                for names, value in bindings(node):
                    if mentioned(value) & tainted and not names <= tainted:
                        tainted |= names
                        grown = True
        for node in nodes:
            if isinstance(node, ast.Compare) and mentioned(node) & tainted:
                yield function, f"{where}:{node.lineno}"


def judge_callers(tree):
    for function, scope in scopes(tree):
        for node in own_nodes(scope):
            if isinstance(node, ast.Call) and "judge" in mentioned(node.func):
                yield function


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_tolerance_compared_outside_judge():
    found = [hit for name, tree in package_trees() for hit in tolerance_compares(tree, name)]
    assert not found, f"a verdict tolerance is compared outside judge at {found}"


def test_the_six_verdicts_call_judge():
    callers = {caller for _, tree in package_trees() for caller in judge_callers(tree)}
    missing, extra = sorted(JUDGED - callers), sorted(callers - JUDGED)
    assert not missing and not extra, f"missing {missing}, extra {extra}"


def test_every_tolerance_constant_is_named_here():
    # a new *_TOL constant is a verdict tolerance or is left alone by name
    defined = {
        target.id
        for _, tree in package_trees()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    }
    assert defined == (VERDICT_TOLERANCES - {"residual_tol"}) | set(LEFT_ALONE)


def test_walker_sees_direct_and_derived_tolerances():
    source = (
        "def judge(lhs, rhs, rel_tol):\n"
        "    return lhs - rhs >= -rel_tol * GROWTH_REL_TOL\n"
        "def direct(x):\n"
        "    return x <= SHARPNESS_TOL\n"
        "def through_a_local(v, m):\n"
        "    floor = m * (1.0 - GROWTH_REL_TOL)\n"
        "    low = floor\n"
        "    return v >= low\n"
        "def tuple_target(rhs, inner):\n"
        "    slack, tol = rhs - inner, AREA_BOUND_REL_TOL * rhs\n"
        "    return slack > 0, slack >= -tol\n"
        "def parameter(max_abs, residual_tol):\n"
        "    return max_abs <= residual_tol\n"
        "def left_alone(fine, coarse):\n"
        "    return abs(fine - coarse) > ENVELOPE_ABS_TOL\n"
    )
    found = list(tolerance_compares(ast.parse(source), "example.py"))
    assert found == [
        ("direct", "example.py:4"),
        ("through_a_local", "example.py:8"),
        ("tuple_target", "example.py:11"),
        ("parameter", "example.py:13"),
    ]


# ---------------------------------------------------------------------------
# the boundary


@pytest.mark.parametrize("rel_tol", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("rhs", [1.0, 3.0, 2.0**-40 * 5.0, 2.0**60 * 7.0])
def test_margin_of_exactly_minus_tol_passes(rhs, rel_tol):
    # rel_tol * rhs is the tolerance, since lhs < rhs; a rel_tol this large
    # lets lhs = rhs + margin hold both margins exactly, which the first
    # item of judge's triple confirms
    tol = rel_tol * rhs
    for margin, passes in ((-tol, True), (math.nextafter(-tol, -math.inf), False)):
        assert growth.judge(rhs + margin, rhs, rel_tol) == (margin, passes, passes)


def test_verdicts_are_python_bools():
    _, ok, equality = growth.judge(np.float64(2.0), np.float64(1.0), 1e-6)
    assert type(ok) is bool and type(equality) is bool


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, derandomize=True, database=None)
@given(limit=FINITE, value=FINITE)
def test_absolute_limit_is_value_at_most_limit(limit, value):
    assert growth.judge(limit, value, 0.0)[1] is (value <= limit)


@pytest.mark.parametrize(
    "limit, value",
    [
        (1e-8, 1e-8),
        (1e-8, math.nextafter(1e-8, math.inf)),
        (0.0, -0.0),
        (5e-324, 0.0),
        (0.0, 5e-324),
        (1.7e308, -1.7e308),
        (-1.7e308, 1.7e308),
    ],
)
def test_absolute_limit_at_its_edges(limit, value):
    assert growth.judge(limit, value, 0.0)[1] is (value <= limit)


# ---------------------------------------------------------------------------
# the six old expressions, held as oracles


def old_isoperimetric(length, area):
    slack = length**2 - 4.0 * math.pi * area
    scale = ISOPERIMETRIC_REL_TOL * length**2
    return slack, slack >= -scale, abs(slack) <= scale


def old_area_bound(rhs, area_inner):
    slack, tol = rhs - area_inner, AREA_BOUND_REL_TOL * rhs
    return slack, slack >= -tol, abs(slack) <= tol


def old_differential(rate, bound):
    return rate / bound >= 1.0 - DIFFERENTIAL_REL_TOL


def old_growth(vk, m_inner):
    return vk >= m_inner * (1.0 - GROWTH_REL_TOL)


def old_residual(max_abs, residual_tol):
    return max_abs <= residual_tol


def old_sharpness(max_dev):
    return max_dev <= SHARPNESS_TOL


#: relative width, in units of the larger side, of the band around each
#: boundary that the property leaves out: a few ulps where the old and new
#: roundings differ, and rel_tol^2 for the two checks that scaled by their
#: left side, whose failing-side threshold moved by that much
ULPS = 1e-14


def outside_band(lhs, rhs, rel_tol, band):
    side = max(abs(lhs), abs(rhs))
    return abs(abs(lhs - rhs) - rel_tol * side) > band * side


SIDES = st.floats(1e-100, 1e100)
#: the other side, rel_tol * offset away: most draws fall near the boundary
OFFSETS = st.floats(-4.0, 4.0)


@settings(max_examples=200, derandomize=True, database=None)
@given(area=SIDES, offset=OFFSETS)
def test_isoperimetric_as_before(area, offset):
    length = math.sqrt(4.0 * math.pi * area * (1.0 + offset * ISOPERIMETRIC_REL_TOL))
    lhs, rhs = length**2, 4.0 * math.pi * area
    new = growth.judge(lhs, rhs, ISOPERIMETRIC_REL_TOL)
    old = old_isoperimetric(length, area)
    assert new[0] == old[0]  # the printed slack, bit for bit
    assume(outside_band(lhs, rhs, ISOPERIMETRIC_REL_TOL, 2.0 * ISOPERIMETRIC_REL_TOL**2 + ULPS))
    assert new[1:] == old[1:]


@settings(max_examples=200, derandomize=True, database=None)
@given(area_inner=SIDES, offset=OFFSETS)
def test_area_bound_as_before(area_inner, offset):
    rhs = area_inner * (1.0 + offset * AREA_BOUND_REL_TOL)
    new = growth.judge(rhs, area_inner, AREA_BOUND_REL_TOL)
    old = old_area_bound(rhs, area_inner)
    assert new[0] == old[0]
    assume(outside_band(rhs, area_inner, AREA_BOUND_REL_TOL, 2.0 * AREA_BOUND_REL_TOL**2 + ULPS))
    assert new[1:] == old[1:]


@settings(max_examples=200, derandomize=True, database=None)
@given(bound=SIDES, offset=OFFSETS)
def test_differential_as_before(bound, offset):
    rate = bound * (1.0 + offset * DIFFERENTIAL_REL_TOL)
    assume(outside_band(rate, bound, DIFFERENTIAL_REL_TOL, ULPS))
    assert growth.judge(rate, bound, DIFFERENTIAL_REL_TOL)[1] == old_differential(rate, bound)


@settings(max_examples=200, derandomize=True, database=None)
@given(m_inner=SIDES, offset=OFFSETS)
def test_growth_ladder_as_before(m_inner, offset):
    vk = m_inner * (1.0 + offset * GROWTH_REL_TOL)
    assume(outside_band(vk, m_inner, GROWTH_REL_TOL, ULPS))
    assert growth.judge(vk, m_inner, GROWTH_REL_TOL)[1] == old_growth(vk, m_inner)


@settings(max_examples=200, derandomize=True, database=None)
@given(max_abs=st.floats(0.0, 1e300), residual_tol=st.sampled_from([RESIDUAL_TOL, 1.0, 5e-324]))
def test_residual_as_before(max_abs, residual_tol):
    # an absolute limit has no band: the verdict is exact
    assert growth.judge(residual_tol, max_abs, 0.0)[1] == old_residual(max_abs, residual_tol)


@settings(max_examples=200, derandomize=True, database=None)
@given(max_dev=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * SHARPNESS_TOL)))
def test_sharpness_as_before(max_dev):
    assert growth.judge(SHARPNESS_TOL, max_dev, 0.0)[1] == old_sharpness(max_dev)
