"""The one circle-mean kernel, CircleQuadrature.circle_means.

kappa, the mean Jacobian of the disk sweep, the image length and the mean
dilatation are each one call of it, so each keeps its contract: the radius
checks, a float for a scalar radius, shape (0,) for no radii, and the
non-finite check, on the one-node path as on the full path.  An ``ast``
rule keeps every other circle mean out of the package, and a text rule
keeps out the declared symmetry attributes that the probes replaced.
"""

import ast
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import beltrami_growth
from beltrami_growth import (
    BeyondDoubleRange,
    CircleQuadrature,
    CoefficientField,
    LinearCoefficient,
    Mapping,
    OutOfDomain,
    Power,
    PowerCoefficient,
    WirtingerPair,
    circle_average_D,
    circle_length,
    kappa,
)
from beltrami_growth.dilatation import PROBE_ANGLES
from beltrami_growth.growth import _mean_jacobians
from beltrami_growth.mappings import require_radii_within

from test_area_sweep import ModulatedPower

Q = CircleQuadrature(64)
RADII = np.array([0.5, 1.0, 3.0])


@dataclass(frozen=True, eq=False)
class NanCoefficient(CoefficientField):
    """|K|^2 = NaN everywhere."""

    def _abs2_array(self, w, r):
        return np.full(r.shape, math.nan)


@dataclass(frozen=True)
class Overflowing(Mapping):
    """f = 1e200 z: the derivatives are finite, but J_f = 1e400 overflows to
    inf, and so does |f_theta|^2 in the dilatation."""

    def _eval_array(self, z):
        return 1e200 * z

    def _wirtinger_array(self, z):
        return WirtingerPair(np.full(z.shape, 1e200 + 0j), np.zeros(z.shape, dtype=complex))


@dataclass(frozen=True, eq=False)
class AngularBand(CoefficientField):
    """|K|^2 = 1 + cos(theta) / 2, which depends on the angle alone, defined
    on 2 <= |z| <= 4 only."""

    radial_domain = (2.0, 4.0)

    def _abs2_array(self, w, r):
        r = require_radii_within(r, self.radial_domain, "the field's")
        return 1.0 + 0.5 * np.real(w) / r


@dataclass(frozen=True, eq=False)
class Tilted(CoefficientField):
    """|K|^2 = 2 + Re w / (1 + r), which changes with the angle and with the
    radius, so kappa reads full circles; ``broken`` makes it NaN on r > 2
    between the angles 0.1 and 0.3, where neither theta = 0 nor a probe lies."""

    broken: bool = False

    def _abs2_array(self, w, r):
        out = 2.0 + np.real(w) / (1.0 + r)
        if self.broken:
            out = np.where((r > 2.0) & (np.abs(np.angle(w) - 0.2) < 0.1), math.nan, out)
        return out


#: id -> (the mean at the radii r, the same mean on an input whose integrand
#: is not finite there); "one-node", "angle" and "full" name the kernel's path
MEANS = {
    "kappa-one-node": (
        lambda r: kappa(PowerCoefficient(2.0), r, Q),
        lambda r: kappa(NanCoefficient(), r, Q),
    ),
    "kappa-angle": (
        lambda r: kappa(LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j), r, Q),
        lambda r: kappa(NanCoefficient(), r, Q),
    ),
    "kappa-full": (
        lambda r: kappa(Tilted(), r, Q),
        lambda r: kappa(Tilted(broken=True), r, Q),
    ),
    "mean_jacobians-one-node": (
        lambda r: _mean_jacobians(Power(2.0), 0j, r, Q),
        lambda r: _mean_jacobians(Overflowing(), 0j, r, Q),
    ),
    # J of the modulated map changes round every circle, so every node is read
    "mean_jacobians-full": (
        lambda r: _mean_jacobians(ModulatedPower(), 0j, r, Q),
        lambda r: _mean_jacobians(Overflowing(), 1j, r, Q),
    ),
    # |f_theta| = 1e200 r overflows only at r ~ 1e108, where the
    # derivative pair refuses it before the mean is taken
    "circle_length": (
        lambda r: circle_length(Power(2.0), 0j, r, Q),
        lambda r: circle_length(Overflowing(), 0j, 1e110 * np.asarray(r), Q),
    ),
    "circle_average_D": (
        lambda r: circle_average_D(Power(2.0), 0j, r, Q),
        lambda r: circle_average_D(Overflowing(), 0j, r, Q),
    ),
}


@pytest.fixture(params=sorted(MEANS))
def case(request):
    return MEANS[request.param]


class TestContract:
    def test_scalar_radius_is_its_row_of_the_array(self, case):
        mean, _ = case
        means = mean(RADII)
        assert means.shape == RADII.shape
        for r, row in zip(RADII.tolist(), means.tolist()):
            one = mean(r)
            assert type(one) is float and one == row

    def test_no_radii_give_no_means(self, case):
        mean, _ = case
        assert mean(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize(
        "r, message",
        [
            (RADII[:, None], r"radius must be a scalar or a 1-d array, got shape \(3, 1\)"),
            (0.0, "radius must be positive, got 0.0"),
            (-1.0, "radius must be positive, got -1.0"),
            ([1.0, 0.0], r"radius must be positive, got \[1.0, 0.0\]"),
            (math.nan, "radius must be positive, got nan"),
        ],
        ids=["2-d", "zero", "negative", "zero-in-array", "nan"],
    )
    def test_bad_radii(self, case, r, message):
        mean, _ = case
        with pytest.raises(ValueError, match=message):
            mean(r)

    def test_non_finite_integrand(self, case):
        # the overflow itself is the point here, so numpy may not warn of it
        _, broken = case
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BeyondDoubleRange):
            broken(RADII)


class TestKernel:
    @pytest.mark.parametrize(
        "integrand, count",
        [
            # radial, and NaN on the whole circle r = 3: its theta = 0 node
            # is refused before any rule is taken
            (lambda z: np.where(np.abs(z) > 2.0, math.nan, 1.0), "1 of 3"),
            # Re z changes with the angle and the radius, and it is NaN on r =
            # 3 only between the angles 0.1 and 0.3, where no probe lies: the
            # circles' probes disagree with each other, no unit circle is
            # read, and the full circles refuse two nodes of their 192
            (
                lambda z: np.where(
                    (np.abs(z) > 2.0) & (np.abs(np.angle(z) - 0.2) < 0.1),
                    math.nan,
                    1.0 + np.real(z),
                ),
                "2 of 192",
            ),
        ],
        ids=["one-node", "full"],
    )
    def test_non_finite_sample(self, integrand, count):
        assert Q.circle_means(integrand, 0j, 1.5) == pytest.approx(1.0, rel=0.0, abs=1e-15)
        message = f"quadrature sample = nan at r = 3.0 is beyond double precision ({count} samples)"
        with pytest.raises(BeyondDoubleRange, match=f"^{re.escape(message)}$"):
            Q.circle_means(integrand, 0j, RADII)

    def test_one_node_reads_theta_zero(self):
        # |z - c| is radial about c: one call reads theta = 0 and the probes
        # of every circle, then all n nodes of the largest
        seen, c = [], 2.0 - 1j

        def sample(z):
            seen.append(np.array(z))
            return np.abs(z - c)

        means = Q.circle_means(sample, c, RADII)
        assert len(seen) == 1 and seen[0].shape == ((1 + len(PROBE_ANGLES)) * RADII.size + Q.n,)
        assert np.array_equal(seen[0][: RADII.size], c + RADII)
        assert np.array_equal(seen[0][-Q.n :], Q.points(c, RADII[-1]))
        assert np.array_equal(means, RADII)

    def test_largest_circle_refuses_the_radius_rule(self):
        # a bump between the angles 3.2 and 4.5, where no probe lies, on
        # every circle: the probes agree with theta = 0, the largest circle's
        # nodes do not, and no circle takes its theta = 0 sample
        def sample(z):
            return np.abs(z) * np.where(np.abs(np.angle(z) + 2.44) < 0.64, 2.0, 1.0)

        full = Q.mean(sample(Q.points(0j, RADII[:, None])))
        assert np.all(full > RADII)
        assert np.array_equal(Q.circle_means(sample, 0j, RADII), full)

    def test_probe_node_beyond_the_range(self):
        # about -1e308 the circle r = 1.5e308 has a finite theta = 0 node, but
        # its probe at 2.8783 passes -1.8e308: that probe reads theta = 0, and
        # the radial |K|^2 keeps its one-node mean
        assert kappa(PowerCoefficient(2.0, -1e308 + 0j), 1.5e308, Q) == 2.0

    def test_angle_rule_reads_the_unit_circle(self):
        # Re z / |z| depends on the angle alone: the probes of every circle
        # agree with the unit circle's, whose n nodes are read once more
        seen = []

        def sample(z):
            seen.append(np.shape(z))
            return np.real(z) / np.abs(z)

        means = Q.circle_means(sample, 0j, RADII)
        assert seen == [((1 + len(PROBE_ANGLES)) * RADII.size + Q.n,), (1, Q.n + 1 + len(PROBE_ANGLES))]
        assert np.all(means == Q.circle_means(sample, 0j, 1.0))

    def test_angle_rule_off_the_domain(self):
        # an angle-only coefficient undefined at r = 1 has no angle rule: its
        # circles are read in full, and no error is raised
        K, radii = AngularBand(), np.array([2.5, 3.0])
        full = np.mean(K.abs2(Q.points(0j, radii[:, None])), axis=-1)
        assert np.array_equal(kappa(K, radii, Q), full)
        with pytest.raises(OutOfDomain):
            K.abs2(1.0)

    def test_full_circles_match_the_nodes(self):
        # the mean of Re z over the n nodes about 2 - 1j is 2, to rounding
        means = Q.circle_means(np.real, 2.0 - 1j, RADII)
        assert np.allclose(means, 2.0, rtol=0.0, atol=1e-14)
        rows = Q.points(2.0 - 1j, RADII[:, None])
        assert np.array_equal(means, np.mean(np.real(rows), axis=-1))


# ---------------------------------------------------------------------------
# the ast rule: one home for circle means

PACKAGE = Path(beltrami_growth.__file__).parent

#: method -> the scopes that may call it: the kernel's own class, and
#: modulus_extremes, which probes each circle and scans the rest, keeping
#: every node's value and taking no mean
KERNEL_CALLS = {
    "mean": {"CircleQuadrature"},
    "blockwise": {"CircleQuadrature", "_scanned_extremes"},
    "probe": {"CircleQuadrature", "modulus_extremes"},
}
#: the declared symmetry attributes, their values' tuples, their reader and
#: their class-creation check, which the probes of circle_means replaced
REMOVED = (
    "symmetry",
    "MAPPING_SYMMETRIES",
    "symmetry_about",
    "abs2_symmetry",
    "CIRCLE_SYMMETRIES",
    "require_known_symmetry",
    "__init_subclass__",
)


def uses(tree, where, scopes=()):
    """(name, enclosing class and function names, location) of every call
    to ``<x>.mean``/``<x>.blockwise``/``<x>.probe`` with ``x`` other than
    numpy, in the syntax tree."""
    for node in ast.iter_child_nodes(tree):
        inner = scopes
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scopes + (node.name,)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in KERNEL_CALLS
            and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "np")
        ):
            yield node.func.attr, scopes, f"{where}:{node.lineno}"
        yield from uses(node, where, inner)


def package_uses():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from uses(ast.parse(path.read_text(), filename=str(path)), path.name)


def allowed(name, scopes):
    return bool(KERNEL_CALLS[name] & set(scopes))


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS))
def test_one_home_for_circle_means(name):
    found = [(scopes, where) for n, scopes, where in package_uses() if n == name]
    assert found, f"no use of {name} anywhere"
    stray = [where for scopes, where in found if not allowed(name, scopes)]
    assert not stray, f"{name} used outside its home at {stray}"


def test_walker_sees_kernel_calls():
    source = (
        "class CircleQuadrature:\n"
        "    def circle_means(self, s):\n"
        "        return self.mean(s)\n"
        "def length(q, z):\n"
        "    return np.mean(z) + q.mean(z)\n"
        "def modulus_extremes(q, d):\n"
        "    return q.probe(d) and q.blockwise(d)\n"
    )
    found = [(n, s, w) for n, s, w in uses(ast.parse(source), "example.py")]
    assert found == [
        ("mean", ("CircleQuadrature", "circle_means"), "example.py:3"),
        ("mean", ("length",), "example.py:5"),
        ("probe", ("modulus_extremes",), "example.py:7"),
        ("blockwise", ("modulus_extremes",), "example.py:7"),
    ]
    assert [allowed(n, s) for n, s, _ in found] == [True, False, True, False]


@pytest.mark.parametrize("name", REMOVED)
def test_no_declared_symmetry(name):
    # what a circle depends on is measured by its probes, never declared
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", line)
    ]
    assert not found, f"{name} appears at {found}"
