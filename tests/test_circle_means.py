"""The one circle-mean kernel, CircleQuadrature.circle_means.

kappa, the mean Jacobian of the disk sweep, the image length and the mean
dilatation are each one call of it, so each keeps its contract: the radius
checks, a float for a scalar radius, shape (0,) for no radii, and the
non-finite check, on the one-node path as on the full path.  An ``ast``
rule keeps every other circle mean out of the package, and each symmetry
attribute to its one reader.
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
    Linear,
    LinearCoefficient,
    Mapping,
    Power,
    PowerCoefficient,
    WirtingerPair,
    circle_average_D,
    circle_length,
    kappa,
)
from beltrami_growth.growth import _mean_jacobians

Q = CircleQuadrature(64)
RADII = np.array([0.5, 1.0, 3.0])


@dataclass(frozen=True, eq=False)
class NanCoefficient(CoefficientField):
    """|K|^2 = NaN everywhere; ``abs2_symmetry`` picks the path of kappa."""

    abs2_symmetry: str | None = None

    def _abs2_array(self, w, r):
        return np.full(r.shape, math.nan)


@dataclass(frozen=True)
class Overflowing(Mapping):
    """f = 1e200 z: the derivatives are finite, but J_f = 1e400 overflows to
    inf, and so does |f_theta|^2 in the dilatation."""

    symmetry = "radial_jacobian"

    def _eval_array(self, z):
        return 1e200 * z

    def _wirtinger_array(self, z):
        return WirtingerPair(np.full(z.shape, 1e200 + 0j), np.zeros(z.shape, dtype=complex))


LINEAR = Linear(0.3 + 0.1j, 1.2 - 0.4j, 0.5j)

#: id -> (the mean at the radii r, the same mean on an input whose integrand
#: is not finite there); "one-node" and "full" name the kernel's path
MEANS = {
    "kappa-one-node": (
        lambda r: kappa(PowerCoefficient(2.0), r, Q),
        lambda r: kappa(NanCoefficient("radius"), r, Q),
    ),
    "kappa-full": (
        lambda r: kappa(LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j), r, Q),
        lambda r: kappa(NanCoefficient(None), r, Q),
    ),
    "mean_jacobians-one-node": (
        lambda r: _mean_jacobians(Power(2.0), 0j, r, Q),
        lambda r: _mean_jacobians(Overflowing(), 0j, r, Q),
    ),
    # about a point other than the center, every node is read
    "mean_jacobians-full": (
        lambda r: _mean_jacobians(LINEAR, 1j, r, Q),
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
    @pytest.mark.parametrize("symmetry", ["radius", None], ids=["one-node", "full"])
    def test_non_finite_sample(self, symmetry):
        def sample(z):
            return np.where(np.abs(z) > 2.0, math.nan, 1.0)

        assert Q.circle_means(sample, 0j, 1.5, symmetry) == 1.0
        count = {"radius": "1 of 3", None: "64 of 192"}[symmetry]
        message = f"quadrature sample = nan at r = 3.0 is beyond double precision ({count} samples)"
        with pytest.raises(BeyondDoubleRange, match=f"^{re.escape(message)}$"):
            Q.circle_means(sample, 0j, RADII, symmetry)

    @pytest.mark.parametrize("symmetry", [True, "radial", "equivariant", 0])
    def test_unknown_symmetry(self, symmetry):
        # a typo must not fall through to the full path or to a shortcut
        with pytest.raises(ValueError, match=f"unknown circle symmetry {symmetry!r}"):
            Q.circle_means(np.real, 0j, RADII, symmetry)

    def test_one_node_reads_theta_zero(self):
        seen = []

        def sample(z):
            seen.append(np.array(z))
            return np.real(z)

        means = Q.circle_means(sample, 2.0 - 1j, RADII, "radius")
        assert len(seen) == 1 and seen[0].shape == (RADII.size, 1)
        assert np.array_equal(seen[0][:, 0], (2.0 - 1j) + RADII)
        assert np.array_equal(means, 2.0 + RADII)

    def test_full_circles_match_the_nodes(self):
        # the mean of Re z over the n nodes about 2 - 1j is 2, to rounding
        means = Q.circle_means(np.real, 2.0 - 1j, RADII)
        assert np.allclose(means, 2.0, rtol=0.0, atol=1e-14)
        rows = Q.points(2.0 - 1j, RADII[:, None])
        assert np.array_equal(means, np.mean(np.real(rows), axis=-1))


# ---------------------------------------------------------------------------
# the ast rule: one home for circle means

PACKAGE = Path(beltrami_growth.__file__).parent

#: method -> the scopes that may call it: the kernel's own class, and the grid
#: scan of modulus_extremes, which keeps every node's value and takes no mean
KERNEL_CALLS = {
    "mean": {"CircleQuadrature"},
    "blockwise": {"CircleQuadrature", "modulus_extremes"},
}
#: symmetry attribute -> the one function that reads it, to choose the
#: kernel's path
FLAG_READS = {"symmetry": "symmetry_about", "abs2_symmetry": "kappa"}


def uses(tree, where, scopes=()):
    """(name, enclosing class and function names, location) of every call
    to ``<x>.mean``/``<x>.blockwise`` with ``x`` other than numpy, and every
    read of an attribute that picks the kernel's path, in the syntax tree."""
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
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FLAG_READS
            and isinstance(node.ctx, ast.Load)
        ):
            yield node.attr, scopes, f"{where}:{node.lineno}"
        yield from uses(node, where, inner)


def package_uses():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from uses(ast.parse(path.read_text(), filename=str(path)), path.name)


def allowed(name, scopes):
    if name in FLAG_READS:
        return FLAG_READS[name] in scopes
    return bool(KERNEL_CALLS[name] & set(scopes))


@pytest.mark.parametrize("name", sorted(KERNEL_CALLS) + sorted(FLAG_READS))
def test_one_home_for_circle_means(name):
    found = [(scopes, where) for n, scopes, where in package_uses() if n == name]
    assert found, f"no use of {name} anywhere"
    stray = [where for scopes, where in found if not allowed(name, scopes)]
    assert not stray, f"{name} used outside its home at {stray}"


def test_walker_sees_calls_and_reads():
    source = (
        "class CircleQuadrature:\n"
        "    def circle_means(self, s):\n"
        "        return self.mean(s)\n"
        "def length(q, z):\n"
        "    return np.mean(z) + q.mean(z)\n"
        "def kappa(K):\n"
        "    return K.abs2_symmetry or K.symmetry\n"
        "class Field:\n"
        "    abs2_symmetry = 'angle'\n"
        "class Map:\n"
        "    symmetry = 'equivariant'\n"
        "    def symmetry_about(self, z0):\n"
        "        return self.symmetry\n"
        "def length(f):\n"
        "    return f.symmetry_about(0) and f.symmetry and f.abs2_symmetry\n"
    )
    found = [(n, s, w) for n, s, w in uses(ast.parse(source), "example.py")]
    assert found == [
        ("mean", ("CircleQuadrature", "circle_means"), "example.py:3"),
        ("mean", ("length",), "example.py:5"),
        ("abs2_symmetry", ("kappa",), "example.py:7"),
        ("symmetry", ("kappa",), "example.py:7"),
        ("symmetry", ("Map", "symmetry_about"), "example.py:13"),
        ("symmetry", ("length",), "example.py:15"),
        ("abs2_symmetry", ("length",), "example.py:15"),
    ]
    assert [allowed(n, s) for n, s, _ in found] == [True, False, True, False, True, False, False]
