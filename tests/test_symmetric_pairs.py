"""Circle functionals of symmetric pairs from one sample.

A map that commutes with rotations about its center has the symmetry
"equivariant"; about that center |f - f(center)|, |f_theta| and the
dilatation are the same at every node of a circle, so modulus_extremes,
circle_length and circle_average_D read the theta = 0 node alone.  A
coefficient whose |K|^2 depends on the angle alone has the abs2_symmetry
"angle", and kappa takes one unit-circle mean for every radius.  The values
are held honest by property tests, and the shortcuts by full-path oracles
(test-local views with a lesser value) and by point counts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    CircleQuadrature,
    CoefficientField,
    FieldProfile,
    Linear,
    LinearCoefficient,
    Mapping,
    Power,
    RadiusLadder,
    circle_average_D,
    circle_length,
    disk_checks,
    kappa,
    modulus_extremes,
    theorem1_check,
)
from beltrami_growth.cli import _check_radii

from test_area_sweep import (
    CERTIFY_KINDS,
    DISK_PAIRS,
    FLAGGED,
    TABLE_AT_5,
    InteriorFold,
    ModulatedPower,
)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def carrying(base, attribute, value):
    """The package's subclasses of ``base`` whose ``attribute`` is ``value``."""
    return {
        cls.__name__
        for cls in subclasses(base)
        if cls.__module__.startswith("beltrami_growth") and getattr(cls, attribute) == value
    }


class NotEquivariant:
    """A mapping with a radial Jacobian seen with the symmetry
    "radial_jacobian" alone, so every circle functional reads all n nodes:
    the full-path oracle of the one-node path.  The disk sweep keeps its one
    node per circle, and every other attribute is the mapping's."""

    symmetry = "radial_jacobian"
    symmetry_about = Mapping.symmetry_about

    def __init__(self, mapping):
        self._mapping = mapping

    def __getattr__(self, name):
        return getattr(self._mapping, name)


class NoAbs2Symmetry:
    """A coefficient seen with no abs2_symmetry, so kappa averages every
    circle on its own."""

    abs2_symmetry = None

    def __init__(self, coefficient):
        self._coefficient = coefficient

    def __getattr__(self, name):
        return getattr(self._coefficient, name)


#: every mapping of the disk-sweep tests that also commutes with rotations:
#: the catalog's radial maps, the extremal table and a table about 5 + 0j,
#: each with radii on both sides of its seams
EQUIVARIANT = {
    name: case for name, case in FLAGGED.items() if case[0].symmetry == "equivariant"
}
#: linear coefficients, about the origin and off it
LINEAR_FIELDS = {
    "origin": LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j),
    "at-5": LinearCoefficient(-0.7 + 0.2j, 0.4 + 0.1j, 5 + 0j),
}


class TestSymmetryValues:
    def test_equivariant_classes(self):
        # a new mapping class must opt in here, not silently
        assert carrying(Mapping, "symmetry", "equivariant") == {
            "RadialMapping",
            "Power",
            "LogLog",
            "RadialTable",
            "Identity",
            "Spiral",
        }
        for cls in (Linear, ModulatedPower, InteriorFold):
            assert cls.symmetry != "equivariant"

    def test_angular_classes(self):
        assert carrying(CoefficientField, "abs2_symmetry", "angle") == {"LinearCoefficient"}
        for K in LINEAR_FIELDS.values():
            # kappa reads the unit circle for every radius, so the field
            # must be defined, and smooth, at every radius
            assert K.abs2_symmetry == "angle"
            assert K.radial_domain == (0.0, math.inf) and K.radial_breakpoints == ()
            profile = FieldProfile(K)
            assert profile.domain == (0.0, math.inf) and profile.breakpoints == ()

    def test_symmetry_only_about_the_center(self):
        assert Power(2.0).symmetry_about(0j) == Power(2.0).symmetry_about(0.0) == "equivariant"
        assert Power(2.0).symmetry_about(1e-300j) is None
        assert TABLE_AT_5.symmetry_about(5.0) == "equivariant"
        assert TABLE_AT_5.symmetry_about(0j) is None
        assert Linear(0.3, 1.2).symmetry_about(0j) == "radial_jacobian"
        assert Linear(0.3, 1.2).symmetry_about(1j) is None
        assert ModulatedPower().symmetry_about(0j) is None

    @pytest.mark.parametrize(
        "base, attribute, value",
        [
            (base, attribute, value)
            for base, attribute, other in [
                (Mapping, "symmetry", "radius"),
                (CoefficientField, "abs2_symmetry", "equivariant"),
            ]
            # the old booleans, a value of the other base and a misspelling
            for value in (True, False, other, "Equivariant")
        ],
    )
    def test_unknown_value_refused_at_class_creation(self, base, attribute, value):
        with pytest.raises(TypeError, match=f"Typo.{attribute} must be one of .*, got {value!r}"):
            type("Typo", (base,), {attribute: value})

class TestHonesty:
    """Every class has the symmetry its value claims."""

    @given(
        st.sampled_from([(name, r) for name, (_, radii) in EQUIVARIANT.items() for r in radii]),
        st.floats(0.8, 1.0),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_rotation_commutes_with_the_map(self, case, shrink, theta, phi):
        # f(c + e^{i phi} w) - f(c) = e^{i phi} (f(c + w) - f(c)); shrinking a
        # sample radius by up to 20% keeps it on its side of every seam
        name, r = case
        mapping = EQUIVARIANT[name][0]
        c = complex(mapping.center)
        w = shrink * r * complex(math.cos(theta), math.sin(theta))
        turn = complex(math.cos(phi), math.sin(phi))
        f0 = mapping.evaluate(c)
        lhs = mapping.evaluate(c + turn * w) - f0
        rhs = turn * (mapping.evaluate(c + w) - f0)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @given(
        st.sampled_from(sorted(LINEAR_FIELDS)),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(0.1, 1e3),
        st.floats(0.1, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_abs2_does_not_depend_on_the_radius(self, name, theta, r1, r2):
        K = LINEAR_FIELDS[name]
        ray = complex(math.cos(theta), math.sin(theta))
        near, far = K.abs2(K.center + r1 * ray), K.abs2(K.center + r2 * ray)
        assert abs(near - far) <= 1e-12 * max(near, far)


class TestOneNodeOracles:
    """The one-node functionals equal the full-circle ones to 1e-14."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("name", EQUIVARIANT)
    def test_modulus_extremes(self, name, n):
        mapping, radii = EQUIVARIANT[name]
        q, radii = CircleQuadrature(n), np.array(radii)
        m_max, m_min = modulus_extremes(mapping, mapping.center, radii, q)
        full_max, full_min = modulus_extremes(NotEquivariant(mapping), mapping.center, radii, q)
        assert np.array_equal(m_max, m_min)
        np.testing.assert_allclose(m_max, full_max, rtol=1e-14)
        np.testing.assert_allclose(m_min, full_min, rtol=1e-14)
        for r, hi, lo in zip(radii.tolist(), m_max.tolist(), m_min.tolist()):
            assert modulus_extremes(mapping, mapping.center, r, q) == (hi, lo)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("functional", [circle_length, circle_average_D])
    @pytest.mark.parametrize("name", EQUIVARIANT)
    def test_length_and_mean_dilatation(self, name, functional, n):
        mapping, radii = EQUIVARIANT[name]
        q, radii = CircleQuadrature(n), np.array(radii)
        np.testing.assert_allclose(
            functional(mapping, mapping.center, radii, q),
            functional(NotEquivariant(mapping), mapping.center, radii, q),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("name", LINEAR_FIELDS)
    def test_kappa_of_an_angular_field(self, name, n):
        # about 5 + 0j, a circle much smaller than 5 has nodes whose angle
        # rounds at 5e-16 / r, so the full path itself is the less accurate
        K, q = LINEAR_FIELDS[name], CircleQuadrature(n)
        radii = np.array([0.5, 1.0, 7.5, 1e4])
        means = kappa(K, radii, q)
        np.testing.assert_allclose(means, kappa(NoAbs2Symmetry(K), radii, q), rtol=1e-14)
        # every radius gets the unit circle's mean, whatever radii come with it
        assert np.all(means == kappa(K, 1.0, q))

    def test_modulated_power_closed_forms(self):
        # not equivariant: |f| = r^{1/alpha} (1 + eps cos 3 theta) has its
        # maximum at theta = 0 and its minimum at theta = pi/3
        f, r = ModulatedPower(), 9.0
        m_max, m_min = modulus_extremes(f, 0j, r, CircleQuadrature(256))
        assert m_max == pytest.approx(r ** (1.0 / f.alpha) * (1.0 + f.eps), rel=1e-12)
        assert m_min == pytest.approx(r ** (1.0 / f.alpha) * (1.0 - f.eps), rel=1e-12)

    @pytest.mark.parametrize(
        "mapping, z0, radii",
        [
            (Power(2.0), 0.5 + 0j, [0.3, 2.0]),
            (EQUIVARIANT["spiral"][0], 1j, [0.5, 3.0]),
            (TABLE_AT_5, 0j, [0.5, 2.0]),
        ],
        ids=["power", "spiral", "table"],
    )
    def test_off_center_reads_every_node(self, mapping, z0, radii):
        # about any point but the center the symmetry is gone, and every
        # functional is the full path's, bit for bit
        q, radii, view = CircleQuadrature(256), np.array(radii), NotEquivariant(mapping)
        for a, b in zip(modulus_extremes(mapping, z0, radii, q), modulus_extremes(view, z0, radii, q)):
            assert np.array_equal(a, b)
        for functional in (circle_length, circle_average_D):
            assert np.array_equal(functional(mapping, z0, radii, q), functional(view, z0, radii, q))


def counted_points(mapping, K, r0):
    """(mapping points, |K|^2 points) of one theorem1_check over ten rungs
    plus one disk_checks on the pair at n = 256, as a certify op runs them."""
    maps, fields = [], []

    def counting(method, seen):
        def wrapper(self, z, *args):
            seen.append(np.size(z))
            return method(self, z, *args)

        return wrapper

    q = CircleQuadrature(256)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("evaluate", "wirtinger_analytic"):
            patch.setattr(Mapping, name, counting(getattr(Mapping, name), maps))
        patch.setattr(CoefficientField, "abs2", counting(CoefficientField.abs2, fields))
        theorem1_check(mapping, K, K.center, r0, RadiusLadder(r0, 2.0, 10), q)
        disk_checks(mapping, K, r0, _check_radii(mapping, r0, 100.0 * r0), q)
    return sum(maps), sum(fields)


@pytest.mark.parametrize("name", CERTIFY_KINDS)
def test_point_count(name):
    # a lost shortcut shows here as a count, without timing noise
    mapping, K, r0 = DISK_PAIRS[name]
    points, field_points = counted_points(mapping, K, r0)
    full, full_field = counted_points(NotEquivariant(mapping), NoAbs2Symmetry(K), r0)
    if mapping.symmetry == "equivariant":
        assert 0 < points <= full / 10
    else:
        assert points == full
    # every certify coefficient has a symmetry, radial or angular
    assert K.abs2_symmetry and 0 < field_points <= full_field / 10
