"""Circle functionals of symmetric pairs from one sample, found by probes.

CircleQuadrature.circle_means samples every circle at theta = 0 and at the
PROBE_ANGLES.  About the center of a map that commutes with rotations,
|f - f(center)|, |f_theta|, J and the dilatation agree at every probe, so
modulus_extremes, circle_length, circle_average_D and the disk sweep read
the theta = 0 node alone.  A coefficient whose |K|^2 depends on the angle
alone agrees with the unit circle's probes, and kappa takes one unit-circle
mean for every radius.  The maps are held honest by property tests, the
shortcuts by the full-circle oracle FullCircles and by point counts, and
the probes by a property test over modulated maps that they must tell from
radial ones.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    CircleQuadrature,
    CoefficientField,
    LinearCoefficient,
    Mapping,
    Power,
    RadiusLadder,
    angular_dilatation,
    circle_average_D,
    circle_length,
    disk_checks,
    image_area,
    jacobian_wirtinger,
    kappa,
    modulus_extremes,
    theorem1_check,
    wirtinger_to_polar,
)
from beltrami_growth.dilatation import SYMMETRY_REL_TOL
from beltrami_growth.verify import check_radii

from test_area_sweep import (
    CERTIFY_KINDS,
    DISK_PAIRS,
    RADIAL_J,
    TABLE_AT_5,
    FullCircles,
    ModulatedPower,
)

#: every mapping of the disk-sweep tests that also commutes with rotations:
#: the catalog's radial maps, the extremal table and a table about 5 + 0j,
#: each with radii on both sides of its seams
EQUIVARIANT = {name: case for name, case in RADIAL_J.items() if name != "linear"}
#: linear coefficients, about the origin and off it
LINEAR_FIELDS = {
    "origin": LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j),
    "at-5": LinearCoefficient(-0.7 + 0.2j, 0.4 + 0.1j, 5 + 0j),
}


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
        full_max, full_min = modulus_extremes(mapping, mapping.center, radii, FullCircles(n))
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
            functional(mapping, mapping.center, radii, FullCircles(n)),
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
        np.testing.assert_allclose(means, kappa(K, radii, FullCircles(n)), rtol=1e-14)
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
        # about any point but the center the probes disagree, and every
        # functional is the full path's, bit for bit
        q, radii, full = CircleQuadrature(256), np.array(radii), FullCircles(256)
        for a, b in zip(*(modulus_extremes(mapping, z0, radii, quad) for quad in (q, full))):
            assert np.array_equal(a, b)
        for functional in (circle_length, circle_average_D):
            a, b = (functional(mapping, z0, radii, quad) for quad in (q, full))
            assert np.array_equal(a, b)


def counted_points(mapping, K, r0, q):
    """(mapping points, |K|^2 points) of one theorem1_check over ten rungs
    plus one disk_checks on the pair with the quadrature q, as a certify op
    runs them."""
    maps, fields = [], []

    def counting(method, seen):
        def wrapper(self, z, *args):
            seen.append(np.size(z))
            return method(self, z, *args)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("evaluate", "wirtinger_analytic"):
            patch.setattr(Mapping, name, counting(getattr(Mapping, name), maps))
        patch.setattr(CoefficientField, "abs2", counting(CoefficientField.abs2, fields))
        theorem1_check(mapping, K, K.center, r0, RadiusLadder(r0, 2.0, 10), q)
        disk_checks(mapping, K, r0, check_radii(mapping, r0, 100.0 * r0), q)
    return sum(maps), sum(fields)


@pytest.mark.parametrize("name", CERTIFY_KINDS)
def test_point_count(name):
    # a lost shortcut shows here as a count, without timing noise: every
    # certify pair reads its circles by the radius or the angle rule
    mapping, K, r0 = DISK_PAIRS[name]
    points, field_points = counted_points(mapping, K, r0, CircleQuadrature(256))
    full, full_field = counted_points(mapping, K, r0, FullCircles(256))
    assert 0 < points <= full / 10
    assert 0 < field_points <= full_field / 10


@dataclass(frozen=True)
class PowerModulated(Power):
    """A Power subclass that evaluates like ModulatedPower(2, 0.3, 3): it
    inherits a radial map's class, but it is not radial."""

    alpha: float = 2.0
    eps: float = 0.3
    k: int = 3
    _modulus = ModulatedPower._modulus
    _eval_array = ModulatedPower._eval_array
    _wirtinger_array = ModulatedPower._wirtinger_array


class TestDetection:
    """The probes, not the class, decide how a circle is read."""

    def test_subclass_of_a_radial_map_reads_its_own_values(self):
        # the closed forms: M = 1 + eps, m = 1 - eps, mean D = alpha (1 +
        # k^2 (1/sqrt(1 - eps^2) - 1)) and S = pi (1 + eps^2 / 2) at r = 1
        f, closed = PowerModulated(), ModulatedPower()
        assert closed.alpha * closed.rate_ratio() == pytest.approx(2.869127060994529, rel=1e-15)
        assert closed.area(1.0) == pytest.approx(3.2829643230013335, rel=1e-15)
        m_max, m_min = modulus_extremes(f, 0j, 1.0)
        assert m_max == pytest.approx(1.3, rel=1e-12)
        assert m_min == pytest.approx(0.7, rel=1e-12)
        assert circle_average_D(f, 0j, 1.0) == pytest.approx(2.869127060994529, rel=1e-12)
        assert image_area(f, 0j, 1.0) == pytest.approx(3.2829643230013335, rel=1e-12)

    @given(
        st.floats(0.5, 4.0),
        st.floats(-15.0, math.log10(0.5)),
        st.sampled_from([64, 256, 1024]),
        st.integers(1, 512),
        st.floats(0.5, 50.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_node_only_where_it_is_the_mean(self, alpha, log_eps, n, k, r):
        # on ModulatedPower(alpha, eps, k), k <= n/2, every circle mean the
        # functionals take is within SYMMETRY_REL_TOL of the full-circle
        # mean, on whichever path the probes send it
        k = 1 + (k - 1) % (n // 2)
        f, q = ModulatedPower(alpha, 10.0**log_eps, k), CircleQuadrature(n)
        samples = {
            "jacobian": lambda z: jacobian_wirtinger(f.wirtinger_analytic(z)),
            "speed": lambda z: np.abs(wirtinger_to_polar(z, 0j, f.wirtinger_analytic(z)).d_theta),
            "dilatation": lambda z: angular_dilatation(f, 0j, z),
        }
        for name, sample in samples.items():
            _, probed, radial = q.probe(sample, 0j, np.array([r]))
            mean = q.circle_means(sample, 0j, r)
            full = FullCircles(n).circle_means(sample, 0j, r)
            if radial[0]:
                assert mean == probed[0, 0]
            assert abs(mean - full) <= SYMMETRY_REL_TOL * abs(full), name
