"""Coordinate/derivative conversions: round trips, Jacobian identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    BeltramiGrowthError,
    BeyondDoubleRange,
    DegenerateRadius,
    PolarDerivPair,
    QuadratureFailure,
    WirtingerPair,
    jacobian_polar,
    jacobian_wirtinger,
    polar_to_wirtinger,
    wirtinger_to_polar,
)
from beltrami_growth.complex_polar import normalize_angle, require_finite

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
unit_scale = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
radius = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
angle = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def cplx(re_strategy=unit_scale):
    return st.builds(complex, re_strategy, re_strategy)


class TestNormalizeAngle:
    @given(angle)
    def test_angle_normalized(self, theta):
        assert 0.0 <= normalize_angle(theta) < 2.0 * math.pi
        assert cmath.exp(1j * normalize_angle(theta)) == pytest.approx(
            cmath.exp(1j * theta), abs=1e-12
        )


class TestConversionRoundTrip:
    @given(cplx(), radius, angle, cplx(), cplx())
    @settings(max_examples=200)
    def test_two_sided_inverse(self, z0, r, theta, dz, dzb):
        z = z0 + r * cmath.exp(1j * theta)
        wp = WirtingerPair(dz, dzb)
        pd = wirtinger_to_polar(z, z0, wp)
        back = polar_to_wirtinger(z, z0, pd)
        scale = max(1.0, abs(dz), abs(dzb)) * max(1.0, abs(z0) / r)
        assert abs(back.d_z - dz) <= 1e-12 * scale
        assert abs(back.d_zbar - dzb) <= 1e-12 * scale
        fwd = wirtinger_to_polar(z, z0, polar_to_wirtinger(z, z0, pd))
        assert abs(fwd.d_r - pd.d_r) <= 1e-12 * scale
        assert abs(fwd.d_theta - pd.d_theta) <= 1e-12 * scale * r

    def test_known_values_identity_map(self):
        # f(z) = z about z0 = 0: f_z = 1, f_zbar = 0, so r f_r = z and
        # f_theta = i z.
        z = 2.0 * cmath.exp(0.7j)
        pd = wirtinger_to_polar(z, 0j, WirtingerPair(1.0 + 0j, 0j))
        assert pd.d_r == pytest.approx(z / abs(z), rel=1e-14)
        assert pd.d_theta == pytest.approx(1j * z, rel=1e-14)


class TestJacobian:
    @given(cplx(), radius, angle, cplx(), cplx())
    @settings(max_examples=200)
    def test_polar_equals_wirtinger(self, z0, r, theta, dz, dzb):
        z = z0 + r * cmath.exp(1j * theta)
        wp = WirtingerPair(dz, dzb)
        jw = jacobian_wirtinger(wp)
        jp = jacobian_polar(r, wirtinger_to_polar(z, z0, wp))
        # forming z - z0 in floating point loses relative accuracy in the
        # offset when r << |z0|; widen the tolerance by that conditioning
        scale = max(1.0, abs(dz) ** 2 + abs(dzb) ** 2) * max(1.0, abs(z0) / r)
        assert abs(jw - jp) <= 1e-12 * scale

    @given(radius, angle, angle, cplx(), cplx())
    @settings(max_examples=200)
    def test_rotation_invariance(self, r, theta, phi, dr, dtheta):
        # Rotating the source frame multiplies both polar derivatives by
        # the same unimodular factor, so the Jacobian is unchanged.
        pd = PolarDerivPair(dr, dtheta)
        rot = cmath.exp(1j * phi)
        pd_rot = PolarDerivPair(dr * rot, dtheta * rot)
        scale = max(1.0, (abs(dr) ** 2 + abs(dtheta) ** 2) / r)
        assert abs(jacobian_polar(r, pd) - jacobian_polar(r, pd_rot)) <= 1e-12 * scale

    def test_known_value(self):
        # |f_z|^2 - |f_zbar|^2 with f_z = 2, f_zbar = 1 is 3.
        assert jacobian_wirtinger(WirtingerPair(2.0 + 0j, 1.0 + 0j)) == 3.0

    def test_array_broadcast(self):
        dz = np.array([1.0 + 0j, 2.0 + 0j])
        dzb = np.array([0j, 1.0 + 0j])
        out = jacobian_wirtinger(WirtingerPair(dz, dzb))
        np.testing.assert_allclose(out, [1.0, 3.0])

    def test_radius_lost_against_a_huge_center(self):
        # 1e16 + 1 rounds to 1e16, so the offset vanishes; the message says so
        # about a center whose spacing exceeds the floor, and only there
        with pytest.raises(DegenerateRadius) as info:
            wirtinger_to_polar(1e16 + 1.0, 1e16, WirtingerPair(1 + 0j, 0j))
        assert str(info.value) == (
            "|z - center| = 0.0 below the floor 1e-14: radii below 2.0 are lost to "
            "rounding against the center (1e+16+0j)"
        )
        with pytest.raises(DegenerateRadius) as info:
            wirtinger_to_polar(2.0 - 1j, 2.0 - 1j, WirtingerPair(1 + 0j, 0j))
        assert str(info.value) == "|z - center| = 0.0 below the floor 1e-14"

    def test_degenerate_radius_rejected(self):
        with pytest.raises(DegenerateRadius):
            wirtinger_to_polar(1 + 0j, 1 + 0j, WirtingerPair(1 + 0j, 0j))
        with pytest.raises(DegenerateRadius):
            jacobian_polar(0.0, PolarDerivPair(1 + 0j, 1j))


def never(i):
    pytest.fail(f"where({i}) called though every sample is finite")


class TestRequireFinite:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([1.0, -2.5, 1e308]),
            np.array([1 + 2j, 3j], dtype=np.complex64),
            np.array(4.0),
            np.ones((2, 3)),
            complex(1.0, -1e-320),
        ],
        ids=["real", "complex", "0-d", "2-d", "python-complex"],
    )
    def test_finite_input_is_returned_itself(self, values):
        assert require_finite(values, "x", never) is values

    def test_names_the_first_bad_sample_in_flat_order(self):
        values = np.array([[1.0, 2.0, math.inf], [math.nan, 5.0, -math.inf]])
        seen = []

        def where(i):
            seen.append(i)
            return f"cell {i}"

        with pytest.raises(BeyondDoubleRange) as info:
            require_finite(values, "g", where)
        assert str(info.value) == "g = inf at cell 2 is beyond double precision (3 of 6 samples)"
        assert seen == [2]

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.array(math.nan), "d = nan is beyond double precision (1 of 1 samples)"),
            (complex(math.inf, 0.0), "d = (inf+0j) is beyond double precision (1 of 1 samples)"),
            (
                np.array([1j, complex(math.inf, math.nan), complex(0.0, -math.inf)]),
                "d = (inf+nanj) is beyond double precision (2 of 3 samples)",
            ),
        ],
        ids=["0-d", "python-complex", "complex"],
    )
    def test_no_where_leaves_the_location_out(self, values, message):
        with pytest.raises(BeyondDoubleRange) as info:
            require_finite(values, "d")
        assert str(info.value) == message

    def test_error_is_a_quadrature_failure(self):
        with pytest.raises(BeyondDoubleRange) as info:
            require_finite(np.array([1.0, math.inf]), "x")
        assert isinstance(info.value, QuadratureFailure)
        assert isinstance(info.value, BeltramiGrowthError)
