"""Dilatation and coefficient fields: the solution identity D = |K|^2,
circle averages, sigma round trips, gridded coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    CircleQuadrature,
    CoefficientField,
    ConstantProfile,
    DegenerateRadius,
    GridCoefficient,
    K_from_sigma,
    KappaProfile,
    LinearCoefficient,
    LogLogCoefficient,
    LogProductProfile,
    LOGLOG_SEAM,
    OutOfDomain,
    PowerCoefficient,
    QuadratureFailure,
    PiecewiseProfile,
    RadialCoefficient,
    SpiralCoefficient,
    TableProfile,
    angular_dilatation,
    build_extremal,
    circle_average_D,
    iterated_log,
    kappa,
    sigma_from_K,
    tower,
)
from conftest import smooth_points

RNG = np.random.default_rng(1702)


class TestCirclePoints:
    def test_one_circle(self):
        q = CircleQuadrature(16)
        z = q.points(1 + 2j, 3.0)
        assert z.shape == (16,)
        np.testing.assert_array_equal(z, (1 + 2j) + 3.0 * np.exp(1j * q.angles()))

    def test_broadcasts_over_radii(self):
        q = CircleQuadrature(16)
        radii = np.array([[0.5], [2.0], [7.0]])
        z = q.points(0.5j, radii)
        assert z.shape == (3, 16)
        for row, r in zip(z, radii[:, 0]):
            np.testing.assert_array_equal(row, q.points(0.5j, r))
        np.testing.assert_allclose(np.abs(z - 0.5j), np.broadcast_to(radii, z.shape), rtol=1e-14)


class TestSolutionIdentity:
    def test_dilatation_equals_coefficient_squared(self, pair):
        # D_f = |K|^2 holds pointwise on solutions of the equation.
        mapping, K = pair
        z = smooth_points(mapping, 200, RNG)
        d = angular_dilatation(mapping, 0j, z)
        np.testing.assert_allclose(d, K.abs2(z), rtol=1e-8, atol=1e-8)

    def test_identity_holds_on_fd_derivatives(self, pair):
        # same identity through the finite-difference derivative path
        mapping, K = pair
        from beltrami_growth import jacobian_polar, wirtinger_to_polar

        for z in smooth_points(mapping, 30, RNG):
            z = complex(z)
            wp = mapping.wirtinger_fd(z, 1e-5)
            pd = wirtinger_to_polar(z, 0j, wp)
            r = abs(z)
            d = abs(pd.d_theta) ** 2 / (r**2 * jacobian_polar(r, pd))
            assert d == pytest.approx(K.abs2(z), rel=1e-5, abs=1e-5)

    def test_dilatation_nonnegative(self, pair):
        mapping, _ = pair
        z = smooth_points(mapping, 100, RNG)
        assert np.all(angular_dilatation(mapping, 0j, z) >= 0.0)


class TestCircleAverages:
    def test_mean_dilatation_equals_kappa(self, pair):
        # d_f(z0, r) = kappa(z0, r) on solutions, at 20 radii
        mapping, K = pair
        for r in _clear_radii(mapping, 20):
            assert circle_average_D(mapping, 0j, r) == pytest.approx(
                kappa(K, r), rel=1e-8, abs=1e-8
            )

    def test_kappa_nonnegative(self, pair):
        _, K = pair
        for r in (0.1, 1.0, 10.0, 40.0):
            assert kappa(K, r) >= 0.0

    def test_quadrature_convergence(self):
        # periodic trapezoid is spectrally accurate on smooth integrands
        K = LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j)
        v256 = kappa(K, 2.0, CircleQuadrature(256))
        v512 = kappa(K, 2.0, CircleQuadrature(512))
        assert abs(v256 - v512) <= 1e-10

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            CircleQuadrature(4)
        with pytest.raises(QuadratureFailure):
            CircleQuadrature(8).mean(np.array([1.0, math.nan] + [0.0] * 6))


def _clear_radii(mapping, n):
    """Radii away from the map's seams, spanning two decades."""
    lo, hi = 0.2, 60.0
    if mapping.seam_radii:
        lo = max(lo, 1.001 * max(mapping.seam_radii))
    return np.geomspace(lo, hi, n)


class TestKappaOverRadii:
    @pytest.mark.parametrize(
        "K",
        [LogLogCoefficient(1.5), LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j), PowerCoefficient(2.0)],
        ids=["loglog", "linear", "power"],
    )
    def test_array_equals_one_radius_at_a_time(self, K):
        radii = np.geomspace(0.3, 1e4, 17)
        q = CircleQuadrature(128)
        means = kappa(K, radii, q)
        assert means.shape == radii.shape
        assert means.tolist() == [kappa(K, float(r), q) for r in radii]

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            kappa(PowerCoefficient(2.0), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            kappa(PowerCoefficient(2.0), np.ones((2, 2)))


# the extremal coefficient of a log-product profile from r0 = 3 to R = 1e3:
# kappa is 1 on (0, 3) and 1.5 ln r above
EXTREMAL = build_extremal(LogProductProfile(1.5, 1), 3.0, 1.0, 1e3)
TABLE = TableProfile(np.geomspace(0.1, 1e3, 30), 1.0 + np.sqrt(np.geomspace(0.1, 1e3, 30)))

#: every class whose abs2_symmetry is "radius", with a builder taking the center and
#: radii on both sides of each jump, clear of the jumps themselves
RADIAL_FIELDS = {
    "power": (lambda c: PowerCoefficient(2.3, c), [0.2, 1.0, 7.5, 1e3]),
    "loglog": (lambda c: LogLogCoefficient(1.7, c), [0.4, 1.3, 2.5, 40.0, 1e4]),
    "extremal": (
        lambda c: RadialCoefficient(EXTREMAL.kappa_of_r(), c, (0.0, float(EXTREMAL.knots[-1]))),
        [0.5, 2.0, 5.0, 50.0, 900.0],
    ),
    "table": (lambda c: RadialCoefficient(TABLE, c), [0.15, 1.0, 30.0, 900.0]),
    "spiral": (SpiralCoefficient, [0.2, 1.0, 7.5, 1e3]),
}


def full_circle_kappa(K, radii, q):
    """The mean of |K|^2 over all n nodes of each circle."""
    return q.mean(K.abs2(q.points(K.center, radii[:, None])))


class TestRadialShortcut:
    """A field whose |K|^2 is radial takes kappa from one node per circle."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("center", [0j, 5 + 0j], ids=["origin", "off-center"])
    @pytest.mark.parametrize("name", RADIAL_FIELDS)
    def test_equals_full_circle_mean(self, name, center, n):
        build, radii = RADIAL_FIELDS[name]
        K, radii, q = build(center), np.array(radii), CircleQuadrature(n)
        assert K.abs2_symmetry == "radius"
        np.testing.assert_allclose(kappa(K, radii, q), full_circle_kappa(K, radii, q), rtol=1e-14)

    def test_extremal_coefficient_is_flagged(self):
        K = EXTREMAL.coefficient()
        radii = np.array([0.5, 5.0, 900.0])
        assert K.abs2_symmetry == "radius"
        np.testing.assert_allclose(
            kappa(K, radii), full_circle_kappa(K, radii, CircleQuadrature()), rtol=1e-14
        )

    @given(
        st.sampled_from([(name, r) for name, (_, radii) in RADIAL_FIELDS.items() for r in radii]),
        st.floats(0.8, 1.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
        st.sampled_from([64, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_abs2_constant_on_circles(self, case, shrink, x, y, n):
        # the symmetry is honest: |K|^2 is the same at every node of a circle;
        # shrinking a sample radius by up to 20% stays clear of every jump
        name, r = case
        K = RADIAL_FIELDS[name][0](complex(x, y))
        samples = K.abs2(CircleQuadrature(n).points(K.center, shrink * r))
        assert np.ptp(samples) <= 1e-14 * np.max(samples)

    def test_flagged_classes(self):
        # a new coefficient class must opt in here, not silently
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        flagged = {
            cls.__name__: cls.abs2_symmetry
            for cls in subclasses(CoefficientField)
            if cls.__module__.startswith("beltrami_growth") and cls.abs2_symmetry
        }
        assert flagged == {
            "RadialCoefficient": "radius",
            "PowerCoefficient": "radius",
            "LogLogCoefficient": "radius",
            "SpiralCoefficient": "radius",
            "LinearCoefficient": "angle",
        }
        assert GridCoefficient.abs2_symmetry is None

    def test_theta_dependent_grid_keeps_circle_mean(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        radii = np.geomspace(0.5, 5.0, 4)
        K = GridCoefficient(radii, thetas, 2.0 + np.cos(thetas) + 0.1 * radii[:, None])
        r, q = np.array([0.7, 1.5, 4.0]), CircleQuadrature(256)
        means = kappa(K, r, q)
        assert np.array_equal(means, full_circle_kappa(K, r, q))
        # the theta = 0 node alone would read the table's peak, 3 + 0.1 r
        assert np.all(K.abs2(K.center + r) - means > 0.9)


class NanProfile(KappaProfile):
    def __call__(self, r):
        return np.full(np.shape(r), math.nan)


class TestRadialShortcutGuards:
    """The shortcut still goes through K.abs2 and q.mean, and keeps their guards."""

    def test_extremal_past_its_last_knot(self):
        K = EXTREMAL.coefficient()
        top = float(EXTREMAL.knots[-1])
        with pytest.raises(OutOfDomain, match="radius 1500"):
            kappa(K, 1.5 * top)
        with pytest.raises(OutOfDomain):
            kappa(K, np.array([1.0, 1.5 * top]))

    def test_non_finite_profile(self):
        with pytest.raises(QuadratureFailure, match="non-finite"):
            kappa(RadialCoefficient(NanProfile()), 2.0)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            kappa(RadialCoefficient(NanProfile(), 1j), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("name", RADIAL_FIELDS)
    def test_bad_radii(self, name):
        K = RADIAL_FIELDS[name][0](0j)
        for r in (0.0, -1.0, np.array([1.0, -2.0]), np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="radius must be positive"):
                kappa(K, r)
        with pytest.raises(ValueError, match=r"scalar or a 1-d array, got shape \(2, 2\)"):
            kappa(K, np.ones((2, 2)))

    @pytest.mark.parametrize(
        "K",
        [PowerCoefficient(2.0), SpiralCoefficient(1j), LinearCoefficient(0.3, 1.2)],
        ids=["power", "spiral", "linear"],
    )
    def test_empty_radii(self, K):
        out = kappa(K, np.array([]))
        assert out.shape == (0,)


class TestClosedFormKappa:
    def test_power(self):
        for alpha in (0.5, 1.0, 2.0):
            for r in (0.25, 1.0, 7.0):
                assert kappa(PowerCoefficient(alpha), r) == pytest.approx(
                    alpha, abs=1e-12
                )

    def test_linear(self):
        # |K|^2 averages to (|A|^2 + |B|^2) / ||B|^2 - |A|^2| on circles
        a, b = 0.3 + 0.1j, 1.2 - 0.4j
        expected = (abs(a) ** 2 + abs(b) ** 2) / abs(abs(b) ** 2 - abs(a) ** 2)
        for r in (0.5, 3.0):
            assert kappa(LinearCoefficient(a, b), r) == pytest.approx(
                expected, rel=1e-12
            )

    def test_loglog(self):
        for alpha in (1.0, 2.0):
            K = LogLogCoefficient(alpha)
            assert kappa(K, 0.5 * LOGLOG_SEAM) == pytest.approx(1.0, abs=1e-12)
            for r in (LOGLOG_SEAM * (1 + 1e-12), 30.0, 100.0, 1e4):
                expected = alpha * math.log(r) * math.log(math.log(r))
                assert kappa(K, r) == pytest.approx(expected, rel=1e-10)


class TestSigmaForm:
    def test_round_trip(self, pair):
        _, K = pair
        z = smooth_points_for_field(K, 50)
        back = K_from_sigma(sigma_from_K(K, z), z, K.center)
        assert np.all(np.abs(back - K(z)) <= 1e-12 * np.maximum(1.0, np.abs(back)))
        # scalar in, scalar out
        zi = complex(z[0])
        back = K_from_sigma(sigma_from_K(K, zi), zi, K.center)
        assert isinstance(back, complex)
        assert abs(back - K(zi)) <= 1e-12 * max(1.0, abs(back))

    def test_round_trip_off_center(self):
        K = LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j, center=2.0 - 1.0j)
        z = K.center + np.array([0.5, 2j, -3.0 + 1j])
        back = K_from_sigma(sigma_from_K(K, z), z, K.center)
        assert np.all(np.abs(back - K(z)) <= 1e-12 * np.maximum(1.0, np.abs(back)))

    def test_sigma_value(self):
        # for the constant-dilatation field, sigma = -i sqrt(alpha) w^2/|w|... no:
        # sigma = -i K conj(w) = i sqrt(alpha) w, checked directly
        K = PowerCoefficient(4.0)
        z = 2.0 + 1.0j
        assert sigma_from_K(K, z) == pytest.approx(2j * z, rel=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda K, z: K(z),
            lambda K, z: K.abs2(z),
            lambda K, z: sigma_from_K(K, z),
            lambda K, z: K_from_sigma(1j, z, K.center),
        ],
        ids=["K", "abs2", "sigma_from_K", "K_from_sigma"],
    )
    def test_center_rejected(self, call):
        # one guard: it names the smallest |z - center| and the floor
        K = LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j, center=2.0 - 1.0j)
        message = r"\|z - center\| = \S+ below the floor 1e-14"
        for z in (K.center, K.center + np.array([1.0, 5e-15j])):
            with pytest.raises(DegenerateRadius, match=message):
                call(K, z)


def smooth_points_for_field(K, n):
    lo = 0.1
    if K.radial_breakpoints:
        lo = 1.01 * max(K.radial_breakpoints)
    r = np.exp(RNG.uniform(np.log(lo), np.log(lo * 50.0), n))
    theta = RNG.uniform(0.0, 2.0 * np.pi, n)
    return K.center + r * np.exp(1j * theta)


class TestRadialCoefficient:
    def test_abs2_is_exact_profile(self):
        K = RadialCoefficient(ConstantProfile(3.0))
        z = 2.0 * np.exp(1j * np.linspace(0.0, 6.0, 9))
        np.testing.assert_allclose(K.abs2(z), 3.0)
        np.testing.assert_allclose(np.abs(K(z)) ** 2, 3.0)

    def test_phase_convention(self):
        K = RadialCoefficient(ConstantProfile(1.0))
        z = 1.5 * np.exp(0.8j)
        assert K(complex(z)) == pytest.approx(-z / np.conj(z), rel=1e-12)

    def test_domain_enforced(self):
        K = RadialCoefficient(ConstantProfile(1.0), radial_domain=(1.0, 2.0))
        with pytest.raises(OutOfDomain):
            K(3.0 + 0j)

    def test_domain_error_names_radius_and_domain(self):
        K = RadialCoefficient(ConstantProfile(1.0), 2.0j, radial_domain=(1.0, 2.0))
        with pytest.raises(OutOfDomain, match=r"radius 0\.5 outside .*\[1\.0, 2\.0\]"):
            K.abs2(np.array([1.5, 0.5, 0.7]) + 2.0j)

    def test_breakpoints_and_domain_from_profile(self):
        profile = PiecewiseProfile((3.0,), (ConstantProfile(1.0), ConstantProfile(2.0)))
        K = RadialCoefficient(profile, 1.0 + 1.0j)
        assert K.radial_breakpoints == (3.0,)
        assert K.radial_domain == profile.domain
        assert K.abs2(1.0 + 5.0j) == 2.0


class TestPhaseConvention:
    """The radial-phase fields define only |K|^2 and share K = -|K| w/conj(w)."""

    @pytest.mark.parametrize(
        "K",
        [
            PowerCoefficient(2.0, 1.0 - 1.0j),
            LogLogCoefficient(1.5, 0.5j),
            RadialCoefficient(ConstantProfile(3.0), 2.0),
        ],
        ids=["power", "loglog", "radial"],
    )
    def test_value_is_radial_phase_of_abs2(self, K):
        w = np.array([0.7, 30.0]) * np.exp(1j * np.array([0.4, 2.9]))
        z = K.center + w
        np.testing.assert_allclose(K(z), -np.sqrt(K.abs2(z)) * w / np.conj(w), rtol=1e-14)

    @pytest.mark.parametrize("alpha", [0.7, 2.0, 3.0])
    def test_power_abs2_is_exactly_alpha(self, alpha):
        K = PowerCoefficient(alpha, 5.0)
        q = CircleQuadrature(64)
        z = q.points(K.center, np.array([[0.1], [1.0], [1e6]]))
        assert np.all(K.abs2(z) == alpha)
        # kappa reads one node per circle, whose |K|^2 is alpha exactly
        assert kappa(K, np.array([0.1, 1.0, 1e6]), q).tolist() == [alpha] * 3

    @pytest.mark.parametrize("field", [PowerCoefficient, LogLogCoefficient])
    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, field, alpha):
        with pytest.raises(ValueError, match="alpha"):
            field(alpha)


class TestCatalogRadialCoefficients:
    """The power and loglog coefficients are radial coefficients over the
    catalog profiles, and equal their closed forms bit for bit."""

    # a purely imaginary center: z = center + x with x real gives w = x and
    # r = |x| exactly, so the seam e^e and its neighbours are hit as written
    CENTER = -1.25j
    ALPHA = 1.7

    def points(self):
        rng = np.random.default_rng(20)
        seam = np.array(
            [
                LOGLOG_SEAM * (1 - 1e-16),
                np.nextafter(LOGLOG_SEAM, 0.0),
                LOGLOG_SEAM,
                np.nextafter(LOGLOG_SEAM, np.inf),
                LOGLOG_SEAM * (1 + 1e-16),
            ]
        )
        r = np.exp(rng.uniform(np.log(0.01), np.log(1e6), 20000))
        w = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size))
        return np.concatenate([self.CENTER + seam, self.CENTER - seam, self.CENTER + w])

    def check(self, K, closed_form):
        z = self.points()
        w = z - self.CENTER
        expected = closed_form(np.abs(w))
        assert np.array_equal(K.abs2(z), expected)
        assert np.array_equal(K(z), -np.sqrt(expected) * w / np.conj(w))

    def test_power(self):
        K = PowerCoefficient(self.ALPHA, self.CENTER)
        assert isinstance(K, RadialCoefficient)
        assert K.radial_breakpoints == ()
        self.check(K, lambda r: np.full(r.shape, self.ALPHA))

    def test_loglog(self):
        K = LogLogCoefficient(self.ALPHA, self.CENTER)
        assert isinstance(K, RadialCoefficient)
        assert K.radial_breakpoints == (math.exp(math.e),)

        def closed_form(r):
            with np.errstate(invalid="ignore", divide="ignore"):
                outer = self.ALPHA * np.log(r) * np.log(np.log(r))
            return np.where(r >= math.exp(math.e), outer, 1.0)

        self.check(K, closed_form)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_log_product_is_the_product_of_iterated_logs(self, depth):
        r = tower(depth) * np.exp(RNG.uniform(0.0, 30.0, 2000))
        expected = 1.9 * np.ones(r.shape)
        for k in range(1, depth + 1):
            expected = expected * iterated_log(k, r)
        assert np.array_equal(LogProductProfile(1.9, depth)(r), expected)


class TestGridCoefficient:
    def _tabulated_power(self, alpha=2.0):
        radii = np.geomspace(0.1, 10.0, 24)
        thetas = 2.0 * np.pi * np.arange(32) / 32
        k2 = np.full((24, 32), alpha)
        return GridCoefficient(radii, thetas, k2)

    def test_matches_constant_table(self):
        K = self._tabulated_power(2.0)
        z = 1.7 * np.exp(1j * np.linspace(0.1, 6.0, 11))
        np.testing.assert_allclose(K.abs2(z), 2.0, rtol=1e-12)
        assert kappa(K, 1.7) == pytest.approx(2.0, rel=1e-12)

    def test_out_of_range_rejected(self):
        K = self._tabulated_power()
        with pytest.raises(OutOfDomain):
            K(100.0 + 0j)
        with pytest.raises(OutOfDomain):
            K.abs2(10.0 * (1.0 + 1e-9) + 0j)
        assert K.abs2(10.0 * (1.0 + 1e-14) + 0j) == 2.0  # rounding slop at the edge

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "grid.csv"
        radii = [1.0, 2.0]
        thetas = [0.0, np.pi]
        lines = ["r,theta,k2"]
        for r in radii:
            for t in thetas:
                lines.append(f"{r},{t},{r + t}")
        path.write_text("\n".join(lines) + "\n")
        K = GridCoefficient.from_csv(path)
        assert K.abs2(complex(1.0, 0.0)) == pytest.approx(1.0)
        assert K.abs2(-2.0 + 0j) == pytest.approx(2.0 + np.pi)

    def test_csv_strict(self, tmp_path):
        bad_header = tmp_path / "a.csv"
        bad_header.write_text("radius,theta,k2\n1,0,1\n")
        with pytest.raises(ValueError):
            GridCoefficient.from_csv(bad_header)
        incomplete = tmp_path / "b.csv"
        incomplete.write_text("r,theta,k2\n1,0,1\n1,3,1\n2,0,1\n")
        with pytest.raises(ValueError):
            GridCoefficient.from_csv(incomplete)

    @pytest.mark.parametrize(
        "text",
        [
            "r,theta,k2\n",
            "r,theta,k2\n1,0,1\n1,3,nan\n2,0,1\n2,3,1\n",
            "r,theta,k2\n1,0,1\n1,3,inf\n2,0,1\n2,3,1\n",
        ],
        ids=["header-only", "nan", "inf"],
    )
    def test_csv_rejects_empty_and_non_finite(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            GridCoefficient.from_csv(path)

    @pytest.mark.parametrize("m", [3, 8])
    def test_cell_centred_angles(self, m):
        # |K|^2 = g_j (a + b ln r) on angles (j + 1/2) 2 pi / m: the circle
        # mean of the periodic bilinear table is mean(g) (a + b ln r), exactly
        # when n is a multiple of m
        a, b = 1.5, 0.25
        radii = np.geomspace(0.5, 40.0, 7)
        thetas = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        g = np.linspace(0.5, 2.0, m) ** 2
        K = GridCoefficient(radii, thetas, np.outer(a + b * np.log(radii), g))
        r = np.array([0.5, 0.9, 2.0, 17.0, 40.0])
        np.testing.assert_allclose(
            kappa(K, r, CircleQuadrature(64 * m)), g.mean() * (a + b * np.log(r)), rtol=1e-13
        )

    def test_first_angle_above_zero(self):
        # the table covers [0.5, 0.5 + 2 pi]: an angle below 0.5 is read on
        # the closing cell between thetas[-1] = 4 and 0.5 + 2 pi
        thetas = np.array([0.5, 2.0, 4.0])
        g = np.array([1.0, 3.0, 2.0])
        K = GridCoefficient([1.0, 4.0], thetas, np.outer([1.0, 1.0], g))
        assert kappa(K, 2.0) == pytest.approx(
            np.sum((g + np.roll(g, -1)) / 2.0 * np.diff([*thetas, thetas[0] + 2.0 * np.pi]))
            / (2.0 * np.pi),
            rel=1e-5,
        )
        s = (0.1 + 2.0 * np.pi - 4.0) / (0.5 + 2.0 * np.pi - 4.0)
        assert K.abs2(2.0 * np.exp(0.1j)) == pytest.approx((1 - s) * g[2] + s * g[0], rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_table_values_must_be_finite_and_nonnegative(self, bad):
        k2 = np.ones((2, 8))
        k2[1, 3] = bad
        with pytest.raises(ValueError):
            GridCoefficient([1.0, 2.0], 2.0 * np.pi * np.arange(8) / 8, k2)
