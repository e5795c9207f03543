"""Catalog mappings: closed-form values, derivative oracles, seam handling."""

import cmath
import math

import numpy as np
import pytest
import sympy as sp

from beltrami_growth import (
    Identity,
    Linear,
    LogLog,
    LOGLOG_SEAM,
    NotDifferentiableHere,
    OutOfDomain,
    Power,
    RadialTable,
    Spiral,
    StencilCrossesSeam,
    jacobian_wirtinger,
)
from beltrami_growth.verify import check_radii
from conftest import fd_wirtinger_oracle, smooth_points

RNG = np.random.default_rng(20260823)

ALL_MAPS = [
    Identity(),
    Linear(0.3 + 0.1j, 1.2 - 0.4j, 0.5j),
    Spiral(),
    Power(0.5),
    Power(2.0),
    LogLog(1.0),
    LogLog(2.0),
]
ALL_IDS = ["identity", "linear", "spiral", "power-0.5", "power-2", "loglog-1", "loglog-2"]


def sympy_power_oracle(alpha, z):
    """Symbolic Wirtinger derivatives of |z|^{1/alpha - 1} z."""
    x, y = sp.symbols("x y", real=True)
    r = sp.sqrt(x**2 + y**2)
    f = r ** (sp.Rational(1) / alpha - 1) * (x + sp.I * y)
    fx = sp.diff(f, x)
    fy = sp.diff(f, y)
    subs = {x: z.real, y: z.imag}
    fxv = complex(fx.subs(subs).evalf())
    fyv = complex(fy.subs(subs).evalf())
    return 0.5 * (fxv - 1j * fyv), 0.5 * (fxv + 1j * fyv)


class TestEvaluate:
    def test_identity(self):
        assert Identity().evaluate(2 - 3j) == 2 - 3j

    def test_linear(self):
        m = Linear(0.25 + 0j, 1 + 0j, 2j)
        z = 1.0 + 2.0j
        assert m.evaluate(z) == pytest.approx(0.25 * z.conjugate() + z + 2j)

    def test_linear_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Linear(1 + 0j, 1j, 0j)

    def test_spiral(self):
        z = 3.0 * cmath.exp(0.4j)
        expected = z * cmath.exp(2j * math.log(3.0))
        assert m_approx(Spiral().evaluate(z), expected)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_power_modulus(self, alpha):
        z = 4.0 * cmath.exp(1.1j)
        f = Power(alpha).evaluate(z)
        assert abs(f) == pytest.approx(4.0 ** (1.0 / alpha), rel=1e-12)
        # the argument is preserved: f / |f| = z / |z|
        assert m_approx(f / abs(f), z / abs(z))

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_loglog_outer_modulus(self, alpha):
        r = 50.0
        f = LogLog(alpha).evaluate(r * cmath.exp(0.3j))
        assert abs(f) == pytest.approx(
            math.log(math.log(r)) ** (1.0 / alpha), rel=1e-12
        )

    def test_loglog_inner_is_scaled_identity(self):
        z = 2.0 + 1.0j  # |z| < e^e
        f = LogLog(2.0).evaluate(z)
        assert m_approx(f, math.exp(-math.e) * z)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_loglog_continuous_across_seam(self, alpha):
        m = LogLog(alpha)
        for theta in (0.0, 1.0, 4.0):
            below = m.evaluate((LOGLOG_SEAM * (1 - 1e-12)) * cmath.exp(1j * theta))
            above = m.evaluate((LOGLOG_SEAM * (1 + 1e-12)) * cmath.exp(1j * theta))
            assert abs(below - above) <= 1e-10

    def test_evaluate_array_matches_scalar(self):
        m = Spiral()
        z = np.array([1 + 1j, 2 - 0.5j, -3 + 0.25j])
        out = m.evaluate(z)
        for zi, oi in zip(z, out):
            assert m_approx(oi, m.evaluate(complex(zi)))


def m_approx(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestDerivatives:
    @pytest.mark.parametrize("mapping", ALL_MAPS, ids=ALL_IDS)
    def test_analytic_matches_independent_fd(self, mapping):
        # [DERIVED] oracle: plain Cartesian central differences written in
        # the test suite, independent of the library's FD path.
        for z in smooth_points(mapping, 100, RNG):
            dz, dzb = fd_wirtinger_oracle(mapping.evaluate, complex(z), 1e-5)
            wp = mapping.wirtinger_analytic(complex(z))
            assert abs(wp.d_z - dz) <= 1e-7
            assert abs(wp.d_zbar - dzb) <= 1e-7

    @pytest.mark.parametrize("mapping", ALL_MAPS, ids=ALL_IDS)
    def test_library_fd_matches_analytic(self, mapping):
        for z in smooth_points(mapping, 50, RNG):
            wp_fd = mapping.wirtinger_fd(complex(z), 1e-5)
            wp = mapping.wirtinger_analytic(complex(z))
            assert abs(wp_fd.d_z - wp.d_z) <= 1e-7
            assert abs(wp_fd.d_zbar - wp.d_zbar) <= 1e-7

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_power_against_symbolic_oracle(self, alpha):
        # [DERIVED] oracle: sympy differentiates |z|^{1/alpha-1} z exactly.
        m = Power(alpha)
        for z in [1.5 + 0.5j, -2.0 + 3.0j, 0.25 - 0.125j]:
            dz, dzb = sympy_power_oracle(alpha, z)
            wp = m.wirtinger_analytic(z)
            assert abs(wp.d_z - dz) <= 1e-12 * max(1.0, abs(dz))
            assert abs(wp.d_zbar - dzb) <= 1e-12 * max(1.0, abs(dzb))

    @pytest.mark.parametrize("mapping", ALL_MAPS, ids=ALL_IDS)
    def test_fd_is_second_order(self, mapping):
        # Halving h divides the truncation error by about 4; use steps
        # large enough that truncation dominates double-precision roundoff.
        h = 2e-3
        ratios = []
        for z in smooth_points(mapping, 20, RNG, r_lo=0.5, r_hi=20.0, margin=1e-2):
            wp = mapping.wirtinger_analytic(complex(z))
            e1 = _fd_error(mapping, complex(z), h, wp)
            e2 = _fd_error(mapping, complex(z), h / 2.0, wp)
            if e1 > 1e-9:  # skip points where the map is locally linear
                ratios.append(e1 / e2)
        if ratios:  # identity/linear are exactly reproduced by FD
            assert 3.0 <= float(np.median(ratios)) <= 5.0

    @pytest.mark.parametrize("mapping", ALL_MAPS, ids=ALL_IDS)
    def test_jacobian_positive_at_smooth_points(self, mapping):
        z = smooth_points(mapping, 200, RNG)
        jac = jacobian_wirtinger(mapping.wirtinger_analytic(z))
        assert np.all(jac > 0.0)

    def test_spiral_jacobian_is_one(self):
        z = smooth_points(Spiral(), 1000, RNG)
        jac = jacobian_wirtinger(Spiral().wirtinger_analytic(z))
        np.testing.assert_allclose(jac, 1.0, atol=1e-12)


def _fd_error(mapping, z, h, wp_exact):
    wp = mapping.wirtinger_fd(z, h)
    return max(abs(wp.d_z - wp_exact.d_z), abs(wp.d_zbar - wp_exact.d_zbar))


class TestSeamsAndMasks:
    def test_analytic_refused_on_seam(self):
        with pytest.raises(NotDifferentiableHere):
            LogLog(1.0).wirtinger_analytic(LOGLOG_SEAM + 0j)

    def test_fd_refused_across_seam(self):
        with pytest.raises(StencilCrossesSeam):
            LogLog(1.0).wirtinger_fd(LOGLOG_SEAM * (1 + 1e-7) + 0j, 1e-5)

    def test_fd_refused_at_origin(self):
        with pytest.raises(StencilCrossesSeam):
            Power(2.0).wirtinger_fd(1e-6 + 0j, 1e-5)

    def test_smooth_mask_excludes_seam_band(self):
        m = LogLog(1.0)
        h = 1e-5
        z = np.array([LOGLOG_SEAM * (1 + 1e-7) + 0j, 2.0 * LOGLOG_SEAM + 0j])
        mask = m.smooth_mask(z, h)
        assert not mask[0] and mask[1]


class TestRadialTable:
    def test_reproduces_power_map(self):
        knots = np.geomspace(0.25, 16.0, 96)
        table = RadialTable(knots, np.sqrt(knots), 0j)
        oracle = Power(2.0)
        for z in smooth_points(oracle, 50, RNG, r_lo=0.3, r_hi=14.0):
            z = complex(z)
            assert abs(table.evaluate(z) - oracle.evaluate(z)) <= 1e-9
            wp_t = table.wirtinger_analytic(z)
            wp_o = oracle.wirtinger_analytic(z)
            assert abs(wp_t.d_z - wp_o.d_z) <= 1e-6
            assert abs(wp_t.d_zbar - wp_o.d_zbar) <= 1e-6

    def test_linear_inner_extension(self):
        knots = np.geomspace(1.0, 8.0, 64)
        table = RadialTable(knots, knots**2, 0j, linear_inner=True)
        # below the first knot: rho0 * r / r0 = 1 * r
        z = 0.5 * cmath.exp(0.2j)
        assert abs(abs(table.evaluate(z)) - 0.5) <= 1e-12

    def test_off_center(self):
        knots = np.geomspace(0.5, 4.0, 64)
        c = 2.0 - 1.0j
        table = RadialTable(knots, knots, c)
        z = c + 1.5 * cmath.exp(0.9j)
        assert abs(table.evaluate(z) - (z - c)) <= 1e-10

    def test_off_center_seam_and_domain(self):
        # seams, the center and the domain are measured about the center
        knots = np.geomspace(0.5, 3.0, 60)
        table = RadialTable(knots, np.sqrt(knots), 5.0, linear_inner=True)
        centered = RadialTable(knots, np.sqrt(knots), 0j, linear_inner=True)
        wp = table.wirtinger_analytic(6.0 + 0j)
        wp0 = centered.wirtinger_analytic(1.0 + 0j)
        assert wp.d_z == pytest.approx(wp0.d_z, rel=1e-14)
        assert wp.d_zbar == pytest.approx(wp0.d_zbar, rel=1e-14)
        with pytest.raises(NotDifferentiableHere):
            table.wirtinger_analytic(5.0 + 0.5j)
        with pytest.raises(StencilCrossesSeam):
            table.wirtinger_fd(5.5 + 0j, 1e-3)
        z = 5.0 + np.array([0.5, 1.0, 2.9999, 3.5])
        # the stencil step, and so the margin, scales with |z - center|
        assert table.smooth_mask(z, 1e-5).tolist() == [False, True, True, False]

    def test_seam_messages_name_the_center(self):
        # the seam is the circle |z - 5| = 3, not |z| = 3
        knots = np.geomspace(3.0, 9.0, 60)
        table = RadialTable(knots, np.sqrt(knots), 5.0, linear_inner=True)
        with pytest.raises(NotDifferentiableHere, match=r"on \|z - \(5\+0j\)\| = 3\.0$"):
            table.wirtinger_analytic(8.0 + 0j)
        with pytest.raises(StencilCrossesSeam, match=r"seam \|z - \(5\+0j\)\| = 3\.0$"):
            table.wirtinger_fd(5.0 + 3.0001j, 1e-3)

    def test_stencil_measured_about_the_center(self):
        # the FD step and the smooth-mask margin scale with |z - center|, so
        # moving the center moves nothing else
        knots = np.geomspace(0.05, 3.0, 60)
        table = RadialTable(knots, np.sqrt(knots), 5.0, linear_inner=True)
        centered = RadialTable(knots, np.sqrt(knots), 0j, linear_inner=True)
        assert check_radii(table, 0.1, 1.6).tolist() == check_radii(centered, 0.1, 1.6).tolist()
        wp = table.wirtinger_fd(6.0 + 0j)
        wp0 = centered.wirtinger_fd(1.0 + 0j)
        assert wp.d_z == pytest.approx(wp0.d_z, rel=1e-9)
        assert wp.d_zbar == pytest.approx(wp0.d_zbar, abs=1e-9)

    def test_domain_errors_name_radius_and_domain(self):
        knots = np.geomspace(0.5, 4.0, 16)
        table = RadialTable(knots, knots, 1.0j)
        with pytest.raises(OutOfDomain, match=r"radius 0\.25 outside .*\[0\.5, 4\.0\]"):
            table.wirtinger_analytic(np.array([1.0, 0.25, 0.3]) + 1.0j)
        with pytest.raises(OutOfDomain, match=r"radius 5\.0 outside .*\[0\.5, 4\.0\]"):
            table.evaluate(5.0 + 1.0j)

    def test_monotone_modulus(self):
        knots = np.geomspace(0.5, 32.0, 80)
        rho = np.log1p(knots)  # concave but increasing
        table = RadialTable(knots, rho, 0j)
        radii = np.geomspace(0.6, 30.0, 200)
        mods = [abs(table.evaluate(complex(r))) for r in radii]
        assert np.all(np.diff(mods) > 0.0)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("r,rho\n1,1\n2,3\n4,5\n")
        table = RadialTable.from_csv(path, 1j, linear_inner=True)
        np.testing.assert_array_equal(table.knots, [1.0, 2.0, 4.0])
        np.testing.assert_array_equal(table.rho, [1.0, 3.0, 5.0])
        assert table.center == 1j and table.linear_inner

    @pytest.mark.parametrize(
        "text",
        [
            "r,rho\n",
            "r,rho\n1,1\n2,inf\n",
            "r,rho\n1,nan\n2,3\n",
            "r,rho\n1,1\n2,\n",
            "r,rho\n1,1\n2,3,4\n",
            "r,rho\n1,1\n2,x\n",
            "radius,rho\n1,1\n2,3\n",
            "",
            "r,rho\n1,1\n2,3." + "0" * 200_000 + "\n",
        ],
        ids=[
            "header-only", "inf", "nan", "empty-cell", "long-row", "word", "header", "empty",
            "field-beyond-csv-limit",
        ],
    )
    def test_from_csv_strict(self, tmp_path, text):
        path = tmp_path / "rho.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            RadialTable.from_csv(path)
