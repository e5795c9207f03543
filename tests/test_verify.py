"""Extremal solution construction and residual certification."""

import numpy as np
import pytest

from beltrami_growth import (
    AnnulusGrid,
    BeyondDoubleRange,
    ConstantProfile,
    DomainError,
    Identity,
    LogProductProfile,
    NonPositiveJacobian,
    Linear,
    LinearCoefficient,
    LogLog,
    LOGLOG_SEAM,
    Power,
    PowerCoefficient,
    RadialCoefficient,
    RadiusLadder,
    angular_dilatation,
    area_bound_check,
    build_extremal,
    catalog_pair,
    pde_residual,
    real_system_residual,
    sharpness_ladder,
    theorem1_check,
)
from conftest import fd_residual_max, smooth_points

RNG = np.random.default_rng(907)

GRID = AnnulusGrid(0.5, 20.0, n_r=24, n_theta=64)


class TestCatalogResiduals:
    def test_analytic_residual_vanishes(self, pair):
        mapping, K = pair
        grid = _grid_for(mapping)
        rep = pde_residual(mapping, K, grid)
        assert rep.max_abs <= 1e-12
        assert rep.count > 0.8 * grid.n_r * grid.n_theta

    def test_fd_residual_small_and_second_order(self, pair):
        mapping, K = pair
        grid = _grid_for(mapping)
        h = 2e-3
        r1 = fd_residual_max(mapping, K, grid, h)
        r2 = fd_residual_max(mapping, K, grid, h / 2.0)
        assert r1 <= 1e-4
        if r1 > 1e-9:  # maps with curvature in the derivatives
            assert 3.0 <= r1 / r2 <= 5.0

    def test_real_system_matches_complex_residual(self, pair):
        # the two real equations are the components of conj(w) times the
        # complex equation, so the combined magnitude is r * |residual|
        mapping, K = pair
        grid = _grid_for(mapping)
        rep_c = pde_residual(mapping, K, grid)
        rep_r = real_system_residual(mapping, K, grid)
        combined = np.hypot(rep_r.residual_u, rep_r.residual_v)
        np.testing.assert_allclose(
            combined, rep_r.r * rep_c.abs_residual, atol=1e-10
        )

    def test_wrong_coefficient_flagged(self):
        mapping, _ = catalog_pair("power", alpha=2.0)
        wrong = PowerCoefficient(3.0)
        rep = pde_residual(mapping, wrong, GRID)
        assert rep.max_abs > 1e-2

    def test_nonpositive_jacobian_detected(self):
        # an orientation-reversing linear map: |A| > |B|
        mapping = Linear(1.2 - 0.4j, 0.3 + 0.1j, 0j)
        K = LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j)
        with pytest.raises(NonPositiveJacobian):
            pde_residual(mapping, K, GRID)

    def test_real_system_rms_finite_where_every_residual_is(self):
        # |K| = 1e154 on the identity: each combined residual is r * 1e154,
        # whose square overflows, yet their root mean square is finite
        K = RadialCoefficient(ConstantProfile(1e308))
        rep = real_system_residual(Identity(), K, GRID)
        assert rep.max_abs == 2.0000000000000005e155
        radii = np.geomspace(GRID.r_inner, GRID.r_outer, GRID.n_r)
        assert rep.rms == pytest.approx(1e154 * np.sqrt(np.mean(radii**2)), rel=1e-14)

    def test_real_system_refuses_a_non_finite_residual(self):
        # A conj(w) - B w overflows at the grid's outer radius
        grid = AnnulusGrid(1.0, 1e308, n_r=2, n_theta=8)
        mapping, K = catalog_pair("linear", a=-1, b=1.2)
        message = r"^combined residual = nan at r = 1e\+308, theta = 0\.0 \(J_f = 0\.4399"
        with pytest.raises(BeyondDoubleRange, match=message):
            real_system_residual(mapping, K, grid)


def _grid_for(mapping):
    lo, hi = 0.5, 20.0
    if mapping.seam_radii:
        lo, hi = 0.2 * max(mapping.seam_radii), 10.0 * max(mapping.seam_radii)
    return AnnulusGrid(lo, hi, n_r=24, n_theta=64)


class TestAnnulusGrid:
    def test_points_shape_and_radii(self):
        z, rr, tt = AnnulusGrid(1.0, 4.0, n_r=8, n_theta=16).points(1 + 1j)
        assert z.shape == (8, 16)
        np.testing.assert_allclose(np.abs(z - (1 + 1j)), rr, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnulusGrid(2.0, 1.0)
        with pytest.raises(ValueError):
            AnnulusGrid(1.0, 2.0, n_r=1)


class TestExtremalConstruction:
    def test_overflowing_rho_raises(self):
        # rho = r^100 on knots 1, 230.2..., 53016.3..., ...: the third knot
        # is the first above the double range
        with pytest.raises(DomainError, match=r"rho overflows double precision at r = 53016\.30"):
            build_extremal(ConstantProfile(0.01), 1.0, 1.0, 1e300)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_constant_profile_reproduces_power_law(self, alpha):
        sol = build_extremal(ConstantProfile(alpha), 1.0, 1.0, 64.0, knots=64)
        expected = sol.knots ** (1.0 / alpha)
        np.testing.assert_allclose(sol.rho, expected, rtol=1e-10)

    def test_analytic_residual_of_extremal(self):
        sol = build_extremal(ConstantProfile(2.0), 1.0, 1.0, 64.0)
        rep = pde_residual(sol.mapping(), sol.coefficient(), AnnulusGrid(1.5, 50.0, 16, 64))
        assert rep.max_abs <= 1e-10

    def test_fd_residual_of_extremal(self):
        # the tabulated map carries an interpolation floor (~1e-7), so the
        # strict second-order h-ratio is checked on closed-form maps only
        profile = LogProductProfile(1.0, 2)
        sol = build_extremal(profile, LOGLOG_SEAM, 1.0, 40.0 * LOGLOG_SEAM)
        mapping, K = sol.mapping(), sol.coefficient()
        grid = AnnulusGrid(1.1 * LOGLOG_SEAM, 30.0 * LOGLOG_SEAM, 16, 64)
        assert fd_residual_max(mapping, K, grid, 1e-5) <= 1e-4

    def test_dilatation_identity_on_extremal(self):
        sol = build_extremal(ConstantProfile(0.5), 1.0, 2.0, 64.0)
        mapping, K = sol.mapping(), sol.coefficient()
        z = smooth_points(mapping, 200, RNG, r_lo=1.5, r_hi=50.0)
        d = angular_dilatation(mapping, 0j, z)
        np.testing.assert_allclose(d, K.abs2(z), rtol=1e-8)

    def test_attains_area_bound_equality(self):
        sol = build_extremal(ConstantProfile(2.0), 1.0, 1.0, 64.0)
        rep = area_bound_check(sol.mapping(), sol.coefficient(), 2.0, 32.0)
        assert rep.ok and rep.equality

    def test_attains_growth_equality(self):
        profile = LogProductProfile(2.0, 2)
        sol = build_extremal(profile, LOGLOG_SEAM, 1.0, 1024.0 * LOGLOG_SEAM, knots=384)
        rep = theorem1_check(
            sol.mapping(),
            sol.coefficient(),
            0j,
            LOGLOG_SEAM,
            RadiusLadder(LOGLOG_SEAM, 2.0, 10),
        )
        assert rep.all_ok
        for row in rep.rows:
            assert row.v == pytest.approx(rep.m_inner, rel=1e-8)

    def test_coefficient_of_extremal_closed_form(self):
        sol = build_extremal(ConstantProfile(4.0), 1.0, 1.0, 16.0)
        z = 2.0 * np.exp(0.3j)
        expected = -2.0 * z / np.conj(z)
        assert sol.coefficient()(complex(z)) == pytest.approx(
            complex(expected), rel=1e-12
        )
        # below r0 the linear continuation has unit kappa
        z_in = 0.5 * np.exp(1.0j)
        assert sol.coefficient()(complex(z_in)) == pytest.approx(
            complex(-z_in / np.conj(z_in)), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            build_extremal(ConstantProfile(1.0), 1.0, 1.0, 4.0, knots=8)
        with pytest.raises(DomainError):
            build_extremal(ConstantProfile(1.0), 4.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            build_extremal(LogProductProfile(1.0, 2), 1.0, 1.0, 100.0)
        # R so close to r0 that the geometric knots repeat
        with pytest.raises(DomainError):
            build_extremal(ConstantProfile(1.0), 1.0, 1.0, 1.0 + 1e-14)


class TestSharpness:
    def test_power_ratio_is_one(self):
        rep = sharpness_ladder(Power(2.0), RadiusLadder(1.0, 4.0, 12))
        assert rep.kind == "power"
        assert rep.ok

    def test_loglog_ratio_decays(self):
        rep = sharpness_ladder(
            LogLog(1.0), RadiusLadder.reaching(LOGLOG_SEAM, 1e9, 2.0)
        )
        assert rep.kind == "loglog"
        assert rep.ok

    def test_loglog_ratio_not_yet_halved_fails(self):
        # three doublings from the seam: the ratio falls, but not to half
        rep = sharpness_ladder(LogLog(1.0), RadiusLadder(LOGLOG_SEAM, 2.0, 3))
        assert rep.strictly_decreasing and not rep.halved
        assert not rep.ok

    def test_rejects_other_maps(self):
        with pytest.raises(TypeError):
            sharpness_ladder(Linear(0.1 + 0j, 1 + 0j, 0j), RadiusLadder(1.0, 2.0, 4))
        with pytest.raises(DomainError):
            sharpness_ladder(LogLog(1.0), RadiusLadder(1.0, 2.0, 4))


def test_rms_finite_where_every_residual_is():
    # |K| = 1e154 on the identity: every residual is about 1e154, and its
    # square overflows; scaling by a power of two is exact
    rep = pde_residual(Identity(), RadialCoefficient(ConstantProfile(1e308)), GRID)
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(rep.abs_residual)) and np.isinf(np.mean(rep.abs_residual**2))
    scaled = np.sqrt(np.mean((rep.abs_residual * 2.0**-600) ** 2)) * 2.0**600
    assert rep.rms == pytest.approx(scaled, rel=1e-15)
