"""The numpy kernels against SciPy as an independent oracle.

The attenuation integral is checked against adaptive ``quad``, the modulus
extremes against a bounded ``minimize_scalar`` search, the radial table
against ``PchipInterpolator`` and the grid coefficient against
``RegularGridInterpolator``.  SciPy is a dependency of the tests only.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator, RegularGridInterpolator
from scipy.optimize import minimize_scalar

from beltrami_growth import (
    CircleQuadrature,
    ConstantProfile,
    FieldProfile,
    GridCoefficient,
    Linear,
    LinearCoefficient,
    LogLog,
    LogLogCoefficient,
    LogProductProfile,
    NonPositiveKappa,
    Power,
    RadialTable,
    RadiusLadder,
    Spiral,
    SpiralCoefficient,
    TableProfile,
    envelope_integral,
    ladder_integrals,
    loglog_example_profile,
    modulus_extremes,
)
from beltrami_growth.dilatation import E_3
from beltrami_growth.growth import ENVELOPE_ABS_TOL
from beltrami_growth.mappings import hermite_eval, pchip_coefficients

RNG = np.random.default_rng(6)
TWO_PI = 2.0 * math.pi


def quad_ladder(profile, r0, radii):
    """Cumulative I along the ladder by adaptive quadrature in t = ln r,
    split at the profile's breakpoints."""

    def integrand(t):
        return 1.0 / float(profile(math.exp(t)))

    gaps = []
    for a, b in zip([r0] + list(radii), radii):
        edges = [a] + [c for c in profile.breakpoints if a < c < b] + [b]
        gaps.append(
            sum(
                quad(integrand, math.log(lo), math.log(hi), epsabs=ENVELOPE_ABS_TOL,
                     epsrel=1e-12, limit=200)[0]
                for lo, hi in zip(edges, edges[1:])
            )
        )
    return np.cumsum(gaps)


#: table radii from r0 = 0.9 to past the top rung of a 40-rung doubling
#: ladder, none of them on a rung
TABLE_RADII = 0.9 * 2.0 ** np.concatenate([[0.0], np.arange(0.37, 43.3, 3.3)])


LADDER_PROFILES = {
    "constant": (ConstantProfile(2.3), 0.7),
    "log_product3": (LogProductProfile(1.9, 3), E_3),
    "piecewise_loglog": (loglog_example_profile(1.7), 1.3),
    "table": (
        TableProfile(TABLE_RADII, RNG.uniform(1.0, 3.0, TABLE_RADII.size)),
        0.9,
    ),
    "field_loglog": (FieldProfile(LogLogCoefficient(2.2)), 1.5),
    "field_linear": (FieldProfile(LinearCoefficient(0.3 + 0.1j, 1.2 - 0.4j)), 0.8),
    "field_spiral": (FieldProfile(SpiralCoefficient()), 0.6),
}


@pytest.mark.parametrize("name", sorted(LADDER_PROFILES))
def test_ladder_integral_matches_quad(name):
    profile, r0 = LADDER_PROFILES[name]
    radii = RadiusLadder(r0, 2.0, 40).radii().tolist()
    cumulative = np.cumsum(ladder_integrals(profile, r0, radii))
    np.testing.assert_allclose(cumulative, quad_ladder(profile, r0, radii), rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_one_bad_panel_node_rejected(bad):
    class OneBadNode(ConstantProfile):
        def __call__(self, r):
            out = np.full(np.shape(r), self.alpha)
            out.flat[5] = bad
            return out

    with pytest.raises(NonPositiveKappa):
        envelope_integral(OneBadNode(1.0), 1.0, 2.0)
    with pytest.raises(NonPositiveKappa):
        ladder_integrals(OneBadNode(1.0), 1.0, [2.0, 4.0])


def minimize_scalar_extremes(mapping, r, q):
    """Grid scan, then a bounded scalar search on the best cell of each
    extreme to 1e-10 in theta."""
    f0 = mapping.evaluate(0j)
    theta = q.angles()
    values = np.abs(mapping.evaluate(q.points(0j, r)) - f0)
    step = TWO_PI / q.n

    def distance(t):
        return abs(mapping.evaluate(r * complex(math.cos(t), math.sin(t))) - f0)

    def refine(objective, t0):
        return minimize_scalar(
            objective, bounds=(t0 - step, t0 + step), method="bounded", options={"xatol": 1e-10}
        ).fun

    m_max = max(values.max(), -refine(lambda t: -distance(t), theta[np.argmax(values)]))
    m_min = min(values.min(), refine(distance, theta[np.argmin(values)]))
    return m_max, m_min


@pytest.mark.parametrize(
    "mapping",
    [Power(2.0), LogLog(1.5), Linear(0.3 + 0.1j, 1.2 - 0.4j, 0.5j), Spiral()],
    ids=["power", "loglog", "linear", "spiral"],
)
def test_modulus_extremes_match_minimize_scalar(mapping):
    q = CircleQuadrature(256)
    radii = RadiusLadder(0.7, 2.0, 40).radii()
    m_max, m_min = modulus_extremes(mapping, 0j, radii, q)
    oracle = np.array([minimize_scalar_extremes(mapping, r, q) for r in radii])
    np.testing.assert_allclose(m_max, oracle[:, 0], rtol=1e-13, atol=0)
    np.testing.assert_allclose(m_min, oracle[:, 1], rtol=1e-13, atol=0)
    # a scalar radius gives the same floats as its rung of the array call
    assert modulus_extremes(mapping, 0j, float(radii[7]), q) == (m_max[7], m_min[7])


@pytest.mark.parametrize(
    "knots, rho",
    [
        (np.geomspace(0.5, 40.0, 37), np.cumsum(RNG.uniform(0.1, 2.0, 37))),
        # steep first and last intervals exercise the end-slope limits
        (np.array([1.0, 1.1, 3.0, 3.2, 9.0, 9.05]), np.array([1.0, 5.0, 5.5, 6.0, 6.2, 40.0])),
        (np.array([2.0, 7.0]), np.array([1.0, 3.0])),
    ],
    ids=["random", "steep-ends", "two-knots"],
)
def test_radial_table_matches_pchip(knots, rho):
    table = RadialTable(knots, rho)
    oracle = PchipInterpolator(np.log(knots), np.log(rho), extrapolate=False)
    slope = oracle.derivative()
    r = np.concatenate([knots, np.exp(RNG.uniform(np.log(knots[0]), np.log(knots[-1]), 200))])
    expected_rho = np.exp(oracle(np.log(r)))
    got_rho = table._rho_of_r(r)
    got_slope = table._drho_of_r(r, got_rho)
    np.testing.assert_allclose(got_rho, expected_rho, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        got_slope, expected_rho / r * slope(np.log(r)), rtol=1e-12, atol=0
    )


def test_pchip_coefficients_on_non_monotone_data():
    # local extrema and a flat run take the zero-slope and end-limit branches
    x = np.array([0.0, 0.5, 1.7, 2.0, 3.1, 3.3, 4.0, 5.5])
    y = np.array([0.0, 2.0, 1.0, 1.0, 1.0, 3.0, -1.0, 4.0])
    oracle = PchipInterpolator(x, y)
    xv = np.concatenate([x, RNG.uniform(x[0], x[-1], 300)])
    coef = pchip_coefficients(x, y)
    np.testing.assert_allclose(hermite_eval(x, coef, xv), oracle(xv), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        hermite_eval(x, coef, xv, derivative=True), oracle.derivative()(xv), rtol=1e-12, atol=1e-14
    )


@pytest.mark.parametrize("first", [0.0, 0.3, 5.9], ids=["at-zero", "offset", "near-2pi"])
def test_grid_coefficient_matches_regular_grid_interpolator(first):
    radii = np.geomspace(0.2, 30.0, 9)
    thetas = np.sort(first + RNG.uniform(0.0, TWO_PI - first, 11))
    thetas[0] = first
    k2 = RNG.uniform(0.5, 3.0, (radii.size, thetas.size))
    K = GridCoefficient(radii, thetas, k2, center=1.0 - 2.0j)
    oracle = RegularGridInterpolator(
        (np.log(radii), np.concatenate([thetas, [first + TWO_PI]])),
        np.concatenate([k2, k2[:, :1]], axis=1),
        method="linear",
        bounds_error=True,
    )
    # the end radii are left out: |z - center| may round across them
    r = np.concatenate([radii[1:-1], np.exp(RNG.uniform(np.log(radii[0]), np.log(radii[-1]), 400))])
    theta = np.concatenate([thetas[1:8], RNG.uniform(-10.0, 10.0, 400)])
    z = K.center + r * np.exp(1j * theta)
    wrapped = first + np.mod(np.angle(z - K.center) - first, TWO_PI)
    expected = oracle(np.stack([np.log(np.abs(z - K.center)), wrapped], axis=-1))
    np.testing.assert_allclose(K.abs2(z), expected, rtol=1e-14, atol=0)
