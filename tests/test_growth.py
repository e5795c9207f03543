"""Envelope integrals, circle functionals, and the growth inequality checks."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    CircleQuadrature,
    CoefficientBound,
    ConstantProfile,
    DomainError,
    FieldProfile,
    GridCoefficient,
    Identity,
    KappaBound,
    Linear,
    LogLog,
    LogProductProfile,
    NonPositiveKappa,
    PiecewiseProfile,
    Power,
    PowerCoefficient,
    RadiusLadder,
    Spiral,
    TableProfile,
    area_bound_check,
    catalog_pair,
    circle_average_D,
    circle_length,
    corollary_exponent,
    differential_inequality_check,
    envelope_integral,
    image_area,
    isoperimetric_check,
    iterated_log,
    kappa,
    ladder_integrals,
    loglog_example_profile,
    modulus_extremes,
    nonexistence_diagnostic,
    theorem1_check,
    tower,
)
import beltrami_growth
from beltrami_growth import dilatation, growth
from beltrami_growth.errors import QuadratureFailure
from beltrami_growth.dilatation import E_2, E_3, KappaProfile
from beltrami_growth.growth import _disk_areas, _mean_jacobians

alphas = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


class TestTowerAndLogs:
    def test_tower_values(self):
        assert tower(1) == math.e
        assert tower(2) == math.exp(math.e)
        assert tower(3) == math.exp(math.exp(math.e))

    def test_tower_overflow(self):
        with pytest.raises(OverflowError):
            tower(4)
        with pytest.raises(ValueError):
            tower(0)

    def test_iterated_log(self):
        assert iterated_log(1, math.e) == pytest.approx(1.0)
        assert iterated_log(2, E_2) == pytest.approx(1.0)
        assert iterated_log(3, E_3) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            iterated_log(2, 1.5)  # ln(1.5) < 1, so ln ln is negative

    def test_inverse_pair(self):
        for k in (1, 2, 3):
            assert iterated_log(k, tower(k)) == pytest.approx(1.0, abs=1e-14)


class TestProfiles:
    def test_constant(self):
        p = ConstantProfile(2.5)
        assert p(1.0) == 2.5
        np.testing.assert_allclose(p(np.array([1.0, 7.0])), 2.5)
        with pytest.raises(ValueError):
            ConstantProfile(0.0)

    def test_log_product_values(self):
        p = LogProductProfile(2.0, 2)
        r = 100.0
        assert p(r) == pytest.approx(
            2.0 * math.log(r) * math.log(math.log(r)), rel=1e-14
        )
        with pytest.raises(DomainError):
            p(2.0)  # below e^e

    def test_piecewise_routing(self):
        p = PiecewiseProfile((2.0,), (ConstantProfile(1.0), ConstantProfile(5.0)))
        assert p(1.0) == 1.0
        assert p(2.0) == 5.0  # the cut radius belongs to the right piece
        assert p(3.0) == 5.0
        with pytest.raises(ValueError):
            PiecewiseProfile((2.0, 1.0), (p, p, p))

    def test_table_profile(self):
        p = TableProfile(np.array([1.0, 10.0]), np.array([1.0, 100.0]))
        # log-log linear: kappa(sqrt(10)) = 10
        assert p(math.sqrt(10.0)) == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(DomainError):
            p(0.5)
        with pytest.raises(NonPositiveKappa):
            TableProfile(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_field_profile_matches_closed_form(self):
        p = FieldProfile(PowerCoefficient(2.0))
        assert p(3.0) == pytest.approx(2.0, abs=1e-12)

    def test_loglog_example_profile(self):
        p = loglog_example_profile(1.0)
        assert p(1.0) == 1.0
        assert p(100.0) == pytest.approx(
            math.log(100.0) * math.log(math.log(100.0)), rel=1e-12
        )


class TestLadderAndExponents:
    def test_radii(self):
        np.testing.assert_allclose(
            RadiusLadder(1.0, 2.0, 3).radii(), [1.0, 2.0, 4.0, 8.0]
        )

    def test_reaching(self):
        lad = RadiusLadder.reaching(1.0, 100.0, 2.0)
        radii = lad.radii()
        assert radii[-1] >= 100.0 and radii[-2] < 100.0

    def test_validation(self):
        with pytest.raises(DomainError):
            RadiusLadder(0.0)
        with pytest.raises(DomainError):
            RadiusLadder(1.0, 1.0)
        with pytest.raises(DomainError):
            RadiusLadder(1.0, 10.0, 400)  # overflows doubles

    @given(alphas)
    def test_corollary_exponent_identity(self, alpha):
        # a bound |K| <= alpha implies kappa <= alpha^2; the two routes to
        # the growth exponent must agree exactly, not merely approximately
        assert corollary_exponent(CoefficientBound(alpha)) == corollary_exponent(
            KappaBound(alpha * alpha)
        )

    def test_exponent_values(self):
        assert corollary_exponent(KappaBound(2.0)) == 0.5
        assert corollary_exponent(CoefficientBound(2.0)) == 0.25


class TestEnvelope:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_constant_closed_form(self, alpha):
        for r0, R in [(1.0, 2.0), (0.25, 100.0), (3.0, 3.0)]:
            integral, env = envelope_integral(ConstantProfile(alpha), r0, R)
            assert env == pytest.approx((R / r0) ** (1.0 / alpha), rel=1e-10)
            assert integral == pytest.approx(math.log(R / r0) / alpha, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_log_product_closed_form(self, alpha, depth):
        profile = LogProductProfile(alpha, depth)
        e_n = tower(depth)
        for R in (2.0 * e_n, 1e3, E_3):
            _, env = envelope_integral(profile, e_n, R)
            assert env == pytest.approx(
                iterated_log(depth, R) ** (1.0 / alpha), rel=1e-8
            )

    @given(
        alphas,
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.05, max_value=10.0),
        st.floats(min_value=1.05, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, alpha, r0, g1, g2):
        profile = loglog_example_profile(alpha)
        r1, r2 = r0 * g1, r0 * g1 * g2
        i_a, _ = envelope_integral(profile, r0, r1)
        i_b, _ = envelope_integral(profile, r1, r2)
        i_ab, _ = envelope_integral(profile, r0, r2)
        assert i_a + i_b == pytest.approx(i_ab, rel=1e-9, abs=1e-9)

    def test_monotone_nonnegative(self):
        profile = loglog_example_profile(2.0)
        values = [envelope_integral(profile, 1.0, R)[0] for R in (1.0, 2.0, 10.0, 1e4)]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_nonpositive_kappa_rejected(self):
        class Broken(ConstantProfile):
            def __call__(self, r):
                return 0.0 * np.asarray(r)

        with pytest.raises(NonPositiveKappa):
            envelope_integral(Broken(1.0), 1.0, 2.0)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            envelope_integral(LogProductProfile(1.0, 2), 1.0, 100.0)


def _grid_coefficient():
    """|K|^2 tabulated on [1, 100] with a different mean on every circle."""
    radii = np.geomspace(1.0, 100.0, 6)
    thetas = 2.0 * math.pi * np.arange(8) / 8
    k2 = 1.0 + 0.5 * np.sin(np.add.outer(np.arange(6), 1.3 * np.arange(8))) ** 2
    return GridCoefficient(radii, thetas, k2)


class UndeclaredSteps(KappaProfile):
    """kappa = 1, rising by 2 at each radius in ``at``; no breakpoint is
    declared, so the quadrature has to find the jumps by bisection."""

    def __init__(self, *at):
        self.at = at

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 + 2.0 * sum((r >= s).astype(float) for s in self.at)


class TestLadderIntegrals:
    @pytest.mark.parametrize(
        "profile",
        [
            ConstantProfile(2.3),
            loglog_example_profile(1.7),
            LogProductProfile(1.9, 2),
            TableProfile([1.0, 3.0, 20.0, 900.0], [1.0, 2.5, 0.7, 3.0]),
            FieldProfile(_grid_coefficient(), CircleQuadrature(64)),
        ],
    )
    def test_gaps_bit_equal_to_envelope_integral(self, profile):
        # the first rung is r0 itself, an exact 0.0 gap; a tabulated
        # profile keeps the rungs inside its table
        r0 = max(1.3, profile.domain[0])
        rungs = RadiusLadder(1.5 * r0, 3.0, 12).radii()
        radii = [r0] + rungs[rungs <= profile.domain[1]].tolist()
        gaps = ladder_integrals(profile, r0, radii)
        edges = [r0] + radii
        assert gaps.tolist() == [
            envelope_integral(profile, a, b)[0] for a, b in zip(edges, edges[1:])
        ]
        assert gaps[0] == 0.0 and np.all(gaps[1:] > 0.0)

    @staticmethod
    def _fewest_bisections(monkeypatch, profile, r0, R):
        """The smallest MAX_BISECTIONS with which the gap [r0, R] converges."""
        for cap in range(200):
            monkeypatch.setattr(growth, "MAX_BISECTIONS", cap)
            try:
                ladder_integrals(profile, r0, [R])
                return cap
            except QuadratureFailure:
                pass
        raise AssertionError("the gap did not converge")

    def test_bisections_counted_per_gap(self, monkeypatch):
        profile = UndeclaredSteps(1.9, 2.6)
        smooth = self._fewest_bisections(monkeypatch, profile, 1.0, 1.5)
        first = self._fewest_bisections(monkeypatch, profile, 1.5, 2.0)
        second = self._fewest_bisections(monkeypatch, profile, 2.0, 3.0)
        assert smooth == 0 and 0 < first < second
        rungs = [1.5, 2.0, 3.0]
        # the gaps' bisections add up past the cap, but no one gap's do
        monkeypatch.setattr(growth, "MAX_BISECTIONS", second)
        assert first + second > second
        gaps = ladder_integrals(profile, 1.0, rungs)
        assert gaps.tolist() == [
            envelope_integral(profile, a, b)[0] for a, b in ((1.0, 1.5), (1.5, 2.0), (2.0, 3.0))
        ]
        # one bisection short for the second jump: its gap is named, and the
        # neighbouring gap with the first jump does not trip the cap
        monkeypatch.setattr(growth, "MAX_BISECTIONS", second - 1)
        with pytest.raises(QuadratureFailure, match=r"gap 2, \[2\.0, 3\.0\]"):
            ladder_integrals(profile, 1.0, rungs)
        ladder_integrals(profile, 1.0, rungs[:2])

    def test_constant_closed_form(self):
        radii = [1.5, 2.0, 7.0, 1e3]
        gaps = ladder_integrals(ConstantProfile(2.0), 1.0, radii)
        expected = np.diff(np.log([1.0] + radii)) / 2.0
        np.testing.assert_allclose(gaps, expected, rtol=1e-12)

    def test_gap_straddling_e_e(self):
        # 1/kappa is 1 below e^e and 1/(alpha ln r ln ln r) above it, whose
        # integral from e^e is ln ln ln R / alpha
        alpha, a, b = 1.7, 4.0, 1e6
        (gap,) = ladder_integrals(loglog_example_profile(alpha), a, [b])
        expected = (math.e - math.log(a)) + math.log(math.log(math.log(b))) / alpha
        assert a < E_2 < b
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_first_rung_at_r0_is_exact_zero(self):
        gaps = ladder_integrals(loglog_example_profile(2.0), 2.0, [2.0, 4.0])
        assert gaps[0] == 0.0
        assert gaps[1] > 0.0

    def test_panels_split_as_linspace(self, monkeypatch):
        # the first panels split each segment between consecutive stops (r0,
        # the rungs and the breakpoint e^e inside a gap) as np.linspace does;
        # on [ln 2, ln 7] the last edge is ln 7 itself, not ln 2 + 2 * step
        seen, rules = [], growth._panel_rules

        def recording(profile, a, b):
            seen.append((a.copy(), b.copy()))
            return rules(profile, a, b)

        monkeypatch.setattr(growth, "_panel_rules", recording)
        ladder_integrals(loglog_example_profile(2.0), 2.0, [2.0, 7.0, 40.0, 1e6])
        stops = [math.log(c) for c in (2.0, 7.0, E_2, 40.0, 1e6)]
        bounds = [
            np.linspace(s, e, max(1, math.ceil(e - s)) + 1) for s, e in zip(stops, stops[1:])
        ]
        a, b = seen[0]
        assert np.array_equal(a, np.concatenate([x[:-1] for x in bounds]))
        assert np.array_equal(b, np.concatenate([x[1:] for x in bounds]))

    @pytest.mark.parametrize("alpha", [1e-310, 1e-308], ids=["inf-samples", "sum-overflows"])
    def test_overflowing_panel_names_its_gap(self, alpha):
        # 1/kappa, or its panel sum, leaves the double range; no numpy
        # warning escapes first, which this suite would turn into an error
        with pytest.raises(QuadratureFailure, match=r"gap 1, \[1\.0, 2\.0\], is not finite"):
            ladder_integrals(ConstantProfile(alpha), 1.0, [1.0, 2.0, 4.0])

    @pytest.mark.parametrize(
        "radii",
        [[0.5, 2.0], [2.0, 2.0, 4.0], [2.0, 4.0, 3.0]],
        ids=["below", "repeated", "descending"],
    )
    def test_rung_order_enforced(self, radii):
        with pytest.raises(DomainError):
            ladder_integrals(ConstantProfile(1.0), 1.0, radii)


def log_linear_table_integral(radii, values, r0, R):
    """I for kappa log-log linear between knots: on each interval
    kappa = v_i e^{p (t - t_i)} in t = ln r, integrated exactly."""
    total = 0.0
    for ra, rb, va, vb in zip(radii, radii[1:], values, values[1:]):
        lo, hi = max(ra, r0), min(rb, R)
        if hi <= lo:
            continue
        p = math.log(vb / va) / math.log(rb / ra)
        u, w = math.log(lo / ra), math.log(hi / ra)
        total += (math.exp(-p * u) - math.exp(-p * w)) / (p * va)
    return total


def ln_linear_table_integral(radii, values, r0, R):
    """I for kappa linear in t = ln r between knots, integrated exactly."""
    total = 0.0
    for ra, rb, va, vb in zip(radii, radii[1:], values, values[1:]):
        lo, hi = max(ra, r0), min(rb, R)
        if hi <= lo:
            continue
        slope = (vb - va) / math.log(rb / ra)
        k_lo, k_hi = va + slope * math.log(lo / ra), va + slope * math.log(hi / ra)
        total += math.log(k_hi / k_lo) / slope
    return total


class TestKnotsBetweenRungs:
    """Piecewise-linear profiles declare their interior knots as breakpoints,
    so a fixed-order rule never straddles a kink inside a ladder gap."""

    #: knots at 0.8 * 2^x for fractional x: none lies on a rung of the ladder
    RADII = 0.8 * 2.0 ** np.array([0.0, 1.3, 4.7, 5.1, 9.9, 13.0, 17.2, 21.0])
    VALUES = np.array([1.0, 2.5, 1.2, 3.0, 0.7, 2.2, 1.9, 4.0])

    def test_table_profile(self):
        profile = TableProfile(self.RADII, self.VALUES)
        assert profile.breakpoints == tuple(self.RADII[1:-1].tolist())
        r0 = float(self.RADII[0])
        rungs = RadiusLadder(r0, 2.0, 20).radii()
        cumulative = np.cumsum(ladder_integrals(profile, r0, rungs))
        expected = [log_linear_table_integral(self.RADII, self.VALUES, r0, R) for R in rungs]
        np.testing.assert_allclose(cumulative, expected, rtol=1e-13, atol=0)

    def test_grid_coefficient(self):
        # |K|^2 = g_j c_i: the circle mean is mean(g) times the ln r
        # interpolant of c, exactly when n is a multiple of the angle count
        g = np.array([0.5, 1.5, 2.0, 1.0, 0.8, 1.7, 1.1, 1.4])
        thetas = 2.0 * math.pi * np.arange(g.size) / g.size
        K = GridCoefficient(self.RADII, thetas, np.outer(self.VALUES, g))
        assert K.radial_breakpoints == tuple(self.RADII[1:-1].tolist())
        profile = FieldProfile(K, CircleQuadrature(64))
        assert profile.breakpoints == K.radial_breakpoints
        r0 = float(self.RADII[0])
        rungs = RadiusLadder(r0, 2.0, 20).radii()
        cumulative = np.cumsum(ladder_integrals(profile, r0, rungs))
        expected = [
            ln_linear_table_integral(self.RADII, g.mean() * self.VALUES, r0, R) for R in rungs
        ]
        np.testing.assert_allclose(cumulative, expected, rtol=1e-13, atol=0)

    def test_piecewise_profile_keeps_its_pieces_breakpoints(self):
        table = TableProfile(self.RADII, self.VALUES)
        profile = PiecewiseProfile((10.0,), (ConstantProfile(1.0), table))
        inside = [b for b in table.breakpoints if b > 10.0]
        assert profile.breakpoints == (10.0, *inside)


class TestBlockSize:
    """Many-circle kernels run in blocks of at most dilatation.BLOCK_POINTS
    points; every block size, from one circle per block to a single block,
    gives bit-equal results."""

    Q = CircleQuadrature(64)
    LINEAR = {"a": 0.3 + 0.1j, "b": 1.2 - 0.4j, "c": 0.5j}
    #: one circle per block, the default, and every call in one block
    SIZES = [Q.n, dilatation.BLOCK_POINTS, 1 << 30]

    def _each_size(self, monkeypatch, run):
        results = []
        for size in self.SIZES:
            monkeypatch.setattr(dilatation, "BLOCK_POINTS", size)
            results.append(run())
        return results

    @pytest.mark.parametrize(
        "name, params",
        [
            ("power", {"alpha": 2.0}),
            ("loglog", {"alpha": 2.0}),
            ("linear", LINEAR),
            ("spiral", {}),
        ],
        ids=["power", "loglog", "linear", "spiral"],
    )
    def test_mapping_kernels(self, monkeypatch, name, params):
        # radii about the loglog seam e^e = 15.15; the sweep's first segment
        # holds 384 circles, and the check circles' mean J, length and mean
        # dilatation 300, each more than one default block at n = 64
        mapping, _ = catalog_pair(name, **params)
        radii = np.geomspace(4.0, 60.0, 300)
        first, *others = self._each_size(
            monkeypatch,
            lambda: (
                _disk_areas(mapping, 0j, radii[::30], self.Q),
                _mean_jacobians(mapping, 0j, radii, self.Q),
                circle_length(mapping, 0j, radii, self.Q),
                circle_average_D(mapping, 0j, radii, self.Q),
                *modulus_extremes(mapping, 0j, radii, self.Q),
            ),
        )
        for other in others:
            for a, b in zip(first, other):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "coefficient",
        [
            catalog_pair("power", alpha=2.0)[1],
            catalog_pair("loglog", alpha=2.0)[1],
            catalog_pair("linear", **LINEAR)[1],
            catalog_pair("spiral")[1],
            _grid_coefficient(),
        ],
        ids=["power", "loglog", "linear", "spiral", "grid"],
    )
    def test_coefficient_kernels(self, monkeypatch, coefficient):
        radii = np.geomspace(4.0, 60.0, 600)
        rungs = RadiusLadder(4.0, 2.0, 4).radii()
        first, *others = self._each_size(
            monkeypatch,
            lambda: (
                kappa(coefficient, radii, self.Q),
                ladder_integrals(FieldProfile(coefficient, self.Q), 4.0, rungs),
            ),
        )
        for other in others:
            for a, b in zip(first, other):
                assert np.array_equal(a, b)
        assert kappa(coefficient, np.zeros(0), self.Q).shape == (0,)


class TestCircleFunctionals:
    def test_modulus_extremes_power(self):
        for alpha in (0.5, 2.0):
            m_max, m_min = modulus_extremes(Power(alpha), 0j, 9.0)
            assert m_max == pytest.approx(9.0 ** (1.0 / alpha), rel=1e-10)
            assert m_min == pytest.approx(9.0 ** (1.0 / alpha), rel=1e-10)

    def test_modulus_extremes_linear(self):
        a, b, r = 0.3 + 0.1j, 1.2 - 0.4j, 2.5
        m_max, m_min = modulus_extremes(Linear(a, b, 1j), 0j, r)
        assert m_max == pytest.approx((abs(b) + abs(a)) * r, rel=1e-9)
        assert m_min == pytest.approx((abs(b) - abs(a)) * r, rel=1e-9)

    def test_modulus_extremes_over_radii(self):
        mapping = Linear(0.3 + 0.1j, 1.2 - 0.4j, 1j)
        radii = np.array([0.5, 2.5, 2.5, 40.0])
        q = CircleQuadrature(256)
        m_max, m_min = modulus_extremes(mapping, 0j, radii, q)
        assert m_max.shape == m_min.shape == radii.shape
        for r, hi, lo in zip(radii.tolist(), m_max.tolist(), m_min.tolist()):
            assert modulus_extremes(mapping, 0j, r, q) == (hi, lo)
        with pytest.raises(ValueError, match="radius must be positive"):
            modulus_extremes(mapping, 0j, np.array([1.0, -1.0]), q)

    def test_modulus_extremes_names_a_bad_shape(self):
        # a 2-d or empty array is refused for its shape, not its values
        mapping, q = Power(2.0), CircleQuadrature(64)
        with pytest.raises(ValueError, match=r"non-empty 1-d array, got shape \(2, 2\)"):
            modulus_extremes(mapping, 0j, np.ones((2, 2)), q)
        with pytest.raises(ValueError, match=r"non-empty 1-d array, got shape \(0,\)"):
            modulus_extremes(mapping, 0j, np.array([]), q)

    def test_circle_length(self):
        assert circle_length(Identity(), 0j, 3.0) == pytest.approx(
            2.0 * math.pi * 3.0, rel=1e-12
        )
        assert circle_length(Power(2.0), 0j, 4.0) == pytest.approx(
            2.0 * math.pi * 2.0, rel=1e-12
        )

    def test_image_area_closed_forms(self):
        assert image_area(Identity(), 0j, 2.0) == pytest.approx(
            4.0 * math.pi, rel=1e-6
        )
        # the spiral preserves area
        assert image_area(Spiral(), 0j, 2.0) == pytest.approx(
            4.0 * math.pi, rel=1e-6
        )
        # power map sends the r-disk to the r^{1/alpha}-disk
        assert image_area(Power(2.0), 0j, 4.0) == pytest.approx(
            math.pi * 4.0, rel=1e-6
        )
        # linear map produces an ellipse of area pi (|B|^2 - |A|^2) r^2
        a, b = 0.3 + 0.1j, 1.2 - 0.4j
        expected = math.pi * (abs(b) ** 2 - abs(a) ** 2) * 2.0**2
        assert image_area(Linear(a, b, 0j), 0j, 2.0) == pytest.approx(
            expected, rel=1e-6
        )


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
RADIAL = {"identity", "spiral", "power-0.5", "power-2", "loglog-1", "loglog-2"}


def _test_radii(mapping, n):
    lo, hi = 0.5, 50.0
    if mapping.seam_radii:
        lo = 1.01 * max(mapping.seam_radii)
        hi = 100.0 * lo
    return np.geomspace(lo, hi, n)


class TestInequalities:
    @pytest.mark.parametrize("mapping,name", list(zip(ALL_MAPS, ALL_IDS)), ids=ALL_IDS)
    def test_differential_inequality(self, mapping, name):
        rows = differential_inequality_check(mapping, 0j, _test_radii(mapping, 10))
        assert all(row.ok for row in rows)
        if name in RADIAL:
            assert all(abs(row.ratio - 1.0) <= 1e-3 for row in rows)
            # S' is exact and S comes from one sweep, so equality is tight
            assert all(abs(row.ratio - 1.0) <= 1e-9 for row in rows)

    @pytest.mark.parametrize("mapping,name", list(zip(ALL_MAPS, ALL_IDS)), ids=ALL_IDS)
    def test_isoperimetric(self, mapping, name):
        for r in _test_radii(mapping, 3):
            rep = isoperimetric_check(mapping, 0j, float(r))
            assert rep.ok
            assert rep.slack >= -1e-6 * rep.length**2
            if name in RADIAL:
                assert rep.equality

    @pytest.mark.parametrize(
        "name,params",
        [
            ("identity", {}),
            ("spiral", {}),
            ("power", {"alpha": 2.0}),
            ("loglog", {"alpha": 2.0}),
        ],
    )
    def test_area_bound(self, name, params):
        mapping, K = catalog_pair(name, **params)
        lo = 1.0
        if mapping.seam_radii:
            lo = 1.05 * max(mapping.seam_radii)
        rep = area_bound_check(mapping, K, lo, 8.0 * lo)
        assert rep.ok


class TestTheorem1:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("identity", {}),
            ("spiral", {}),
            ("power", {"alpha": 0.5}),
            ("power", {"alpha": 2.0}),
            ("loglog", {"alpha": 1.0}),
        ],
    )
    def test_catalog_pairs_hold(self, name, params):
        mapping, K = catalog_pair(name, **params)
        r0 = 1.0
        report = theorem1_check(mapping, K, 0j, r0, RadiusLadder(r0, 2.0, 20))
        assert report.all_ok
        assert report.liminf_proxy >= report.m_inner * (1.0 - 1e-6)

    def test_power_is_equality_case(self):
        mapping, K = catalog_pair("power", alpha=2.0)
        report = theorem1_check(mapping, K, 0j, 1.0, RadiusLadder(1.0, 2.0, 20))
        for row in report.rows:
            assert row.v == pytest.approx(report.m_inner, rel=1e-8)

    def test_loglog_is_equality_case(self):
        # with r0 = 1 the attenuated modulus stays pinned at m(1) = e^{-e}
        mapping, K = catalog_pair("loglog", alpha=1.0)
        report = theorem1_check(mapping, K, 0j, 1.0, RadiusLadder(1.0, 2.0, 25))
        assert report.m_inner == pytest.approx(math.exp(-math.e), rel=1e-10)
        for row in report.rows:
            assert row.v == pytest.approx(report.m_inner, rel=1e-6)

    def test_ladder_below_r0_rejected(self):
        mapping, K = catalog_pair("identity")
        with pytest.raises(DomainError):
            theorem1_check(mapping, K, 0j, 2.0, RadiusLadder(1.0, 2.0, 5))

    def test_z0_off_the_coefficient_center_rejected(self):
        # M about 0.5 and kappa about 0 would pass every rung
        ladder = RadiusLadder(1.0, 2.0, 10)
        with pytest.raises(DomainError, match=r"z0 = \(0\.5\+0j\) is not .* center 0j"):
            theorem1_check(Power(2.0), PowerCoefficient(2.0), 0.5 + 0j, 1.0, ladder)
        with pytest.raises(DomainError, match=r"z0 = 0j is not .* center \(3-1j\)"):
            theorem1_check(Power(2.0), PowerCoefficient(2.0, 3 - 1j), 0j, 1.0, ladder)


#: pair-level functions measure about K.center; mapping-level ones about any z0
PAIR_LEVEL = ("disk_checks", "area_bound_check", "pde_residual", "real_system_residual")
MAPPING_LEVEL = (
    "modulus_extremes",
    "circle_length",
    "image_area",
    "circle_average_D",
    "isoperimetric_check",
    "differential_inequality_check",
)


@pytest.mark.parametrize("name", PAIR_LEVEL + MAPPING_LEVEL)
def test_only_mapping_level_functions_take_z0(name):
    params = inspect.signature(getattr(beltrami_growth, name)).parameters
    assert ("z0" in params) is (name in MAPPING_LEVEL)


class TestNonexistence:
    def test_bounded_data_flagged(self):
        # bounded observations against a constant-kappa envelope: v ~ 1/R
        observed = [(2.0**k, 1.0) for k in range(1, 12)]
        rep = nonexistence_diagnostic(observed, ConstantProfile(1.0), 1.0)
        assert rep.verdict == "inconsistent"
        assert "not a proof" in rep.note

    def test_matching_growth_consistent(self):
        observed = [(R, math.sqrt(R)) for R in (2.0**k for k in range(1, 12))]
        rep = nonexistence_diagnostic(observed, ConstantProfile(2.0), 1.0)
        assert rep.verdict == "consistent"

    def test_validation(self):
        with pytest.raises(DomainError):
            nonexistence_diagnostic([(2.0, 1.0)], ConstantProfile(1.0), 1.0)
        with pytest.raises(DomainError):
            nonexistence_diagnostic(
                [(4.0, 1.0), (2.0, 1.0)], ConstantProfile(1.0), 1.0
            )
