"""Envelope integrals, circle functionals, and the growth inequality checks."""

import cmath
import inspect
import math

import mpmath
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
from beltrami_growth.errors import BeyondDoubleRange, QuadratureFailure
from beltrami_growth.dilatation import E_2, E_3, KappaProfile
from beltrami_growth.growth import _disk_areas, _mean_jacobians
from beltrami_growth.mappings import Mapping


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


GAUSS_TABLES = [
    pytest.param(12, "_GL12", "_W12", id="n12"),
    pytest.param(6, "_GL6", "_W6", id="n6"),
    pytest.param(8, "_GAUSS_NODES", "_GAUSS_WEIGHTS", id="n8"),
]


class TestGaussLegendreTables:
    """The Gauss-Legendre rules are literal tables, held against numpy's
    ``leggauss`` bit for bit and against the moments they must integrate."""

    @pytest.mark.parametrize("n, nodes, weights", GAUSS_TABLES)
    def test_bit_equal_to_leggauss(self, n, nodes, weights):
        x, w = getattr(growth, nodes), getattr(growth, weights)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert x.dtype == w.dtype == np.float64
        assert np.array_equal(x.view(np.uint64), ref_x.view(np.uint64))
        assert np.array_equal(w.view(np.uint64), ref_w.view(np.uint64))

    @pytest.mark.parametrize("n, nodes, weights", GAUSS_TABLES)
    def test_exact_to_degree_2n_minus_1(self, n, nodes, weights):
        # int_{-1}^{1} x^k dx is 2/(k+1) for even k and 0 for odd k
        x, w = getattr(growth, nodes), getattr(growth, weights)
        exact = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(2 * n + 1)]
        errors = [abs(float(np.sum(w * x**k)) - exact[k]) for k in range(2 * n + 1)]
        assert max(errors[: 2 * n]) < 4e-15
        # an n-point rule is not exact at degree 2n, so a mistyped digit
        # cannot pass as a symmetric rule of some other order
        assert errors[2 * n] > 1e-8

    def test_panel_nodes_are_the_12_then_the_6_point_rule(self):
        both = np.concatenate([growth._GL12, growth._GL6])
        assert np.array_equal(growth._PANEL_NODES, both)


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

    def test_overflowing_envelope_names_its_radius(self):
        # I = ln 2 / 1e-300 is finite; exp(I) is not
        with pytest.raises(DomainError, match=r"overflows double precision at R = 2\.0, I = 6\.9"):
            envelope_integral(ConstantProfile(1e-300), 1.0, 2.0)


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

    @pytest.mark.parametrize("rule", ["one", "ladder", "sweep"])
    def test_panel_edges_are_linspace(self, rule):
        # segments 1e-3 to 18.4 wide in t = ln r, cut into one panel each, by
        # ladder_integrals' rule and by _disk_areas' rule: every edge is
        # np.linspace's, bit for bit, and each segment's last edge its stop
        widths = [1e-3, 0.7, 1.0, 3.2, 18.4]
        t = math.log(0.37) + np.cumsum([0.0] + widths)
        span = -math.log(growth.INNER_CUTOFF)
        count = {
            "one": np.ones(len(widths), dtype=int),
            "ladder": np.maximum(1, np.ceil(np.diff(t))).astype(int),
            "sweep": np.maximum(2, np.round(growth.RADIAL_STEPS * np.diff(t) / span)).astype(int),
        }[rule]
        a, b = growth._panel_edges(t, count)
        bounds = [np.linspace(s, e, k + 1) for s, e, k in zip(t, t[1:], count.tolist())]
        assert a.tobytes() == np.concatenate([x[:-1] for x in bounds]).tobytes()
        assert b.tobytes() == np.concatenate([x[1:] for x in bounds]).tobytes()
        assert b[np.cumsum(count) - 1].tobytes() == t[1:].tobytes()

    @pytest.mark.parametrize("alpha", [1e-310, 1e-308], ids=["inf-samples", "sum-overflows"])
    def test_overflowing_panel_names_its_gap(self, alpha):
        # 1/kappa, or its panel sum, leaves the double range; no numpy
        # warning escapes first, which this suite would turn into an error
        message = r"^attenuation integral panel = inf at gap 1, \[1\.0, 2\.0\] is beyond"
        with pytest.raises(BeyondDoubleRange, match=message):
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

    @pytest.mark.parametrize(
        "mapping, ladder",
        [
            (Power(2.3), RadiusLadder(0.7, 2.0, 40)),
            (LogLog(2.0), RadiusLadder(20.0, 2.0, 30)),
            (Power(1.0), RadiusLadder(E_2, 1.5, 3)),
        ],
        ids=["power", "loglog", "power-from-e2"],
    )
    def test_modulus_extremes_is_rho_bit_for_bit(self, mapping, ladder):
        # a radial map reads M = m at the theta = 0 node, where w / r is
        # exactly 1, so both are rho(r) itself; (rho w) / r, or a complex
        # w / r that multiplies by a rounded 1 / r, missed it by an ulp
        radii = ladder.radii()
        m_max, m_min = modulus_extremes(mapping, 0j, radii, CircleQuadrature(256))
        rho = mapping._rho_of_r(radii)
        assert m_max.tolist() == rho.tolist()
        assert m_min.tolist() == rho.tolist()

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


class Doubled(Linear):
    """2 (A conj(z) + B z + C): a Linear subclass that changes _eval_array,
    so A and B no longer give its extremes."""

    def _eval_array(self, z):
        return 2.0 * super()._eval_array(z)


class Scanned(Linear):
    """A Linear map by another name: not exactly Linear, so scanned."""


class TestLinearClosedForm:
    """A Linear map's M and m come from |A| and |B|, with no point evaluated."""

    MAPS = [Linear(0.3 + 0.1j, 1.2 - 0.4j, 0.5j), Linear(2.0 - 1.0j, 0.5 + 0.2j, -1.0 + 2.0j)]
    RADII = np.array([0.5, 2.5, 40.0])

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("z0", [0j, 0.3 + 0.2j], ids=["center", "off-center"])
    @pytest.mark.parametrize("mapping", MAPS, ids=["orientation-preserving", "reversing"])
    def test_scan_oracle(self, mapping, z0, n):
        # a map that is not exactly a Linear is scanned and refined; measured
        # worst relative gap 4.2e-16 over these maps, points and n
        q = CircleQuadrature(n)
        view = Scanned(mapping.a, mapping.b, mapping.c)
        closed = modulus_extremes(mapping, z0, self.RADII, q)
        scanned = modulus_extremes(view, z0, self.RADII, q)
        for a, b in zip(closed, scanned):
            np.testing.assert_allclose(a, b, rtol=1e-14)
        for r in self.RADII.tolist():
            hi, lo = modulus_extremes(mapping, z0, r, q)
            assert type(hi) is float and type(lo) is float
            assert (hi, lo) == pytest.approx(modulus_extremes(view, z0, r, q), rel=1e-14)

    def test_mpmath_oracle(self):
        # M = (|A| + |B|) r and m = ||B| - |A|| r round |A|, |B|, the sum or
        # difference and the product; over these 4000 draws the worst error
        # measured 1.86 ulp(M) for M and 1.50 ulp(M) for m (2000 ulp(m) of m
        # itself, where |A| is near |B| and the difference cancels)
        rng = np.random.default_rng(2024)
        radii = 10.0 ** rng.uniform(-3.0, 3.0, 8)
        with mpmath.workdps(40):
            for a_re, a_im, b_re, b_im in rng.uniform(-2.0, 2.0, (500, 4)).tolist():
                a, b = complex(a_re, a_im), complex(b_re, b_im)
                hi, lo = modulus_extremes(Linear(a, b), 0j, radii)
                size_a, size_b = mpmath.hypot(a_re, a_im), mpmath.hypot(b_re, b_im)
                for r, M, m in zip(radii.tolist(), hi.tolist(), lo.tolist()):
                    budget = 2.0 * math.ulp(M)
                    assert abs(M - (size_a + size_b) * r) <= budget
                    assert abs(m - abs(size_b - size_a) * r) <= budget

    def test_evaluates_no_point(self):
        mapping, seen = self.MAPS[0], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Mapping, "evaluate", lambda self, z: seen.append(z))
            closed = modulus_extremes(mapping, 5.0 + 3.0j, self.RADII)
        assert seen == []
        # C and z0 cancel: the extremes are the same about every point
        for a, b in zip(closed, modulus_extremes(mapping, 0j, self.RADII)):
            assert np.array_equal(a, b)

    def test_subclass_is_scanned(self):
        # the branch is taken on the exact type: an inherited shortcut would
        # give the extremes of the undoubled map
        mapping = Doubled(0.3 + 0.1j, 1.2 - 0.4j, 0.5j)
        size_a, size_b = abs(mapping.a), abs(mapping.b)
        for z0 in (0j, 0.3 + 0.2j):
            hi, lo = modulus_extremes(mapping, z0, self.RADII)
            np.testing.assert_allclose(hi, 2.0 * (size_a + size_b) * self.RADII, rtol=1e-14)
            np.testing.assert_allclose(lo, 2.0 * (size_b - size_a) * self.RADII, rtol=1e-14)

    def test_overflow_is_quadrature_failure(self):
        # (|A| + |B|) r = 3e308 overflows, as the scan's samples do
        mapping = Linear(1.0, 2.0)
        for r in (1e308, np.array([1.0, 1e308])):
            message = r"^max \|f\(z\) - f\(z0\)\| = inf at r = 1e\+308 about 0j is beyond"
            with pytest.raises(BeyondDoubleRange, match=message):
                modulus_extremes(mapping, 0j, r)

    def test_scan_refuses_a_non_finite_node(self):
        # Im f = 1.9e308 sin(theta) r overflows on the circle r = 1 near
        # theta = pi/2 and 3 pi/2, nodes among them, but not at theta = 0,
        # the node every circle's probes are refused at; the circle r = 0.5
        # is finite
        mapping = Scanned(-1e308, 0.9e308)
        message = r"^node sample \|f\(z\) - f\(z0\)\| = inf at r = 1\.0 about 0j is beyond"
        with np.errstate(over="ignore"), pytest.raises(BeyondDoubleRange, match=message):
            modulus_extremes(mapping, 0j, np.array([0.5, 1.0]), CircleQuadrature(8))

    def test_refinement_refuses_a_non_finite_sample(self):
        # |f| = |A e^{-i theta} + B e^{i theta}| r peaks at (|A| + |B|) r =
        # 1.89e308 at theta = pi/8, halfway between two of the 8 nodes, where
        # it is at most 1.75e308: every node is finite, the peak is not
        mapping = Scanned(0.95e308 * cmath.exp(0.25j * math.pi), 0.94e308)
        q = CircleQuadrature(8)
        with np.errstate(over="ignore"):
            nodes = np.abs(mapping.evaluate(q.points(0j, 1.0)))
        assert np.all(np.isfinite(nodes)) and np.max(nodes) < 1.75e308
        message = (
            r"^refined sample \+-\|f\(z\) - f\(z0\)\| = inf at r = 1\.0 about 0j "
            r"is beyond double precision \(1 of 4 samples\)$"
        )
        with np.errstate(over="ignore"), pytest.raises(BeyondDoubleRange, match=message):
            modulus_extremes(mapping, 0j, np.array([0.5, 1.0]), q)

    def test_argument_errors_come_first(self):
        mapping = Linear(1.0, 2.0)
        with pytest.raises(ValueError, match="radius must be positive"):
            modulus_extremes(mapping, 0j, np.array([1e308, -1.0]))
        with pytest.raises(ValueError, match=r"non-empty 1-d array, got shape \(2, 2\)"):
            modulus_extremes(mapping, 0j, np.ones((2, 2)))


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
