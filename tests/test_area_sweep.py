"""Disk areas from one radial sweep, checked against independent oracles.

The production area is a volume integral of J_f over the disk.  Green's
theorem gives the same area from the boundary circle alone,
S = 1/2 * int Im(conj(f - f(z0)) f_theta) dtheta, by a periodic trapezoid
rule; for these smooth maps it converges geometrically, so a fine circle is
an independent oracle for the volume integral.  Green's formula sees only
the boundary, so the interior-fold test below pins the disk-wide J > 0 scan
that it would miss.
"""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    AnnulusGrid,
    BeyondDoubleRange,
    CircleQuadrature,
    ConstantProfile,
    Mapping,
    NonPositiveJacobian,
    PolarDerivPair,
    Power,
    PowerCoefficient,
    RadialTable,
    angular_dilatation,
    area_bound_check,
    build_extremal,
    catalog_pair,
    circle_average_D,
    circle_length,
    differential_inequality_check,
    disk_checks,
    image_area,
    isoperimetric_check,
    jacobian_wirtinger,
    pde_residual,
    polar_to_wirtinger,
)
from beltrami_growth.complex_polar import require_jacobian_above
from beltrami_growth.dilatation import JACOBIAN_FLOOR
from beltrami_growth.growth import _disk_areas, _mean_jacobians
from beltrami_growth.mappings import RadialMapping
from beltrami_growth.verify import check_radii as verify_check_radii

from conftest import CATALOG_IDS, CATALOG_SPECS

EXTREMAL = build_extremal(ConstantProfile(2.0), 1.0, 1.0, 2.0**10)
MAPS = [catalog_pair(name, **params)[0] for name, params in CATALOG_SPECS]
MAPS.append(EXTREMAL.mapping())
IDS = CATALOG_IDS + ["extremal"]


def green_area(mapping, z0, r, n=4096):
    """Area enclosed by the image of |z - z0| = r, from the boundary alone."""
    theta = 2.0 * np.pi * np.arange(n) / n
    w = r * np.exp(1j * theta)
    wp = mapping.wirtinger_analytic(z0 + w)
    f_theta = 1j * (w * wp.d_z - np.conj(w) * wp.d_zbar)
    f = mapping.evaluate(z0 + w) - mapping.evaluate(z0)
    return math.pi * float(np.mean(np.imag(np.conj(f) * f_theta)))


def check_radii(mapping, count):
    lo, hi = 0.5, 50.0
    if mapping.seam_radii:
        lo = 1.01 * max(mapping.seam_radii)
        hi = min(100.0 * lo, mapping.radial_domain[1])
    return np.geomspace(lo, hi, count)


@dataclass(frozen=True)
class ModulatedPower(Mapping):
    """f = r^{1/alpha} (1 + eps cos(k theta)) e^{i theta}: rays go to rays and
    the modulus grows in r, so for |eps| < 1 it is a homeomorphism, but it is
    not radially symmetric and every inequality is strict."""

    alpha: float = 2.0
    eps: float = 0.3
    k: int = 3
    origin_singular = True

    def _modulus(self, z):
        return np.abs(z) ** (1.0 / self.alpha) * (1.0 + self.eps * np.cos(self.k * np.angle(z)))

    def _eval_array(self, z):
        out = np.zeros(z.shape, dtype=complex)
        mask = z != 0
        out[mask] = self._modulus(z[mask]) * z[mask] / np.abs(z[mask])
        return out

    def _wirtinger_array(self, z):
        r, theta = np.abs(z), np.angle(z)
        unit = z / r
        radial = r ** (1.0 / self.alpha)
        modulus = radial * (1.0 + self.eps * np.cos(self.k * theta))
        d_modulus = -radial * self.eps * self.k * np.sin(self.k * theta)
        pd = PolarDerivPair(modulus / (self.alpha * r) * unit, (d_modulus + 1j * modulus) * unit)
        return polar_to_wirtinger(z, 0j, pd)

    def area(self, r):
        return math.pi * r ** (2.0 / self.alpha) * (1.0 + 0.5 * self.eps**2)

    def rate_ratio(self):
        """S' r D / (2 S) = mean D / alpha = 1 + k^2 (1/sqrt(1 - eps^2) - 1)."""
        return 1.0 + self.k**2 * (1.0 / math.sqrt(1.0 - self.eps**2) - 1.0)


@dataclass(frozen=True)
class InteriorFold(Mapping):
    """f = rho(r) e^{i theta} with rho = r + 0.1 sin(20 r): J_f < 0 on
    0.105 < r < 0.209 (and two more bands inside the unit disk), J_f > 0 on
    |z| = 1, so only a scan of the whole disk sees the fold."""

    origin_singular = True

    def _eval_array(self, z):
        r = np.abs(z)
        out = np.zeros(z.shape, dtype=complex)
        mask = r > 0.0
        out[mask] = (1.0 + 0.1 * np.sin(20.0 * r[mask]) / r[mask]) * z[mask]
        return out

    def _wirtinger_array(self, z):
        r = np.abs(z)
        unit = z / r
        rho = r + 0.1 * np.sin(20.0 * r)
        d_rho = 1.0 + 2.0 * np.cos(20.0 * r)
        return polar_to_wirtinger(z, 0j, PolarDerivPair(d_rho * unit, 1j * rho * unit))


class TestGreenOracle:
    @pytest.mark.parametrize("mapping", MAPS, ids=IDS)
    def test_volume_area_matches_boundary_formula(self, mapping):
        for r in check_radii(mapping, 4):
            exact = green_area(mapping, 0j, float(r))
            assert abs(image_area(mapping, 0j, float(r)) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("mapping", MAPS, ids=IDS)
    def test_sweep_matches_per_radius_areas(self, mapping):
        radii = check_radii(mapping, 10)
        q = CircleQuadrature(256)
        swept = _disk_areas(mapping, 0j, radii, q)
        single = np.array([image_area(mapping, 0j, float(r), q) for r in radii])
        np.testing.assert_allclose(swept, single, rtol=1e-13, atol=0.0)

    def test_sweep_order_and_repeats(self):
        mapping = MAPS[1]
        radii = [4.0, 0.5, 4.0, 2.0]
        swept = _disk_areas(mapping, 0j, radii, CircleQuadrature())
        ordered = _disk_areas(mapping, 0j, sorted(set(radii)), CircleQuadrature())
        assert swept[0] == swept[2]
        np.testing.assert_array_equal(swept[[1, 3, 0]], ordered)

    def test_isoperimetric_array_shares_one_sweep(self):
        mapping = MAPS[1]
        radii = check_radii(mapping, 3)
        reports = isoperimetric_check(mapping, 0j, radii)
        assert isinstance(reports, tuple) and len(reports) == radii.size
        for r, rep in zip(radii, reports):
            single = isoperimetric_check(mapping, 0j, float(r))
            assert rep.length == single.length
            assert rep.area == pytest.approx(single.area, rel=1e-13)


class TestNonRadialPair:
    mapping = ModulatedPower()
    radii = np.geomspace(0.5, 50.0, 5)

    def test_area_closed_form_and_green(self):
        for r in self.radii:
            area = image_area(self.mapping, 0j, float(r))
            assert area == pytest.approx(self.mapping.area(r), rel=1e-13)
            assert area == pytest.approx(green_area(self.mapping, 0j, float(r)), rel=1e-14)

    def test_differential_inequality_strict(self):
        rows = differential_inequality_check(self.mapping, 0j, self.radii)
        expected = self.mapping.rate_ratio()
        assert expected == pytest.approx(1.4346, abs=1e-4)
        for row in rows:
            assert row.ok
            assert row.ratio == pytest.approx(expected, rel=1e-9)
            assert row.area_rate == pytest.approx(
                2.0 / (self.mapping.alpha * row.r) * self.mapping.area(row.r), rel=1e-12
            )

    def test_isoperimetric_strict(self):
        for rep, r in zip(isoperimetric_check(self.mapping, 0j, self.radii), self.radii):
            assert rep.ok and not rep.equality
            assert rep.slack / rep.length**2 == pytest.approx(0.252, abs=1e-3)
            # independent length: the inscribed polygon on a fine circle
            points = self.mapping.evaluate(r * np.exp(2j * np.pi * np.arange(2**16) / 2**16))
            polygon = float(np.sum(np.abs(np.diff(np.append(points, points[0])))))
            assert rep.length == pytest.approx(polygon, rel=1e-8)


class TestInteriorFold:
    mapping = InteriorFold()

    def test_jacobian_positive_on_boundary_circle(self):
        z = np.exp(1j * CircleQuadrature().angles())
        assert np.all(jacobian_wirtinger(self.mapping.wirtinger_analytic(z)) > 0.0)
        assert circle_length(self.mapping, 0j, 1.0) > 0.0

    def test_differential_inequality_raises(self):
        with pytest.raises(NonPositiveJacobian):
            differential_inequality_check(self.mapping, 0j, [1.0])

    def test_isoperimetric_raises(self):
        with pytest.raises(NonPositiveJacobian):
            isoperimetric_check(self.mapping, 0j, 1.0)

    def test_area_bound_raises(self):
        with pytest.raises(NonPositiveJacobian):
            area_bound_check(self.mapping, PowerCoefficient(1.0), 0.5, 1.0)


#: (mapping, coefficient, r0) of the pairs disk_checks is compared on; the
#: extremal table has a seam at r0, so its r0 is not a check radius
DISK_PAIRS = {
    "power": (*catalog_pair("power", alpha=2.0), 1.0),
    "loglog": (*catalog_pair("loglog", alpha=2.0), 1.0),
    "spiral": (*catalog_pair("spiral"), 0.5),
    "linear": (*catalog_pair("linear", **CATALOG_SPECS[1][1]), 0.5),
    "extremal": (EXTREMAL.mapping(), EXTREMAL.coefficient(), 1.0),
    "modulated": (ModulatedPower(), PowerCoefficient(2.0), 0.5),
}


class TestDiskChecks:
    """disk_checks takes every area from one sweep and every circle
    functional from one block of circle points; the three separate checks,
    each on a sweep of its own, are its oracle."""

    q = CircleQuadrature(256)

    @pytest.mark.parametrize("name", DISK_PAIRS)
    def test_matches_separate_checks(self, name):
        mapping, K, r0 = DISK_PAIRS[name]
        radii = verify_check_radii(mapping, r0, 100.0 * r0)
        rows, iso, area = disk_checks(mapping, K, r0, radii, self.q)
        rel = 1e-13
        ref_rows = differential_inequality_check(mapping, 0j, radii, self.q)
        for row, ref in zip(rows, ref_rows, strict=True):
            # bound = 2 S / (r D), so it carries the mean dilatation D
            for key in ("r", "area", "area_rate", "bound", "ratio"):
                assert getattr(row, key) == pytest.approx(getattr(ref, key), rel=rel, abs=0.0)
            assert row.ok == ref.ok
        ref_iso = isoperimetric_check(mapping, 0j, radii, self.q)
        for rep, ref in zip(iso, ref_iso, strict=True):
            assert rep.length == ref.length
            assert rep.area == pytest.approx(ref.area, rel=rel, abs=0.0)
            # the slack is a difference that vanishes at equality: its error
            # is measured on the scale of L^2
            assert abs(rep.slack - ref.slack) <= rel * ref.length**2
            assert (rep.ok, rep.equality) == (ref.ok, ref.equality)
        ref = area_bound_check(mapping, K, r0, float(radii[-1]), self.q)
        for key in ("area_inner", "area_outer", "integral", "rhs"):
            assert getattr(area, key) == pytest.approx(getattr(ref, key), rel=rel, abs=0.0)
        assert abs(area.slack - ref.slack) <= rel * ref.rhs
        assert (area.ok, area.equality) == (ref.ok, ref.equality)

    @pytest.mark.parametrize("mapping", MAPS + [ModulatedPower()], ids=IDS + ["modulated"])
    def test_circle_functionals_over_radii_are_bit_equal(self, mapping):
        radii = check_radii(mapping, 5)
        lengths = circle_length(mapping, 0j, radii, self.q)
        means = circle_average_D(mapping, 0j, radii, self.q)
        assert lengths.shape == means.shape == radii.shape
        for r, length, mean in zip(radii.tolist(), lengths.tolist(), means.tolist()):
            assert length == circle_length(mapping, 0j, r, self.q)
            assert mean == circle_average_D(mapping, 0j, r, self.q)


#: the guarded entry points on InteriorFold, each with the floor it keeps:
#: the disk sweep samples down to INNER_CUTOFF * r, so it rejects only J <= 0
FOLD_Q = CircleQuadrature(256)
GUARDED = {
    "disk_checks": (
        0.0,
        lambda f: disk_checks(f, PowerCoefficient(1.0), 0.5, [0.5, 1.0], FOLD_Q),
    ),
    "angular_dilatation": (
        JACOBIAN_FLOOR,
        lambda f: angular_dilatation(f, 0j, FOLD_Q.points(0j, np.array([[0.15], [1.0]]))),
    ),
    "circle_average_D": (JACOBIAN_FLOOR, lambda f: circle_average_D(f, 0j, 0.15, FOLD_Q)),
    "pde_residual": (
        JACOBIAN_FLOOR,
        lambda f: pde_residual(f, PowerCoefficient(1.0), AnnulusGrid(0.05, 1.0, 32, 64)),
    ),
}
GUARD_MESSAGE = re.compile(
    r"J_f = (?P<jac>\S+) <= floor (?P<floor>\S+) at r = (?P<r>\S+), theta = (?P<theta>\S+)"
)


class TestJacobianGuard:
    """One helper decides what a non-positive Jacobian is and how it is
    reported: the smallest sample, the floor and its (r, theta)."""

    @pytest.mark.parametrize("name", GUARDED)
    def test_fold_names_floor_and_worst_point(self, name):
        floor, call = GUARDED[name]
        with pytest.raises(NonPositiveJacobian) as info:
            call(InteriorFold())
        message = str(info.value)
        assert len(message) < 200
        found = GUARD_MESSAGE.fullmatch(message)
        assert found is not None, message
        assert float(found["floor"]) == floor
        jac, r, theta = (float(found[key]) for key in ("jac", "r", "theta"))
        assert jac <= floor and 0.0 <= theta < 2.0 * math.pi
        # the named point is where the named sample was taken
        z = r * np.exp(1j * theta)
        again = jacobian_wirtinger(InteriorFold().wirtinger_analytic(z))
        assert again == pytest.approx(jac, rel=1e-9, abs=1e-12)

    def test_two_floors_stay_distinct(self):
        # the sweep samples J = 2 |z|^2 = 2e-16 near 1e-8 * r and accepts it
        assert image_area(Power(0.5), 0j, 1.0) == pytest.approx(math.pi, rel=0.0, abs=1e-12)
        with pytest.raises(NonPositiveJacobian, match="floor 1e-14"):
            angular_dilatation(Power(0.5), 0j, 1e-8)

    def test_passes_samples_through_unchanged(self):
        jac = np.array([[1.0, np.nan], [2.0, np.inf]])
        assert require_jacobian_above(jac, 0.0, np.ones((2, 2)), 0j) is jac
        assert require_jacobian_above(0.5, JACOBIAN_FLOOR, 1j, 0j) == 0.5
        with pytest.raises(NonPositiveJacobian) as info:
            require_jacobian_above(np.array([np.nan, 0.0]), 0.0, np.array([1.0, 2 + 1j]), 1j)
        assert str(info.value) == "J_f = 0.0 <= floor 0.0 at r = 2.0, theta = 0.0"


def test_sweep_names_a_scalar_radius_by_its_shape():
    with pytest.raises(ValueError, match="1-d array, got shape"):
        differential_inequality_check(Power(2.0), 0j, 2.0)
    with pytest.raises(ValueError, match="must be positive"):
        _disk_areas(Power(2.0), 0j, [1.0, -1.0], FOLD_Q)


# ---------------------------------------------------------------------------
# radial Jacobians: one node per circle in the sweep


class Unflagged:
    """A mapping seen with no symmetry, so the sweep samples every node of
    each circle: the full-circle oracle of the one-node path."""

    symmetry = None
    symmetry_about = Mapping.symmetry_about

    def __init__(self, mapping):
        self._mapping = mapping

    def __getattr__(self, name):
        return getattr(self._mapping, name)


def seam_sides(mapping):
    """Radii on both sides of each seam (of 2.0 if there is none); shrunk
    by up to 20%, each stays on its side."""
    return sorted(f * s for s in mapping.seam_radii or (2.0,) for f in (0.15, 0.9, 1.3, 60.0))


#: every flagged catalog mapping (loglog on both sides of e^e, the extremal
#: table inside and outside its first knot) and a radial table about 5 + 0j
FLAGGED = {name: (mapping, seam_sides(mapping)) for name, mapping in zip(IDS, MAPS)}
TABLE_AT_5 = RadialTable(EXTREMAL.knots, EXTREMAL.rho, center=5 + 0j, linear_inner=True)
FLAGGED["table-at-5"] = (TABLE_AT_5, seam_sides(TABLE_AT_5))


def full_circle_jacobians(mapping, radii, q):
    """The mean of J_f over all n nodes of each circle about the center."""
    z = q.points(mapping.center, np.asarray(radii)[:, None])
    return q.mean(jacobian_wirtinger(mapping.wirtinger_analytic(z)))


class TestRadialJacobian:
    """A mapping with a symmetry gives the sweep one node per circle."""

    def test_flagged_classes(self):
        # a new mapping class must opt in here, not silently
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        flagged = {
            cls.__name__: cls.symmetry
            for cls in subclasses(Mapping)
            if cls.__module__.startswith("beltrami_growth") and cls.symmetry
        }
        assert flagged == {
            "RadialMapping": "equivariant",
            "Power": "equivariant",
            "LogLog": "equivariant",
            "RadialTable": "equivariant",
            "Identity": "equivariant",
            "Linear": "radial_jacobian",
            "Spiral": "equivariant",
        }
        assert ModulatedPower.symmetry is None and InteriorFold.symmetry is None

    @given(
        st.sampled_from([(name, r) for name, (_, radii) in FLAGGED.items() for r in radii]),
        st.floats(0.8, 1.0),
        st.sampled_from([64, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_jacobian_constant_on_circles(self, case, shrink, n):
        # the symmetry is honest.  J = |f_z|^2 - |f_zbar|^2 is a difference, so
        # its rounding is measured on the scale of |f_z|^2: on loglog far out
        # the two terms agree to within a few percent
        name, r = case
        mapping = FLAGGED[name][0]
        z = CircleQuadrature(n).points(mapping.center, shrink * r)
        wp = mapping.wirtinger_analytic(z)
        assert np.ptp(jacobian_wirtinger(wp)) <= 1e-14 * np.max(np.abs(wp.d_z) ** 2)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("name", FLAGGED)
    def test_mean_jacobians_equal_full_circle_mean(self, name, n):
        mapping, radii = FLAGGED[name]
        q, radii = CircleQuadrature(n), np.array(radii)
        np.testing.assert_allclose(
            _mean_jacobians(mapping, mapping.center, radii, q),
            full_circle_jacobians(mapping, radii, q),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("name", FLAGGED)
    def test_sweep_equals_full_circle_sweep(self, name, n):
        mapping, radii = FLAGGED[name]
        q = CircleQuadrature(n)
        np.testing.assert_allclose(
            _disk_areas(mapping, mapping.center, radii, q),
            _disk_areas(Unflagged(mapping), mapping.center, radii, q),
            rtol=1e-14,
        )

    @pytest.mark.parametrize(
        "mapping, z0",
        [(Power(2.0), 0.5 + 0j), (MAPS[1], 1j), (TABLE_AT_5, 0j)],
        ids=["power", "linear", "table"],
    )
    def test_off_center_disk_samples_every_node(self, mapping, z0):
        # about any point but the center, J is not constant on the circles
        q = CircleQuadrature(256)
        for r in (0.5, 2.0):
            assert image_area(mapping, z0, r, q) == float(
                _disk_areas(Unflagged(mapping), z0, [r], q)[0]
            )


class FoldedRadial(RadialMapping):
    """rho = r + 0.1 sin(20 r): rho' < 0 and so J_f = rho rho'/r < 0 where
    cos(20 r) < -1/2, on the bands of FOLD_BANDS inside the unit disk."""

    origin_singular = True

    def _rho_of_r(self, r):
        return r + 0.1 * np.sin(20.0 * r)

    def _drho_of_r(self, r, rho_r):
        return 1.0 + 2.0 * np.cos(20.0 * r)


FOLD_BANDS = [((6 * k + 2) * math.pi / 60.0, (6 * k + 4) * math.pi / 60.0) for k in range(3)]


class NanBandRadial(RadialMapping):
    """The identity, with rho NaN on 0.3 < r < 0.4."""

    def _rho_of_r(self, r):
        return np.where((r > 0.3) & (r < 0.4), math.nan, r)

    def _drho_of_r(self, r, rho_r):
        return np.ones(r.shape)


class TestOneNodeGuards:
    """The one node per circle still goes through the J > 0 guard and the
    non-finite check of the circle mean."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: image_area(f, 0j, 1.0, FOLD_Q),
            lambda f: disk_checks(f, PowerCoefficient(1.0), 0.5, [0.5, 1.0], FOLD_Q),
        ],
        ids=["image_area", "disk_checks"],
    )
    def test_fold_names_a_radius_in_a_band(self, call):
        with pytest.raises(NonPositiveJacobian) as info:
            call(FoldedRadial())
        found = GUARD_MESSAGE.fullmatch(str(info.value))
        assert found is not None, str(info.value)
        r = float(found["r"])
        assert float(found["jac"]) <= 0.0 and float(found["theta"]) == 0.0
        assert any(lo < r < hi for lo, hi in FOLD_BANDS), r

    @pytest.mark.parametrize("wrap", [lambda f: f, Unflagged], ids=["one-node", "full-circle"])
    def test_nan_band_is_refused(self, wrap):
        # a NaN rho makes f_theta NaN, and the derivative pair refuses it
        # before any J is formed, on either path, with a short message that
        # names the field, the count and the first bad sample
        with pytest.raises(BeyondDoubleRange) as info:
            image_area(wrap(NanBandRadial()), 0j, 1.0, FOLD_Q)
        message = str(info.value)
        pattern = r"d_theta = \S+ is beyond double precision \([1-9]\d* of [1-9]\d* samples\)"
        assert re.fullmatch(pattern, message)
        assert len(message) < 200


#: the certify pair kinds, each with the radii verify checks
CERTIFY_KINDS = ("power", "loglog", "spiral", "linear", "extremal")


class TestSweepPointCount:
    """One disk_checks call on a flagged pair evaluates at most a tenth of
    the derivative points of its full-circle sweep: a lost shortcut shows
    here as a count, without timing noise."""

    @staticmethod
    def counted(mapping, monkeypatch):
        """The number of points of every wirtinger_analytic call on the
        mapping's class from now on, one entry per call."""
        points = []
        inner = type(mapping).wirtinger_analytic

        def counting(self, z):
            points.append(np.size(z))
            return inner(self, z)

        monkeypatch.setattr(type(mapping), "wirtinger_analytic", counting)
        return points

    @pytest.mark.parametrize("name", CERTIFY_KINDS)
    def test_at_most_a_tenth_of_the_full_circle_points(self, name, monkeypatch):
        mapping, K, r0 = DISK_PAIRS[name]
        radii = verify_check_radii(mapping, r0, 100.0 * r0)
        points = self.counted(mapping, monkeypatch)
        q = CircleQuadrature(256)
        disk_checks(mapping, K, r0, radii, q)
        flagged = sum(points)
        points.clear()
        disk_checks(Unflagged(mapping), K, r0, radii, q)
        assert 0 < flagged <= sum(points) / 10

    @pytest.mark.parametrize("name", CERTIFY_KINDS)
    def test_one_derivative_call_per_functional(self, name, monkeypatch):
        # the sweep (every segment and the tail), S', the mean dilatation and
        # the length read the derivatives in one call each
        mapping, K, r0 = DISK_PAIRS[name]
        radii = verify_check_radii(mapping, r0, 100.0 * r0)
        points = self.counted(mapping, monkeypatch)
        disk_checks(mapping, K, r0, radii, CircleQuadrature(256))
        assert len(points) == 4
