"""Growth functionals and the differential/integral inequalities they satisfy.

The attenuation integral I = int dr/(r kappa) of a kappa profile (the
profiles live in dilatation) with its envelope exp(I), modulus extremes M/m
on circles, curve length, image area, and the checks that tie them
together: the isoperimetric inequality, the differential inequality
S' >= 2S/(r d_f), the area bound, the growth ladder, and the non-existence
diagnostic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complex_polar import TWO_PI, jacobian_wirtinger, require_jacobian_above, wirtinger_to_polar
# ConstantProfile and LogProductProfile are bound here for bench/tracing.py
from .dilatation import (
    CircleQuadrature,
    CoefficientField,
    ConstantProfile,
    FieldProfile,
    KappaProfile,
    LogProductProfile,
    circle_average_D,
)
from .errors import DomainError, NonPositiveKappa, QuadratureFailure
from .mappings import Linear, Mapping, require_radii_within

# ---------------------------------------------------------------------------
# ladders and exponents


@dataclass(frozen=True)
class RadiusLadder:
    """Geometric radius ladder r0 * factor^k, k = 0..count."""

    r0: float
    factor: float = 2.0
    count: int = 40

    def __post_init__(self):
        if not (self.r0 > 0.0 and math.isfinite(self.r0)):
            raise DomainError(f"ladder base must be positive, got {self.r0}")
        if not (self.factor > 1.0 and math.isfinite(self.factor)):
            raise DomainError(f"ladder factor must exceed 1, got {self.factor}")
        if self.count < 1:
            raise DomainError(f"ladder needs at least one step, got {self.count}")
        # check the top rung in log space, and factor**count, which radii()
        # forms before the product with r0
        if math.log(self.r0) + self.count * math.log(self.factor) > math.log(
            sys.float_info.max
        ):
            raise DomainError("ladder top overflows double precision")
        if self.count * math.log(self.factor) > math.log(sys.float_info.max):
            raise DomainError(
                f"ladder factor^count = {self.factor}^{self.count} overflows double precision"
            )

    def radii(self) -> np.ndarray:
        return self.r0 * self.factor ** np.arange(self.count + 1, dtype=float)

    @classmethod
    def reaching(cls, r0: float, top: float, factor: float = 2.0) -> "RadiusLadder":
        """Smallest ladder from r0 whose last rung is at or above ``top``."""
        count = max(1, math.ceil(math.log(top / r0) / math.log(factor)))
        return cls(r0, factor, count)


@dataclass(frozen=True)
class KappaBound:
    """Hypothesis kappa <= alpha; growth exponent 1/alpha."""

    alpha: float


@dataclass(frozen=True)
class CoefficientBound:
    """Hypothesis |K| <= alpha; growth exponent 1/alpha^2."""

    alpha: float


def corollary_exponent(bound) -> float:
    if not isinstance(bound, (KappaBound, CoefficientBound)):
        raise TypeError(f"unknown bound type {type(bound)!r}")
    if not bound.alpha > 0.0:
        raise ValueError("alpha must be positive")
    return 1.0 / (bound.alpha if isinstance(bound, KappaBound) else bound.alpha * bound.alpha)


# ---------------------------------------------------------------------------
# the attenuation integral and its envelope

ENVELOPE_ABS_TOL = 1e-11
#: Gauss-Legendre nodes on [-1, 1]: the 12-point rule, then the 6-point rule
#: whose difference from it is each panel's error estimate
_GL12, _W12 = np.polynomial.legendre.leggauss(12)
_GL6, _W6 = np.polynomial.legendre.leggauss(6)
_PANEL_NODES = np.concatenate([_GL12, _GL6])
#: panel halvings the attenuation integral over one gap may make before it
#: gives up
MAX_BISECTIONS = 2000


def _panel_rules(profile: KappaProfile, a: np.ndarray, b: np.ndarray):
    """12- and 6-point Gauss-Legendre values of int 1/kappa(e^t) dt over
    each panel [a_i, b_i], from one profile call."""
    half = 0.5 * (b - a)
    t = 0.5 * (b + a)[:, None] + half[:, None] * _PANEL_NODES[None, :]
    r = np.exp(t)
    kappa = np.asarray(profile(r), dtype=float)
    bad = ~(kappa > 0.0) | ~np.isfinite(kappa)
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NonPositiveKappa(f"kappa sample {kappa[i]} at r = {r[i]}")
    with np.errstate(over="ignore"):  # ladder_integrals refuses an overflow
        g = 1.0 / kappa
        fine = half * np.sum(g[:, :12] * _W12, axis=1)
        coarse = half * np.sum(g[:, 12:] * _W6, axis=1)
    return fine, coarse


def _panel_edges(t: np.ndarray, count: np.ndarray):
    """Edges (a, b) of the count_k equal panels of each segment [t_k, t_{k+1}],
    bit for bit np.linspace's: start + i * step, each last edge its stop."""
    start, step = np.repeat(t[:-1], count), np.repeat(np.diff(t) / count, count)
    i = np.arange(start.size) - np.repeat(np.cumsum(count) - count, count)
    a, b = start + i * step, start + (i + 1) * step
    b[np.cumsum(count) - 1] = t[1:]
    return a, b


def _envelope(R: float, I: float) -> float:
    """exp(I) at the rung R; an exp(I) past double precision raises
    DomainError naming R and I."""
    try:
        return math.exp(I)
    except OverflowError:
        raise DomainError(
            f"envelope exp(I) overflows double precision at R = {R!r}, I = {I!r}"
        ) from None


def envelope_integral(profile: KappaProfile, r0: float, R: float):
    """I = int_{r0}^{R} dr/(r kappa(r)) and its envelope exp(I).

    The one-gap case of :func:`ladder_integrals`, which holds the
    quadrature; R = r0 gives (0.0, 1.0).  An exp(I) past double precision
    raises DomainError.
    """
    if R < r0:
        raise DomainError(f"need R >= r0, got r0 = {r0}, R = {R}")
    total = float(ladder_integrals(profile, r0, [R])[0])
    return total, _envelope(R, total)


def ladder_integrals(profile: KappaProfile, r0: float, radii) -> np.ndarray:
    """I over each gap [r0, R_1], [R_1, R_2], ... of a radius ladder.

    The rungs must ascend strictly from a first rung at or above r0; a first
    rung equal to r0 gives an exact 0.0 gap.  ``np.cumsum`` of the result is
    I(r0, R_k) at every rung.

    Integrates in t = ln r (the natural variable of every catalog profile)
    by composite 12-point Gauss-Legendre panels, at most 1 wide and split at
    the profile's breakpoints.  The panels of every gap are refined together:
    a panel whose 6-point value differs from its 12-point value by more than
    ENVELOPE_ABS_TOL is bisected, and a gap that needs more than
    MAX_BISECTIONS bisections raises QuadratureFailure.  Each gap is the
    math.fsum of its accepted panels, which is exactly rounded, so it does
    not depend on the order in which panels are accepted.  Every sample of
    kappa must be positive and finite, and every panel's 12- and 6-point
    values finite, which a subnormal kappa breaks: 1/kappa overflows.
    """
    rungs = [float(R) for R in radii]
    if (rungs and rungs[0] < r0) or any(b <= a for a, b in zip(rungs, rungs[1:])):
        raise DomainError(f"ladder rungs must ascend strictly from r0 = {r0} or above")
    if not rungs:
        return np.zeros(0)
    edges = require_radii_within(np.array([r0] + rungs), profile.domain, "the profile's")
    edges = edges.tolist()
    # every gap's panels, at most 1 wide in t = ln r, tagged with their gap
    stops = sorted(set(edges) | {c for c in profile.breakpoints if edges[0] < c < edges[-1]})
    t = np.array([math.log(c) for c in stops])
    count = np.maximum(1, np.ceil(np.diff(t))).astype(int)
    a, b = _panel_edges(t, count)
    gap = np.repeat(np.searchsorted(edges, stops[:-1], side="right") - 1, count)

    def failure(k, why):
        span = f"gap {k}, [{edges[k]}, {edges[k + 1]}]"
        return QuadratureFailure(f"attenuation integral over {span}, {why}")

    done_gap, done_value = [np.zeros(0, dtype=int)], [np.zeros(0)]
    bisections = np.zeros(len(rungs), dtype=int)
    while gap.size:
        fine, coarse = _panel_rules(profile, a, b)
        finite = np.isfinite(fine) & np.isfinite(coarse)
        if not np.all(finite):
            raise failure(int(gap[np.argmin(finite)]), "is not finite: 1/kappa overflows")
        retry = np.abs(fine - coarse) > ENVELOPE_ABS_TOL
        done_gap.append(gap[~retry])
        done_value.append(fine[~retry])
        bisections += np.bincount(gap[retry], minlength=bisections.size)
        if np.any(bisections > MAX_BISECTIONS):
            k = int(np.argmax(bisections > MAX_BISECTIONS))
            raise failure(k, f"missed {ENVELOPE_ABS_TOL} after {MAX_BISECTIONS} panel bisections")
        a, b, gap = a[retry], b[retry], gap[retry]
        mid = 0.5 * (a + b)
        a, b, gap = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([gap, gap])
    # each gap's accepted panels, gathered by one sort and summed exactly
    done_gap, done_value = np.concatenate(done_gap), np.concatenate(done_value)
    values = done_value[np.argsort(done_gap)].tolist()
    ends = np.cumsum(np.bincount(done_gap, minlength=len(rungs))).tolist()
    return np.array([math.fsum(values[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)])


# ---------------------------------------------------------------------------
# circle functionals


#: final width of the golden-section bracket around each extremal angle
MODULUS_ANGLE_TOL = 1e-11
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def modulus_extremes(mapping: Mapping, z0: complex, r, q: CircleQuadrature = CircleQuadrature()):
    """(max, min) of |f(z) - f(z0)| over the circle |z - z0| = r.

    A scalar r gives two floats; a 1-d array of radii gives two arrays.  A
    Linear map, exactly that class, takes the closed form: about every z0,
    |f(z) - f(z0)| = |A conj(w) + B w| with |w| = r spans
    [||B| - |A|| r, (|A| + |B|) r], and no point is evaluated.  About the
    center of a map whose symmetry is "equivariant" (see
    Mapping.symmetry_about) |f(z) - f(z0)| is the same all round each
    circle, and max = min is read at the theta = 0 node z0 + r alone.  Any
    other map is scanned on the quadrature angles, then refined by
    golden-section search within 2*pi/n of the best grid angle, down to a
    bracket below MODULUS_ANGLE_TOL in theta, every radius and both
    extremes at once.  A non-finite extreme raises QuadratureFailure.
    """
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1 or radii.size == 0:
        raise ValueError(
            f"radius must be a scalar or a non-empty 1-d array, got shape {radii.shape}"
        )
    rr = np.atleast_1d(radii)
    if not np.all(rr > 0.0):
        raise ValueError(f"radius must be positive, got {r}")
    if type(mapping) is Linear:  # a subclass may change _eval_array
        a, b = abs(mapping.a), abs(mapping.b)
        with np.errstate(over="ignore"):  # an overflow is refused below
            m_max, m_min = (a + b) * rr, abs(b - a) * rr
        if not np.all(np.isfinite(m_max)):
            raise QuadratureFailure("non-finite modulus sample on the circle")
        return (float(m_max[0]), float(m_min[0])) if radii.ndim == 0 else (m_max, m_min)
    z0c = complex(z0)
    f0 = mapping.evaluate(z0c)
    theta = q.angles()

    def distance(z):
        return np.abs(mapping.evaluate(z) - f0)

    if mapping.symmetry_about(z0c) == "equivariant":
        values = q.circle_means(distance, z0c, r, "radius")
        return (values, values) if radii.ndim == 0 else (values, values.copy())
    values = q.blockwise(lambda block: distance(q.points(z0c, block[:, None])), rr)
    if not np.all(np.isfinite(values)):
        raise QuadratureFailure("non-finite modulus sample on the circle")
    # golden-section search for the maximum of +|f - f0| about the best grid
    # maximum and of -|f - f0| about the best grid minimum, one bracket per
    # (radius, extreme); every bracket starts 2 * step wide and shrinks by
    # _GOLDEN per iteration
    k = rr.size
    rho = np.concatenate([rr, rr])
    sign = np.repeat([1.0, -1.0], k)

    def objective(t):
        return sign * distance(z0c + rho * np.exp(1j * t))

    step = TWO_PI / q.n
    start = theta[np.concatenate([np.argmax(values, axis=1), np.argmin(values, axis=1)])]
    lo, hi = start - step, start + step
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    best = np.maximum(f1, f2)
    iterations = math.ceil(math.log(MODULUS_ANGLE_TOL / (2.0 * step)) / math.log(_GOLDEN))
    for _ in range(iterations):
        left = f1 >= f2  # the maximum lies in [lo, x2]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        t = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        ft = objective(t)
        # the kept interior point and the new one, in ascending order
        x1, x2 = np.where(left, t, x2), np.where(left, x1, t)
        f1, f2 = np.where(left, ft, f2), np.where(left, f1, ft)
        best = np.maximum(best, ft)
    if not np.all(np.isfinite(best)):
        raise QuadratureFailure("non-finite modulus sample on the circle")
    m_max = np.maximum(np.max(values, axis=1), best[:k])
    m_min = np.minimum(np.min(values, axis=1), -best[k:])
    if radii.ndim == 0:
        return float(m_max[0]), float(m_min[0])
    return m_max, m_min


def circle_length(mapping: Mapping, z0: complex, r, q: CircleQuadrature = CircleQuadrature()):
    """Length of the image curve: int |f_theta| d(theta) by periodic trapezoid.

    A 1-d array of radii gives one length per radius (CircleQuadrature.circle_means).
    About the center of a map whose symmetry is "equivariant" |f_theta| is
    the same all round each circle, and one node per circle is read.
    """

    def speed(z):
        return np.abs(wirtinger_to_polar(z, z0, mapping.wirtinger_analytic(z)).d_theta)

    symmetry = "radius" if mapping.symmetry_about(z0) == "equivariant" else None
    return TWO_PI * q.circle_means(speed, z0, r, symmetry)


def _mean_jacobians(mapping: Mapping, z0: complex, r, q: CircleQuadrature):
    """Angular mean of J_f on each circle |z - z0| = r.

    When the mapping has any symmetry about z0 (Mapping.symmetry_about), J_f
    is constant on each circle, and one node per circle is read
    (CircleQuadrature.circle_means); that node still goes through the J > 0
    guard and the non-finite check of the mean.
    """

    def jacobian(z):
        # J may decay to zero toward the center (e.g. |z|^{1/a-1} z with
        # a < 1); only a genuinely non-positive sample is an error here
        jac = jacobian_wirtinger(mapping.wirtinger_analytic(z))
        return require_jacobian_above(jac, 0.0, z, z0)

    symmetry = "radius" if mapping.symmetry_about(z0) else None
    return q.circle_means(jacobian, z0, r, symmetry)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
#: panel count over ln(1/INNER_CUTOFF), and the relative radius below which
#: the area integral is replaced by a power-law tail
RADIAL_STEPS = 48
INNER_CUTOFF = 1e-8


def _disk_areas(mapping: Mapping, z0: complex, radii, q: CircleQuadrature) -> np.ndarray:
    """Areas of f(B(z0, r)) for every r in ``radii`` from one radial sweep.

    Composite 8-point Gauss panels in u = ln(rho) run from
    rho_min = INNER_CUTOFF * min(radii) to max(radii), with panel edges at the
    mapping's seam radii and at every requested radius; the cumulative sum of
    the segments' panel sums gives the area at each radius.  The disk below
    rho_min is accounted for by a local power-law extrapolation of the
    angular mean of J.  Panel density is RADIAL_STEPS panels over the
    smallest radius's log span, at least two per segment, split as the
    attenuation integral's are (:func:`_panel_edges`).  There is one
    :func:`_mean_jacobians` call over every circle, the tail's last: one node
    per circle when the mapping has a symmetry about z0, all n otherwise.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError(f"radii must be a non-empty 1-d array, got shape {radii.shape}")
    if not np.all(radii > 0.0):
        raise ValueError(f"radii must be positive, got {radii}")
    r_min, r_max = float(np.min(radii)), float(np.max(radii))
    rho_min = INNER_CUTOFF * r_min
    cuts = [s for s in mapping.seam_radii if rho_min < s < r_max]
    stops = sorted(set(cuts) | set(radii.tolist()))
    edges = np.log(np.array([rho_min] + stops))
    span = edges[stops.index(r_min) + 1] - edges[0]
    count = np.maximum(2, np.round(RADIAL_STEPS * np.diff(edges) / span)).astype(int)
    a, b = _panel_edges(edges, count)
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    u = (mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
    w = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
    rho = np.exp(u)
    # every segment's circles, then the two circles of the tail
    mean_jac = _mean_jacobians(mapping, z0, np.append(rho, [rho_min, 2.0 * rho_min]), q)
    with np.errstate(over="ignore"):
        g = TWO_PI * rho**2 * mean_jac[:-2]
    beyond = ~np.isfinite(g)
    if np.any(beyond):
        k = int(np.argmax(beyond))
        raise QuadratureFailure(
            f"area integrand 2 pi rho^2 mean(J_f) = {float(g[k])} at rho = {float(rho[k])} "
            "is beyond double precision"
        )
    # np.sum over each segment's own nodes: a pairwise sum, which the
    # sequential np.add.reduceat is not
    sums = [np.sum(part) for part in np.split(w * g, np.cumsum(count)[:-1] * _GAUSS_NODES.size)]

    # power-law tail below the cutoff: mean J ~ c * rho^p
    j1, j2 = mean_jac[-2:].tolist()
    p = math.log(j2 / j1) / math.log(2.0)
    if p + 2.0 <= 0.05:
        raise QuadratureFailure(
            f"Jacobian not integrable at the center (local exponent {p:.3f})"
        )
    tail = TWO_PI * j1 * rho_min**2 / (p + 2.0)
    return np.cumsum(sums)[np.searchsorted(stops, radii)] + tail


def image_area(
    mapping: Mapping,
    z0: complex,
    r: float,
    q: CircleQuadrature = CircleQuadrature(),
) -> float:
    """Area of f(B(z0, r)) as the polar integral of the Jacobian: the
    one-radius case of :func:`_disk_areas`.  A map that folds anywhere
    inside the disk raises NonPositiveJacobian."""
    return float(_disk_areas(mapping, z0, [r], q)[0])


# ---------------------------------------------------------------------------
# inequality checks
#
# Each check is judging code over swept disk areas.  The three public checks
# run it on a sweep of their own; disk_checks runs all three on one sweep.

#: relative tolerances of the verdicts: the three disk checks (shared with
#: disk_checks) and the growth ladder of theorem1_check
ISOPERIMETRIC_REL_TOL = 1e-6
DIFFERENTIAL_REL_TOL = 1e-3
AREA_BOUND_REL_TOL = 1e-4
GROWTH_REL_TOL = 1e-6


@dataclass(frozen=True)
class IsoperimetricReport:
    length: float
    area: float
    slack: float  # L^2 - 4*pi*S
    ok: bool
    equality: bool


def _isoperimetric_reports(mapping, z0, radii, areas, q) -> tuple:
    reports = []
    for length, area in zip(circle_length(mapping, z0, radii, q).tolist(), areas.tolist()):
        slack = length**2 - 4.0 * math.pi * area
        scale = ISOPERIMETRIC_REL_TOL * length**2
        reports.append(
            IsoperimetricReport(length, area, slack, slack >= -scale, abs(slack) <= scale)
        )
    return tuple(reports)


def isoperimetric_check(
    mapping: Mapping,
    z0: complex,
    r,
    q: CircleQuadrature = CircleQuadrature(),
):
    """L^2 >= 4*pi*S for the image of the circle/disk of radius r.

    A scalar r gives one report; a 1-d array of radii gives a tuple of
    reports whose areas come from one shared radial sweep.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    areas = _disk_areas(mapping, z0, radii, q)
    reports = _isoperimetric_reports(mapping, z0, radii, areas, q)
    return reports[0] if np.ndim(r) == 0 else reports


@dataclass(frozen=True)
class DifferentialInequalityRow:
    r: float
    area: float
    area_rate: float  # S'(r) = r * int J_f dtheta over the circle, exactly
    bound: float  # 2 S / (r d_f)
    ratio: float
    ok: bool


def _differential_rows(mapping, z0, radii, areas, q) -> list:
    mean_jac = _mean_jacobians(mapping, z0, radii, q)
    d_mean = circle_average_D(mapping, z0, radii, q)
    rows = []
    for r, area, j, d in zip(radii.tolist(), areas.tolist(), mean_jac.tolist(), d_mean.tolist()):
        rate = TWO_PI * r * j
        bound = 2.0 * area / (r * d)
        ratio = rate / bound
        ok = ratio >= 1.0 - DIFFERENTIAL_REL_TOL
        rows.append(DifferentialInequalityRow(r, area, rate, bound, ratio, ok))
    return rows


def differential_inequality_check(
    mapping: Mapping,
    z0: complex,
    radii,
    q: CircleQuadrature = CircleQuadrature(),
):
    """Check S' >= 2S/(r d_f) at each radius.

    The areas S come from one radial sweep of the Jacobian over the largest
    disk; S'(r) = r * int J_f dtheta is the exact derivative of the polar
    area integral, taken by the periodic trapezoid rule on the circle.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        return []
    areas = _disk_areas(mapping, z0, radii, q)
    return _differential_rows(mapping, z0, radii, areas, q)


@dataclass(frozen=True)
class AreaBoundReport:
    r0: float
    R: float
    area_inner: float
    area_outer: float
    integral: float
    rhs: float  # S(R) * exp(-2 I)
    slack: float
    ok: bool
    equality: bool


def _area_bound_report(K, r0, R, area_inner, area_outer, q) -> AreaBoundReport:
    integral = float(ladder_integrals(FieldProfile(K, q), r0, [R])[0])
    rhs = area_outer * math.exp(-2.0 * integral)
    slack, tol = rhs - area_inner, AREA_BOUND_REL_TOL * rhs
    return AreaBoundReport(
        r0, R, area_inner, area_outer, integral, rhs, slack, slack >= -tol, abs(slack) <= tol
    )


def area_bound_check(
    mapping: Mapping,
    K: CoefficientField,
    r0: float,
    R: float,
    q: CircleQuadrature = CircleQuadrature(),
) -> AreaBoundReport:
    """S(r0) <= S(R) * exp(-2 * int dr/(r kappa)) for a solution pair, with
    the disks and kappa's circles about K.center."""
    if not (R > r0 > 0.0):
        raise DomainError(f"need R > r0 > 0, got r0 = {r0}, R = {R}")
    area_inner, area_outer = _disk_areas(mapping, K.center, [r0, R], q).tolist()
    return _area_bound_report(K, r0, R, area_inner, area_outer, q)


def disk_checks(
    mapping: Mapping,
    K: CoefficientField,
    r0: float,
    radii,
    q: CircleQuadrature = CircleQuadrature(),
):
    """The differential-inequality rows and isoperimetric reports at
    ``radii``, and the area-bound report over [r0, radii[-1]], on disks and
    circles about K.center, the center of the pair's equation.

    One radial sweep over radii and r0 gives every area, so S(r0) is swept
    even when r0 is not a check radius.  S', the mean dilatation and the
    image length are one CircleQuadrature.circle_means call each over the
    radii: one node per circle where the map's symmetry makes the integrand
    constant on circles about K.center, all n nodes otherwise.
    """
    radii = np.asarray(radii, dtype=float)
    R = float(radii[-1])
    if not (R > r0 > 0.0):
        raise DomainError(f"need R > r0 > 0, got r0 = {r0}, R = {R}")
    swept = _disk_areas(mapping, K.center, np.append(radii, r0), q)
    areas, area_inner = swept[:-1], float(swept[-1])
    return (
        _differential_rows(mapping, K.center, radii, areas, q),
        _isoperimetric_reports(mapping, K.center, radii, areas, q),
        _area_bound_report(K, r0, R, area_inner, float(areas[-1]), q),
    )


@dataclass(frozen=True)
class GrowthLadderRow:
    R: float
    M: float
    m: float
    integral: float
    envelope: float
    v: float  # M * exp(-I)
    bound_ok: bool


@dataclass(frozen=True)
class GrowthLadderReport:
    rows: tuple
    m_inner: float
    liminf_proxy: float  # running minimum of v over the ladder
    all_ok: bool


def theorem1_check(
    mapping: Mapping,
    K: CoefficientField,
    z0: complex,
    r0: float,
    ladder: RadiusLadder,
    q: CircleQuadrature = CircleQuadrature(),
) -> GrowthLadderReport:
    """Lower growth bound: M(R) * exp(-I(r0, R)) >= m(r0) along the ladder.

    M, m and kappa are measured about K.center; a z0 elsewhere raises DomainError.
    The ladder must start at or above r0.  The running minimum of v(R)
    stands in for the liminf; with a finite ladder this is a proxy, not the
    limit itself.  An envelope exp(I) past double precision raises
    DomainError naming its rung.
    """
    if complex(z0) != complex(K.center):
        raise DomainError(f"z0 = {z0} is not the coefficient's center {K.center}")
    radii = ladder.radii().tolist()
    integrals = np.cumsum(ladder_integrals(FieldProfile(K, q), r0, radii)).tolist()
    m_max, m_min = modulus_extremes(mapping, K.center, np.array([r0] + radii), q)
    m_inner = float(m_min[0])
    v = [M * math.exp(-I) for M, I in zip(m_max[1:].tolist(), integrals)]
    floor = m_inner * (1.0 - GROWTH_REL_TOL)
    rows = tuple(
        GrowthLadderRow(R, M, m, I, _envelope(R, I), vk, vk >= floor)
        for R, M, m, I, vk in zip(radii, m_max[1:].tolist(), m_min[1:].tolist(), integrals, v)
    )
    return GrowthLadderReport(rows, m_inner, min(v), all(row.bound_ok for row in rows))


# ---------------------------------------------------------------------------
# non-existence diagnostic

NONEXISTENCE_NOTE = (
    "finite-sample diagnostic over a bounded radius ladder; "
    "not a proof of non-existence"
)
#: v(R) must fall below this share of its first value for "inconsistent"
DECAY_FACTOR = 0.01


@dataclass(frozen=True)
class NonexistenceReport:
    rows: tuple  # (R, M, v)
    verdict: str  # "inconsistent" or "consistent"
    note: str = NONEXISTENCE_NOTE


def nonexistence_diagnostic(
    observed, profile: KappaProfile, r0: float
) -> NonexistenceReport:
    """Test observed growth data (R, M) against the envelope of a kappa profile.

    The radii must ascend strictly from r0 or above.  Verdict is
    "inconsistent" when v(R) = M * exp(-I(r0, R)) decreases monotonically
    over the last half of the ladder and decays below DECAY_FACTOR times its
    initial value.
    """
    data = [(float(R), float(M)) for R, M in observed]
    if len(data) < 2:
        raise DomainError("need at least two observations")
    integrals = np.cumsum(ladder_integrals(profile, r0, [R for R, _ in data])).tolist()
    rows = tuple((R, M, M * math.exp(-I)) for (R, M), I in zip(data, integrals))
    v = [row[2] for row in rows]
    tail = v[len(v) // 2 :]
    monotone_tail = all(b < a for a, b in zip(tail, tail[1:]))
    decayed = v[-1] < DECAY_FACTOR * v[0]
    verdict = "inconsistent" if (monotone_tail and decayed) else "consistent"
    return NonexistenceReport(rows, verdict)
