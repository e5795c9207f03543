"""Growth functionals and the differential/integral inequalities they satisfy.

Radial dilatation profiles kappa(r), iterated-logarithm utilities, the
attenuation integral I = int dr/(r kappa) with its envelope exp(I), modulus
extremes M/m on circles, curve length, image area, and the checks that tie
them together: the isoperimetric inequality, the differential inequality
S' >= 2S/(r d_f), the area bound, the growth ladder, and the non-existence
diagnostic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complex_polar import TWO_PI, jacobian_wirtinger, require_jacobian_above, wirtinger_to_polar
from .dilatation import (
    CircleQuadrature,
    CoefficientField,
    circle_average_D,
    kappa as circle_kappa,
)
from .errors import DomainError, NonPositiveKappa, QuadratureFailure
from .mappings import Mapping

# ---------------------------------------------------------------------------
# iterated logarithms and exponential towers

E_1 = math.e
E_2 = math.exp(math.e)
E_3 = math.exp(E_2)


def tower(k: int) -> float:
    """e_k with e_1 = e, e_{k+1} = e^{e_k}; finite in doubles only for k <= 3."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"tower index must be a positive integer, got {k!r}")
    if k >= 4:
        raise OverflowError(f"e_{k} exceeds double-precision range")
    return (E_1, E_2, E_3)[k - 1]


def iterated_log(k: int, t):
    """k-fold logarithm ln_k(t); requires t > e_{k-1} so the result is positive."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"log depth must be a positive integer, got {k!r}")
    out = np.asarray(t, dtype=float)
    for _ in range(k):
        if np.any(out <= 0.0):
            raise DomainError(f"argument too small for a depth-{k} iterated log")
        out = np.log(out)
    if np.any(out <= 0.0):
        raise DomainError(f"argument too small for a depth-{k} iterated log")
    return float(out) if np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# kappa profiles


class KappaProfile:
    """Radial profile kappa(r) > 0; callable on floats or arrays."""

    #: (lower, upper) radius interval on which the profile is defined
    domain: tuple = (0.0, math.inf)
    #: interior radii where the profile jumps or kinks; the fixed-order
    #: quadrature splits here, and may miss a jump or kink not listed
    breakpoints: tuple = ()

    def __call__(self, r):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantProfile(KappaProfile):
    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def __call__(self, r):
        out = np.full(np.shape(r), self.alpha)
        return self.alpha if np.ndim(r) == 0 else out


@dataclass(frozen=True, eq=False)
class LogProductProfile(KappaProfile):
    """alpha * ln(r) * ln ln(r) * ... (depth factors), defined for r >= e_depth."""

    alpha: float
    depth: int

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (1 <= self.depth <= 3):
            raise ValueError(f"depth must be in 1..3, got {self.depth}")
        object.__setattr__(self, "domain", (tower(self.depth), math.inf))

    def __call__(self, r):
        lo, _ = self.domain
        rr = np.asarray(r, dtype=float)
        if np.any(rr < lo * (1.0 - 1e-15)):
            raise DomainError(f"profile defined only for r >= e_{self.depth}")
        rr = np.maximum(rr, lo)  # absorb rounding slop at the left endpoint
        out = self.alpha * np.ones(rr.shape)
        for k in range(1, self.depth + 1):
            out = out * iterated_log(k, rr)
        return float(out) if np.ndim(r) == 0 else out


@dataclass(frozen=True, eq=False)
class PiecewiseProfile(KappaProfile):
    """Radially piecewise profile; piece i applies on [b_{i-1}, b_i)."""

    cut_radii: tuple
    pieces: tuple

    def __post_init__(self):
        cuts = tuple(float(b) for b in self.cut_radii)
        if len(self.pieces) != len(cuts) + 1:
            raise ValueError("need exactly one more piece than cut radius")
        if any(b2 <= b1 for b1, b2 in zip(cuts, cuts[1:])) or any(
            b <= 0.0 for b in cuts
        ):
            raise ValueError("cut radii must be positive and strictly ascending")
        object.__setattr__(self, "cut_radii", cuts)
        # the cuts, and each piece's own breakpoints inside its interval
        spans = zip(self.pieces, (0.0,) + cuts, cuts + (math.inf,))
        inner = [b for piece, lo, hi in spans for b in piece.breakpoints if lo < b < hi]
        object.__setattr__(self, "breakpoints", tuple(sorted(cuts + tuple(inner))))
        lo = self.pieces[0].domain[0]
        hi = self.pieces[-1].domain[1]
        object.__setattr__(self, "domain", (lo, hi))

    def __call__(self, r):
        rr = np.atleast_1d(np.asarray(r, dtype=float))
        idx = np.searchsorted(self.cut_radii, rr, side="right")
        out = np.empty(rr.shape, dtype=float)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if np.any(mask):
                out[mask] = piece(rr[mask])
        return float(out[0]) if np.ndim(r) == 0 else out


@dataclass(frozen=True, eq=False)
class TableProfile(KappaProfile):
    """kappa tabulated at radius knots, log-log linear in between."""

    radii: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
            raise ValueError("radii and values must be equal-length 1-d arrays")
        if not (np.all(radii > 0.0) and np.all(np.diff(radii) > 0.0)):
            raise ValueError("radii must be positive and strictly ascending")
        if not np.all(values > 0.0):
            raise NonPositiveKappa("tabulated kappa values must be positive")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "domain", (float(radii[0]), float(radii[-1])))
        # piecewise linear in ln r: each interior knot is a kink
        object.__setattr__(self, "breakpoints", tuple(radii[1:-1].tolist()))

    def __call__(self, r):
        rr = np.asarray(r, dtype=float)
        lo, hi = self.domain
        if np.any(rr < lo) or np.any(rr > hi):
            raise DomainError("radius outside the tabulated kappa range")
        out = np.exp(
            np.interp(np.log(rr), np.log(self.radii), np.log(self.values))
        )
        return float(out) if np.ndim(r) == 0 else out


@dataclass(frozen=True, eq=False)
class FieldProfile(KappaProfile):
    """kappa(r) computed on demand from a coefficient field by circle quadrature."""

    coefficient: CoefficientField
    quadrature: CircleQuadrature = CircleQuadrature()

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", tuple(self.coefficient.radial_breakpoints)
        )
        lo, hi = self.coefficient.radial_domain
        object.__setattr__(self, "domain", (float(lo), float(hi)))

    def __call__(self, r):
        if np.ndim(r) == 0:
            return circle_kappa(self.coefficient, float(r), self.quadrature)
        rr = np.asarray(r, dtype=float)
        return circle_kappa(self.coefficient, rr.ravel(), self.quadrature).reshape(rr.shape)


def loglog_example_profile(alpha: float) -> PiecewiseProfile:
    """The piecewise profile 1 below e^e and alpha*ln(r)*ln ln(r) above it."""
    return PiecewiseProfile((E_2,), (ConstantProfile(1.0), LogProductProfile(alpha, 2)))


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
        # check the top rung in log space; factor**count itself can overflow
        if math.log(self.r0) + self.count * math.log(self.factor) > math.log(
            sys.float_info.max
        ):
            raise DomainError("ladder top overflows double precision")

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
    if isinstance(bound, KappaBound):
        if not bound.alpha > 0.0:
            raise ValueError("alpha must be positive")
        return 1.0 / bound.alpha
    if isinstance(bound, CoefficientBound):
        if not bound.alpha > 0.0:
            raise ValueError("alpha must be positive")
        return 1.0 / (bound.alpha * bound.alpha)
    raise TypeError(f"unknown bound type {type(bound)!r}")


# ---------------------------------------------------------------------------
# the attenuation integral and its envelope

ENVELOPE_ABS_TOL = 1e-11
#: Gauss-Legendre nodes on [-1, 1]: the 12-point rule, then the 6-point rule
#: whose difference from it is each panel's error estimate
_GL12, _W12 = np.polynomial.legendre.leggauss(12)
_GL6, _W6 = np.polynomial.legendre.leggauss(6)
_PANEL_NODES = np.concatenate([_GL12, _GL6])
#: panels per profile call, which bounds the samples of a very wide gap
PANEL_BLOCK = 16
#: panel halvings one attenuation integral may make before it gives up
MAX_BISECTIONS = 2000


def _panel_rules(profile: KappaProfile, a: np.ndarray, b: np.ndarray):
    """12- and 6-point Gauss-Legendre values of int 1/kappa(e^t) dt over
    each panel [a_i, b_i], from one profile call per PANEL_BLOCK panels."""
    half = 0.5 * (b - a)
    t = 0.5 * (b + a)[:, None] + half[:, None] * _PANEL_NODES[None, :]
    r = np.exp(t)
    blocks = np.split(r, range(PANEL_BLOCK, r.shape[0], PANEL_BLOCK))
    kappa = np.concatenate([np.asarray(profile(block), dtype=float) for block in blocks])
    bad = ~(kappa > 0.0) | ~np.isfinite(kappa)
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NonPositiveKappa(f"kappa sample {kappa[i]} at r = {r[i]}")
    g = 1.0 / kappa
    fine = half * np.sum(g[:, :12] * _W12, axis=1)
    coarse = half * np.sum(g[:, 12:] * _W6, axis=1)
    return fine, coarse


def envelope_integral(profile: KappaProfile, r0: float, R: float):
    """I = int_{r0}^{R} dr/(r kappa(r)) and its envelope exp(I).

    Integrates in t = ln r (the natural variable of every catalog profile)
    by composite 12-point Gauss-Legendre panels, at most 1 wide and split at
    the profile's breakpoints.  A panel whose 6-point value differs from its
    12-point value by more than ENVELOPE_ABS_TOL is bisected.  Every sample
    of kappa must be positive and finite.
    """
    lo, hi = profile.domain
    if not (lo * (1.0 - 1e-15) <= r0 <= hi and r0 <= R <= hi * (1.0 + 1e-15)):
        raise DomainError(
            f"[{r0}, {R}] leaves the profile domain [{lo}, {hi}]"
        )
    if R == r0:
        return 0.0, 1.0
    cuts = [math.log(b) for b in profile.breakpoints if r0 < b < R]
    edges = [math.log(r0)] + cuts + [math.log(R)]
    bounds = [np.linspace(a, b, max(1, math.ceil(b - a)) + 1) for a, b in zip(edges, edges[1:])]
    a = np.concatenate([e[:-1] for e in bounds])
    b = np.concatenate([e[1:] for e in bounds])
    done, bisections = [], 0
    while True:
        fine, coarse = _panel_rules(profile, a, b)
        retry = np.abs(fine - coarse) > ENVELOPE_ABS_TOL
        done.extend(fine[~retry].tolist())
        if not np.any(retry):
            total = math.fsum(done)
            return total, math.exp(total)
        bisections += int(np.count_nonzero(retry))
        if bisections > MAX_BISECTIONS:
            raise QuadratureFailure(
                f"attenuation integral over [{r0}, {R}] missed {ENVELOPE_ABS_TOL} "
                f"after {MAX_BISECTIONS} panel bisections"
            )
        a, b = a[retry], b[retry]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])


def ladder_integrals(profile: KappaProfile, r0: float, radii) -> np.ndarray:
    """I over each gap [r0, R_1], [R_1, R_2], ... of a radius ladder.

    The rungs must ascend strictly from a first rung at or above r0; a first
    rung equal to r0 gives an exact 0.0 gap.  ``np.cumsum`` of the result is
    I(r0, R_k) at every rung.
    """
    rungs = [float(R) for R in radii]
    if (rungs and rungs[0] < r0) or any(b <= a for a, b in zip(rungs, rungs[1:])):
        raise DomainError(f"ladder rungs must ascend strictly from r0 = {r0} or above")
    return np.array(
        [envelope_integral(profile, a, b)[0] for a, b in zip([r0] + rungs, rungs)]
    )


# ---------------------------------------------------------------------------
# circle functionals


#: final width of the golden-section bracket around each extremal angle
MODULUS_ANGLE_TOL = 1e-11
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: samples per evaluate call of the grid scan, which bounds memory on long ladders
SCAN_POINTS = 1 << 16


def modulus_extremes(
    mapping: Mapping,
    z0: complex,
    r,
    q: CircleQuadrature = CircleQuadrature(),
):
    """(max, min) of |f(z) - f(z0)| over the circle |z - z0| = r.

    Grid scan on the quadrature angles, then golden-section refinement
    within 2*pi/n of the best grid angle, down to a bracket below
    MODULUS_ANGLE_TOL in theta.  A scalar r gives two floats; a 1-d array of
    radii gives two arrays, with every radius and both extremes refined at
    once.
    """
    radii = np.asarray(r, dtype=float)
    rr = np.atleast_1d(radii)
    if rr.ndim != 1 or rr.size == 0 or not np.all(rr > 0.0):
        raise ValueError(f"radius must be positive, got {r}")
    z0c = complex(z0)
    f0 = mapping.center_value(z0c)
    theta = q.angles()

    def distance(z):
        return np.abs(mapping.evaluate(z) - f0)

    rows = max(1, SCAN_POINTS // q.n)
    blocks = np.split(rr, range(rows, rr.size, rows))
    values = np.concatenate([distance(q.points(z0c, block[:, None])) for block in blocks])
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

    A 1-d array of radii gives one length per radius from one (radii x n)
    block of circle points.
    """
    radii = np.asarray(r, dtype=float)
    z = q.points(z0, radii if radii.ndim == 0 else radii[:, None])
    pd = wirtinger_to_polar(z, z0, mapping.wirtinger_analytic(z))
    return TWO_PI * q.mean(np.abs(pd.d_theta))


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
#: panel count over ln(1/INNER_CUTOFF), and the relative radius below which
#: the area integral is replaced by a power-law tail
RADIAL_STEPS = 48
INNER_CUTOFF = 1e-8


def _disk_areas(
    mapping: Mapping,
    z0: complex,
    radii,
    q: CircleQuadrature,
) -> np.ndarray:
    """Areas of f(B(z0, r)) for every r in ``radii`` from one radial sweep.

    Composite 8-point Gauss panels in u = ln(rho) run from
    rho_min = INNER_CUTOFF * min(radii) to max(radii), with panel edges at the
    mapping's seam radii and at every requested radius; cumulative panel sums
    give the area at each radius.  The disk below rho_min is accounted for by
    a local power-law extrapolation of the angular mean of J.  Panel density
    is RADIAL_STEPS panels over the smallest radius's log span, at least two
    per segment, and one segment is evaluated at a time.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError(f"radii must be a non-empty 1-d array, got shape {radii.shape}")
    if not np.all(radii > 0.0):
        raise ValueError(f"radii must be positive, got {radii}")
    r_min, r_max = float(np.min(radii)), float(np.max(radii))
    rho_min = INNER_CUTOFF * r_min

    def mean_jacobian(rho: np.ndarray) -> np.ndarray:
        z = q.points(z0, rho[:, None])
        jac = jacobian_wirtinger(mapping.wirtinger_analytic(z))
        # J may decay to zero toward the center (e.g. |z|^{1/a-1} z with
        # a < 1); only a genuinely non-positive sample is an error here
        return q.mean(require_jacobian_above(jac, 0.0, z, z0))

    cuts = [s for s in mapping.seam_radii if rho_min < s < r_max]
    stops = sorted(set(cuts) | set(radii.tolist()))
    edges = np.log(np.array([rho_min] + stops))
    span = edges[stops.index(r_min) + 1] - edges[0]
    cumulative = {}
    total = 0.0
    for stop, a, b in zip(stops, edges, edges[1:]):
        panels = max(2, int(round(RADIAL_STEPS * (b - a) / span)))
        bounds = np.linspace(a, b, panels + 1)
        half = 0.5 * (bounds[1:] - bounds[:-1])
        mid = 0.5 * (bounds[1:] + bounds[:-1])
        u = (mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
        w = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
        rho = np.exp(u)
        g = TWO_PI * rho**2 * mean_jacobian(rho)
        total += float(np.sum(w * g))
        cumulative[stop] = total

    # power-law tail below the cutoff: mean J ~ c * rho^p
    j1 = float(mean_jacobian(np.array([rho_min]))[0])
    j2 = float(mean_jacobian(np.array([2.0 * rho_min]))[0])
    p = math.log(j2 / j1) / math.log(2.0)
    if p + 2.0 <= 0.05:
        raise QuadratureFailure(
            f"Jacobian not integrable at the center (local exponent {p:.3f})"
        )
    tail = TWO_PI * j1 * rho_min**2 / (p + 2.0)
    return np.array([cumulative[r] + tail for r in radii.tolist()])


def image_area(
    mapping: Mapping,
    z0: complex,
    r: float,
    q: CircleQuadrature = CircleQuadrature(),
) -> float:
    """Area of f(B(z0, r)) as the polar integral of the Jacobian.

    Composite 8-point Gauss panels in u = ln(rho) down to rho = INNER_CUTOFF*r,
    split at the mapping's seam radii; the disk below the cutoff is accounted
    for by a local power-law extrapolation of the angular mean of J.  Every
    node checks J > 0, so a map that folds anywhere inside the disk raises
    NonPositiveJacobian.  The checks below take several areas from one sweep
    of :func:`_disk_areas`; this is its one-radius case.
    """
    return float(_disk_areas(mapping, z0, [r], q)[0])


# ---------------------------------------------------------------------------
# inequality checks
#
# Each check is judging code over swept disk areas.  The three public checks
# run it on a sweep of their own; disk_checks runs all three on one sweep.

#: relative tolerances of the verdicts, shared by the checks and disk_checks
ISOPERIMETRIC_REL_TOL = 1e-6
DIFFERENTIAL_REL_TOL = 1e-3
AREA_BOUND_REL_TOL = 1e-4


@dataclass(frozen=True)
class IsoperimetricReport:
    length: float
    area: float
    slack: float  # L^2 - 4*pi*S
    ok: bool
    equality: bool


def _isoperimetric_reports(mapping, z0, radii, areas, q, rel_tol) -> tuple:
    reports = []
    for length, area in zip(circle_length(mapping, z0, radii, q).tolist(), areas.tolist()):
        slack = length**2 - 4.0 * math.pi * area
        scale = rel_tol * length**2
        reports.append(
            IsoperimetricReport(length, area, slack, slack >= -scale, abs(slack) <= scale)
        )
    return tuple(reports)


def isoperimetric_check(
    mapping: Mapping,
    z0: complex,
    r,
    q: CircleQuadrature = CircleQuadrature(),
    *,
    rel_tol: float = ISOPERIMETRIC_REL_TOL,
):
    """L^2 >= 4*pi*S for the image of the circle/disk of radius r.

    A scalar r gives one report; a 1-d array of radii gives a tuple of
    reports whose areas come from one shared radial sweep.
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    areas = _disk_areas(mapping, z0, radii, q)
    reports = _isoperimetric_reports(mapping, z0, radii, areas, q, rel_tol)
    return reports[0] if np.ndim(r) == 0 else reports


@dataclass(frozen=True)
class DifferentialInequalityRow:
    r: float
    area: float
    area_rate: float  # S'(r) = r * int J_f dtheta over the circle, exactly
    bound: float  # 2 S / (r d_f)
    ratio: float
    ok: bool


def _differential_rows(mapping, z0, radii, areas, q, rel_tol) -> list:
    z = q.points(z0, radii[:, None])
    jac = jacobian_wirtinger(mapping.wirtinger_analytic(z))
    mean_jac = q.mean(require_jacobian_above(jac, 0.0, z, z0))
    d_mean = circle_average_D(mapping, z0, radii, q)
    rows = []
    for r, area, j, d in zip(radii.tolist(), areas.tolist(), mean_jac.tolist(), d_mean.tolist()):
        rate = TWO_PI * r * j
        bound = 2.0 * area / (r * d)
        ratio = rate / bound
        rows.append(
            DifferentialInequalityRow(r, area, rate, bound, ratio, ratio >= 1.0 - rel_tol)
        )
    return rows


def differential_inequality_check(
    mapping: Mapping,
    z0: complex,
    radii,
    q: CircleQuadrature = CircleQuadrature(),
    *,
    rel_tol: float = DIFFERENTIAL_REL_TOL,
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
    return _differential_rows(mapping, z0, radii, areas, q, rel_tol)


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


def _area_bound_report(K, r0, R, area_inner, area_outer, q, rel_tol) -> AreaBoundReport:
    integral, _ = envelope_integral(FieldProfile(K, q), r0, R)
    rhs = area_outer * math.exp(-2.0 * integral)
    slack = rhs - area_inner
    return AreaBoundReport(
        r0,
        R,
        area_inner,
        area_outer,
        integral,
        rhs,
        slack,
        slack >= -rel_tol * rhs,
        abs(slack) <= rel_tol * rhs,
    )


def area_bound_check(
    mapping: Mapping,
    K: CoefficientField,
    z0: complex,
    r0: float,
    R: float,
    q: CircleQuadrature = CircleQuadrature(),
    *,
    rel_tol: float = AREA_BOUND_REL_TOL,
) -> AreaBoundReport:
    """S(r0) <= S(R) * exp(-2 * int dr/(r kappa)) for a solution pair."""
    if not (R > r0 > 0.0):
        raise DomainError(f"need R > r0 > 0, got r0 = {r0}, R = {R}")
    area_inner, area_outer = _disk_areas(mapping, z0, [r0, R], q).tolist()
    return _area_bound_report(K, r0, R, area_inner, area_outer, q, rel_tol)


def disk_checks(
    mapping: Mapping,
    K: CoefficientField,
    z0: complex,
    r0: float,
    radii,
    q: CircleQuadrature = CircleQuadrature(),
):
    """The differential-inequality rows and isoperimetric reports at
    ``radii``, and the area-bound report over [r0, radii[-1]].

    One radial sweep over radii and r0 gives every area, so S(r0) is swept
    even when r0 is not a check radius.  S', the mean dilatation and the
    image length each come from one (radii x n) block of circle points.
    """
    radii = np.asarray(radii, dtype=float)
    R = float(radii[-1])
    if not (R > r0 > 0.0):
        raise DomainError(f"need R > r0 > 0, got r0 = {r0}, R = {R}")
    swept = _disk_areas(mapping, z0, np.append(radii, r0), q)
    areas, area_inner = swept[:-1], float(swept[-1])
    return (
        _differential_rows(mapping, z0, radii, areas, q, DIFFERENTIAL_REL_TOL),
        _isoperimetric_reports(mapping, z0, radii, areas, q, ISOPERIMETRIC_REL_TOL),
        _area_bound_report(K, r0, R, area_inner, float(areas[-1]), q, AREA_BOUND_REL_TOL),
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
    *,
    rel_tol: float = 1e-6,
) -> GrowthLadderReport:
    """Lower growth bound: M(R) * exp(-I(r0, R)) >= m(r0) along the ladder.

    The ladder must start at or above r0.  The running minimum of v(R)
    stands in for the liminf; with a finite ladder this is a proxy, not the
    limit itself.
    """
    radii = ladder.radii().tolist()
    integrals = np.cumsum(ladder_integrals(FieldProfile(K, q), r0, radii)).tolist()
    m_max, m_min = modulus_extremes(mapping, z0, np.array([r0] + radii), q)
    m_inner = float(m_min[0])
    v = [M * math.exp(-I) for M, I in zip(m_max[1:].tolist(), integrals)]
    floor = m_inner * (1.0 - rel_tol)
    rows = tuple(
        GrowthLadderRow(R, M, m, I, math.exp(I), vk, vk >= floor)
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
