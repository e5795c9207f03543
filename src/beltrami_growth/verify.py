"""Extremal radial solutions, PDE residual certification and verify_pair.

For a radial map f = rho(r) e^{i theta} the solution property pins the
profile through rho'/rho = 1/(r kappa); integrating that ODE from a kappa
profile produces a mapping that attains equality in the growth bounds.
The residual checkers certify (mapping, coefficient) pairs directly
against the defining equation, in complex form and as the equivalent
system of two real equations.  verify_pair judges a pair by the residual
and the theorem's four bounds, the checks of the verify command.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complex_polar import jacobian_wirtinger, require_finite, require_jacobian_above
from .dilatation import (
    JACOBIAN_FLOOR,
    CircleQuadrature,
    CoefficientField,
    ConstantProfile,
    KappaProfile,
    LinearCoefficient,
    LogLogCoefficient,
    PiecewiseProfile,
    PowerCoefficient,
    RadialCoefficient,
    SpiralCoefficient,
)
from .errors import ConfigError, DomainError
from .growth import RadiusLadder, disk_checks, judge, ladder_integrals, modulus_extremes
from .growth import theorem1_check
from .mappings import (
    DEFAULT_FD_STEP,
    Identity,
    Linear,
    LogLog,
    Mapping,
    Power,
    RadialTable,
    Spiral,
    require_radii_within,
)
from .mappings import require_count, require_positive

# ---------------------------------------------------------------------------
# extremal radial solutions


@dataclass(frozen=True, eq=False)
class ExtremalSolution:
    """Radial solution rho(r) e^{i theta} integrated from a kappa profile.

    Below r0 the map continues as the linear piece rho0 * r / r0, which
    solves the equation with the unit radial coefficient; the matching
    kappa is therefore 1 on (0, r0) and the given profile on [r0, R].
    """

    profile: KappaProfile
    r0: float
    rho0: float
    knots: np.ndarray
    rho: np.ndarray

    def mapping(self) -> RadialTable:
        return RadialTable(self.knots, self.rho, linear_inner=True)

    def kappa_of_r(self):
        inner = ConstantProfile(1.0)
        return PiecewiseProfile((self.r0,), (inner, self.profile))

    def coefficient(self) -> RadialCoefficient:
        return RadialCoefficient(self.kappa_of_r(), radial_domain=(0.0, float(self.knots[-1])))


def build_extremal(
    profile: KappaProfile,
    r0: float,
    rho0: float,
    R: float,
    knots: int = 128,
) -> ExtremalSolution:
    """Tabulate rho(r) = rho0 * exp(int_{r0}^{r} ds/(s kappa(s))) on a
    geometric knot grid from r0 to R."""
    require_count("knots", knots, 64)
    require_positive("rho0", rho0)
    if not (R > r0 > 0.0):
        raise DomainError(f"need R > r0 > 0, got r0 = {r0}, R = {R}")
    r0, R = require_radii_within(np.array([r0, R]), profile.domain, "the profile's").tolist()
    grid = np.geomspace(r0, R, knots)
    grid[0], grid[-1] = r0, R
    # ln(rho0) starts the running sum; adding it after summing the gaps
    # would round each knot differently
    log_rho = np.cumsum([math.log(rho0), *ladder_integrals(profile, r0, grid[1:])])
    over = np.flatnonzero(log_rho > math.log(sys.float_info.max))
    if over.size:
        raise DomainError(f"rho overflows double precision at r = {float(grid[over[0]])!r}")
    return ExtremalSolution(profile, r0, rho0, grid, np.exp(log_rho))


# ---------------------------------------------------------------------------
# residual certification


@dataclass(frozen=True)
class AnnulusGrid:
    """Evaluation lattice: geometric radii, uniform angles, about a center."""

    r_inner: float
    r_outer: float
    n_r: int = 32
    n_theta: int = 64

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError("need 0 < r_inner < r_outer")
        require_count("n_r", self.n_r, 2)
        require_count("n_theta", self.n_theta, 8)

    def points(self, z0: complex):
        radii = np.geomspace(self.r_inner, self.r_outer, self.n_r)
        q = CircleQuadrature(self.n_theta)
        theta = q.angles()
        z = q.points(z0, radii[:, None])
        rr = np.broadcast_to(radii[:, None], z.shape)
        tt = np.broadcast_to(theta[None, :], z.shape)
        return z, rr, tt


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """pde_residual's residual magnitudes on a grid, with the largest, where
    it is, and the root mean square.  verify_pair's check is judge's
    verdict on max_abs <= residual_tol."""

    max_abs: float
    rms: float
    worst_r: float
    worst_theta: float
    count: int
    r: np.ndarray
    theta: np.ndarray
    abs_residual: np.ndarray


def _grid_derivatives(mapping: Mapping, K: CoefficientField, grid: AnnulusGrid, h: float):
    """(w = z - K.center, r, theta, derivatives, J_f, K(z)) at the points z
    of the grid about K.center clear of seams and the origin; J_f must
    exceed JACOBIAN_FLOOR at every one of them."""
    z, rr, tt = grid.points(K.center)
    mask = mapping.smooth_mask(z, h)
    if not np.any(mask):
        raise DomainError("no grid points outside the mapping's excluded bands")
    z, rr, tt = z[mask], rr[mask], tt[mask]
    wp = mapping.wirtinger_analytic(z)
    jac = require_jacobian_above(jacobian_wirtinger(wp), JACOBIAN_FLOOR, z, K.center)
    return z - complex(K.center), rr, tt, wp, jac, np.asarray(K(z))


def _residual_norms(abs_res, rr, tt, jac, k, name):
    """(index of the largest, root mean square) of the residual magnitudes
    ``abs_res``; a non-finite one raises BeyondDoubleRange naming its
    point, J_f and K there.  The rms is rescaled by the largest when the
    squares overflow though no residual does."""
    require_finite(
        abs_res,
        name,
        lambda i: f"r = {float(rr[i])}, theta = {float(tt[i])} (J_f = {jac[i]}, K = {k[i]})",
    )
    i = int(np.argmax(abs_res))
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(abs_res**2)))
    if math.isinf(rms):  # the squares overflowed, not the residuals
        rms = float(abs_res[i] * np.sqrt(np.mean((abs_res / abs_res[i]) ** 2)))
    return i, rms


def pde_residual(
    mapping: Mapping,
    K: CoefficientField,
    grid: AnnulusGrid,
    *,
    h: float = DEFAULT_FD_STEP,
) -> ResidualReport:
    """Pointwise residual of f_zbar - (w/conj(w)) f_z - K |J_f|^{1/2}, with
    w = z - K.center on the grid about K.center.

    Grid points whose 2h-stencil would touch a seam or the origin are
    excluded; J_f must be positive, and every residual finite, at every
    retained point.
    """
    # far out, the derivatives, J_f, K or the residual may leave the double
    # range; require_finite refuses the result, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        w, rr, tt, wp, jac, k = _grid_derivatives(mapping, K, grid, h)
        abs_res = np.abs(wp.d_zbar - (w / np.conj(w)) * wp.d_z - k * np.sqrt(np.abs(jac)))
    i, rms = _residual_norms(abs_res, rr, tt, jac, k, "residual")
    return ResidualReport(
        float(abs_res[i]),
        rms,
        float(rr[i]),
        float(tt[i]),
        int(abs_res.size),
        rr,
        tt,
        abs_res,
    )


@dataclass(frozen=True, eq=False)
class RealSystemReport:
    """real_system_residual's residuals of the two real equations on a grid,
    with the largest combined magnitude and the root mean square; no
    verdict is judged from it."""

    max_abs: float
    rms: float
    count: int
    r: np.ndarray
    theta: np.ndarray
    residual_u: np.ndarray
    residual_v: np.ndarray


def real_system_residual(
    mapping: Mapping,
    K: CoefficientField,
    grid: AnnulusGrid,
    *,
    h: float = DEFAULT_FD_STEP,
) -> RealSystemReport:
    """Residuals of the equivalent pair of real first-order equations.

    (y-y0) u_x - (x-x0) u_y = k1 |J|^{1/2} and the same with v and k2,
    where z0 = x0 + i y0 = K.center, k1 = -Im(conj(w) K) and
    k2 = Re(conj(w) K).  The combined magnitude equals r times the complex
    residual at every point; its non-finite guard and rms are pde_residual's.
    """
    # as in pde_residual, require_finite refuses a value beyond the double range
    with np.errstate(over="ignore", invalid="ignore"):
        w, rr, tt, wp, jac, k = _grid_derivatives(mapping, K, grid, h)
        root = np.sqrt(np.abs(jac))
        fx = wp.d_z + wp.d_zbar
        fy = 1j * (wp.d_z - wp.d_zbar)
        kw = np.conj(w) * k
        k1 = -np.imag(kw)
        k2 = np.real(kw)
        res_u = w.imag * np.real(fx) - w.real * np.real(fy) - k1 * root
        res_v = w.imag * np.imag(fx) - w.real * np.imag(fy) - k2 * root
        combined = np.hypot(res_u, res_v)
    i, rms = _residual_norms(combined, rr, tt, jac, k, "combined residual")
    return RealSystemReport(
        float(combined[i]),
        rms,
        int(combined.size),
        rr,
        tt,
        res_u,
        res_v,
    )


# ---------------------------------------------------------------------------
# the five checks of a solution pair

#: largest residual magnitude that pde_residual's check passes
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CheckResult:
    """One judged check: the (label, value) pairs it is printed with, the
    report it was judged from, and whether it holds with equality (set by
    the area bound alone)."""

    name: str
    ok: bool
    values: tuple
    report: object
    equality: bool = False


def check_radii(mapping: Mapping, r0: float, top: float) -> np.ndarray:
    """Ten geometric radii from r0 to the lesser of top and 100 r0, less
    those whose circle about the mapping's center meets an excluded band."""
    radii = np.geomspace(r0, min(top, 100.0 * r0), 10)
    mask = mapping.smooth_mask(mapping.center + radii, 0.05)
    if not np.any(mask):
        raise ConfigError("no check radii clear of the mapping's excluded bands")
    return radii[mask]


def verify_pair(
    mapping: Mapping,
    K: CoefficientField,
    r0: float,
    ladder: RadiusLadder,
    q: CircleQuadrature = CircleQuadrature(),
    *,
    h: float = DEFAULT_FD_STEP,
    grid: AnnulusGrid | None = None,
    residual_tol: float = RESIDUAL_TOL,
):
    """Judge the pair by the PDE residual, the differential inequality, the
    isoperimetric inequality, the area bound and the growth ladder, and
    yield each CheckResult in that order as soon as it is judged.

    The residual is taken on grid, by default 32 x 64 points from r0 to the
    lesser of 8 r0 and the ladder's top rung; the three disk checks at
    check_radii up to the top rung.  A config that leaves no default grid
    or no check radii raises ConfigError; a check that cannot be computed
    raises after the results judged before it were yielded.
    """
    top = float(ladder.radii()[-1])
    if grid is None:
        if not top > r0:
            raise ConfigError(f"the default grid needs a top rung above r0 = {r0}, got {top}")
        grid = AnnulusGrid(r0, min(top, 8.0 * r0))
    residual = pde_residual(mapping, K, grid, h=h)
    yield CheckResult(
        "pde_residual",
        judge(residual_tol, residual.max_abs, 0.0)[1],
        (("max", residual.max_abs), ("rms", residual.rms), ("tol", residual_tol)),
        residual,
    )
    rows, iso, area = disk_checks(mapping, K, r0, check_radii(mapping, r0, top), q)
    yield CheckResult(
        "differential_inequality",
        all(row.ok for row in rows),
        (("min_ratio", min(row.ratio for row in rows)),),
        rows,
    )
    yield CheckResult("isoperimetric", all(rep.ok for rep in iso), (), iso)
    yield CheckResult("area_bound", area.ok, (("slack", area.slack),), area, area.equality)
    growth = theorem1_check(mapping, K, K.center, r0, ladder, q)
    yield CheckResult(
        "growth_ladder",
        growth.all_ok,
        (("m", growth.m_inner), ("liminf_proxy", growth.liminf_proxy)),
        growth,
    )


# ---------------------------------------------------------------------------
# sharpness ladders

#: largest |ratio - 1| of a power example that its sharpness ladder passes
SHARPNESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SharpnessReport:
    """The ratios of M(R) to a sharp example's growth scale: for a power
    map ok is judge's verdict on max_deviation <= SHARPNESS_TOL; for a
    loglog map it is the criterion strictly_decreasing and halved."""

    kind: str  # "power" or "loglog"
    rows: tuple  # (R, ratio)
    max_deviation: float  # power: max |ratio - 1|; loglog: 0.0
    strictly_decreasing: bool
    halved: bool  # final ratio below half the first one
    ok: bool  # power: max_deviation <= SHARPNESS_TOL; loglog: decreasing and halved


def sharpness_ladder(
    mapping, ladder: RadiusLadder, q: CircleQuadrature = CircleQuadrature()
) -> SharpnessReport:
    """Ratios of M(R) to the predicted growth scale along a radius ladder.

    Power maps are compared against R^{1/alpha} (ratio should be 1, within
    SHARPNESS_TOL); doubly-logarithmic maps against (ln R)^{1/alpha} (ratio
    should fall strictly and end below half its first value).
    """
    radii = ladder.radii()
    # a small alpha takes the scale to 0 or inf within a few rungs; it is
    # refused below, so numpy need not warn about the overflow
    with np.errstate(over="ignore"):
        if isinstance(mapping, Power):
            kind, scale = "power", "R^(1/alpha)"
            denom = radii ** (1.0 / mapping.alpha)
        elif isinstance(mapping, LogLog):
            kind, scale = "loglog", "(ln R)^(1/alpha)"
            if radii[0] < math.e:
                raise DomainError("ladder must start at or above e for the log scale")
            denom = np.log(radii) ** (1.0 / mapping.alpha)
        else:
            raise TypeError("sharpness ladder applies to power and loglog maps only")
    if np.any(denom == 0.0):  # an underflow to 0 is finite: the guard passes it
        k = int(np.argmax(denom == 0.0))
        raise DomainError(
            f"growth scale {scale} = 0.0 at R = {float(radii[k])} (rung {k}) "
            f"is beyond double precision for alpha = {mapping.alpha}"
        )
    require_finite(denom, f"growth scale {scale}", lambda k: f"R = {float(radii[k])} (rung {k})")
    m_max, _ = modulus_extremes(mapping, 0j, radii, q)
    ratios = m_max / denom
    rows = tuple(zip(radii.tolist(), ratios.tolist()))
    decreasing = bool(np.all(np.diff(ratios) < 0.0))
    halved = bool(ratios[-1] < 0.5 * ratios[0])
    if kind == "power":
        max_dev = float(np.max(np.abs(ratios - 1.0)))
        ok = judge(SHARPNESS_TOL, max_dev, 0.0)[1]
    else:
        max_dev, ok = 0.0, decreasing and halved
    return SharpnessReport(kind, rows, max_dev, decreasing, halved, ok)


# ---------------------------------------------------------------------------
# catalog solution pairs


#: name -> constructor of a catalog pair (mapping, coefficient); its
#: parameters are the pair's keys
CATALOG = {
    "identity": lambda: (Identity(), PowerCoefficient(1.0)),
    "linear": lambda a, b, c=0j: (Linear(a, b, c), LinearCoefficient(a, b)),
    "spiral": lambda: (Spiral(), SpiralCoefficient()),
    "power": lambda alpha: (Power(alpha), PowerCoefficient(alpha)),
    "loglog": lambda alpha: (LogLog(alpha), LogLogCoefficient(alpha)),
}


def catalog_pair(name: str, **params):
    """(mapping, coefficient) for a named certified solution of the equation."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog pair {name!r}")
    return CATALOG[name](**params)
