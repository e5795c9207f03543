"""Extremal radial solutions and PDE residual certification.

For a radial map f = rho(r) e^{i theta} the solution property pins the
profile through rho'/rho = 1/(r kappa); integrating that ODE from a kappa
profile produces a mapping that attains equality in the growth bounds.
The residual checkers certify (mapping, coefficient) pairs directly
against the defining equation, in complex form and as the equivalent
system of two real equations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .complex_polar import jacobian_wirtinger, require_jacobian_above
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
from .errors import DomainError
from .growth import RadiusLadder, ladder_integrals, modulus_extremes
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
    if knots < 64:
        raise ValueError(f"need at least 64 knots, got {knots}")
    if not (rho0 > 0.0):
        raise ValueError(f"rho0 must be positive, got {rho0}")
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
        if self.n_r < 2 or self.n_theta < 8:
            raise ValueError("grid too coarse")

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
    # range; the derivatives' finite guards and the check below refuse the
    # result, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        w, rr, tt, wp, jac, k = _grid_derivatives(mapping, K, grid, h)
        abs_res = np.abs(wp.d_zbar - (w / np.conj(w)) * wp.d_z - k * np.sqrt(np.abs(jac)))
        rms = float(np.sqrt(np.mean(abs_res**2)))
    beyond = ~np.isfinite(abs_res)
    if np.any(beyond):
        i = int(np.argmax(beyond))
        raise DomainError(
            f"residual = {abs_res[i]} at r = {float(rr[i])}, theta = {float(tt[i])} "
            f"(J_f = {jac[i]}, K = {k[i]}) is beyond double precision"
        )
    i = int(np.argmax(abs_res))
    if math.isinf(rms):  # the squares overflowed, not the residuals
        rms = float(abs_res[i] * np.sqrt(np.mean((abs_res / abs_res[i]) ** 2)))
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
    residual at every point.
    """
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
    return RealSystemReport(
        float(np.max(combined)),
        float(np.sqrt(np.mean(combined**2))),
        int(combined.size),
        rr,
        tt,
        res_u,
        res_v,
    )


# ---------------------------------------------------------------------------
# sharpness ladders


@dataclass(frozen=True, eq=False)
class SharpnessReport:
    kind: str  # "power" or "loglog"
    rows: tuple  # (R, ratio)
    max_deviation: float  # power: max |ratio - 1|; loglog: 0.0
    strictly_decreasing: bool
    halved: bool  # final ratio below half the first one


def sharpness_ladder(
    mapping, ladder: RadiusLadder, q: CircleQuadrature = CircleQuadrature()
) -> SharpnessReport:
    """Ratios of M(R) to the predicted growth scale along a radius ladder.

    Power maps are compared against R^{1/alpha} (ratio should be 1);
    doubly-logarithmic maps against (ln R)^{1/alpha} (ratio should decay).
    """
    radii = ladder.radii()
    if radii[-1] > 1e300:
        raise DomainError("ladder top exceeds the double-precision range")
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
    beyond = ~(np.isfinite(denom) & (denom > 0.0))
    if np.any(beyond):
        k = int(np.argmax(beyond))
        raise DomainError(
            f"growth scale {scale} = {float(denom[k])} at R = {float(radii[k])} "
            f"(rung {k}) is beyond double precision for alpha = {mapping.alpha}"
        )
    m_max, _ = modulus_extremes(mapping, 0j, radii, q)
    ratios = m_max / denom
    rows = tuple(zip(radii.tolist(), ratios.tolist()))
    decreasing = bool(np.all(np.diff(ratios) < 0.0))
    halved = bool(ratios[-1] < 0.5 * ratios[0])
    max_dev = float(np.max(np.abs(ratios - 1.0))) if kind == "power" else 0.0
    return SharpnessReport(kind, rows, max_dev, decreasing, halved)


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
