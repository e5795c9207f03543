"""Complex-plane / polar-coordinate calculus.

Conversions between the formal derivative pair (f_z, f_zbar) and the polar
derivative pair (f_r, f_theta) about a center z0, the two equivalent
Jacobian formulas, and the guards that a point is clear of its center and
that a Jacobian exceeds its floor.  All functions accept python complex
scalars or numpy arrays of complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRadius, NonPositiveJacobian, QuadratureFailure

TWO_PI = 2.0 * math.pi

#: Points closer to the center than this are treated as degenerate.
RADIUS_FLOOR = 1e-14


def _require_finite(value, name: str):
    finite = np.isfinite(value)
    if not np.all(finite):
        bad = np.ravel(value)[~np.ravel(finite)]
        raise QuadratureFailure(f"{name} has {bad.size} non-finite samples, the first {bad[0]}")
    return value


def normalize_angle(theta):
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    out = np.mod(theta, TWO_PI)
    # mod can return 2*pi itself for tiny negative inputs
    return np.where(out >= TWO_PI, 0.0, out) if isinstance(out, np.ndarray) else (
        0.0 if out >= TWO_PI else out
    )


@dataclass(frozen=True)
class WirtingerPair:
    """The formal derivatives (f_z, f_zbar)."""

    d_z: complex
    d_zbar: complex

    def __post_init__(self):
        _require_finite(self.d_z, "d_z")
        _require_finite(self.d_zbar, "d_zbar")


@dataclass(frozen=True)
class PolarDerivPair:
    """The polar derivatives (f_r, f_theta); f_theta is per radian."""

    d_r: complex
    d_theta: complex

    def __post_init__(self):
        _require_finite(self.d_r, "d_r")
        _require_finite(self.d_theta, "d_theta")


def require_radius_above_floor(r, center):
    """Return the radii ``r`` = |z - center| if none is below RADIUS_FLOOR;
    otherwise raise DegenerateRadius naming the smallest radius, the floor
    and, if the float spacing of ``center`` (None if unknown) exceeds the
    floor, the center and its spacing, below which a radius rounds to 0."""
    if np.any(np.asarray(r) < RADIUS_FLOOR):
        c = complex(center or 0)
        lost = float(np.spacing(max(abs(c.real), abs(c.imag))))
        why = f": radii below {lost} are lost to rounding against the center {c}"
        raise DegenerateRadius(
            f"|z - center| = {float(np.nanmin(r))} below the floor {RADIUS_FLOOR}"
            + (why if lost > RADIUS_FLOOR else "")
        )
    return r


def center_offset(z, center):
    """w = z - center and r = |w|, through :func:`require_radius_above_floor`."""
    w = np.asarray(z, dtype=complex) - np.asarray(center, dtype=complex)
    return w, require_radius_above_floor(np.abs(w), center)


def wirtinger_to_polar(z, z0, wp: WirtingerPair) -> PolarDerivPair:
    """Convert (f_z, f_zbar) at z to (f_r, f_theta) about the center z0.

    Uses r*f_r = w*f_z + conj(w)*f_zbar and f_theta = i*(w*f_z - conj(w)*f_zbar)
    with w = z - z0.
    """
    w, r = center_offset(z, z0)
    d_r = (w * wp.d_z + np.conj(w) * wp.d_zbar) / r
    d_theta = 1j * (w * wp.d_z - np.conj(w) * wp.d_zbar)
    return PolarDerivPair(d_r, d_theta)


def polar_to_wirtinger(z, z0, pd: PolarDerivPair) -> WirtingerPair:
    """Exact inverse of :func:`wirtinger_to_polar`."""
    w, r = center_offset(z, z0)
    d_z = (r * pd.d_r - 1j * pd.d_theta) / (2.0 * w)
    d_zbar = (r * pd.d_r + 1j * pd.d_theta) / (2.0 * np.conj(w))
    return WirtingerPair(d_z, d_zbar)


def jacobian_polar(r, pd: PolarDerivPair):
    """Jacobian from polar derivatives: (1/r) * Im(conj(f_r) * f_theta)."""
    r = require_radius_above_floor(np.asarray(r, dtype=float), None)
    out = np.imag(np.conj(pd.d_r) * pd.d_theta) / r
    return float(out) if out.ndim == 0 else out


def jacobian_wirtinger(wp: WirtingerPair):
    """Jacobian |f_z|^2 - |f_zbar|^2; beyond the double range it is +-inf or
    NaN, for the guards to refuse, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.abs(np.asarray(wp.d_z)) ** 2 - np.abs(np.asarray(wp.d_zbar)) ** 2
    return float(out) if out.ndim == 0 else out


def require_jacobian_above(jac, floor: float, z, z0):
    """Return ``jac``, the Jacobian sampled at the points ``z`` of the same
    shape, if every sample exceeds ``floor``; otherwise raise
    NonPositiveJacobian naming the smallest sample and its (r, theta) about z0.
    NaN and +inf samples pass; the circle quadrature rejects them."""
    if np.any(np.asarray(jac) <= floor):
        i = int(np.nanargmin(jac))
        w = np.ravel(np.asarray(z, dtype=complex) - complex(z0))[i]
        raise NonPositiveJacobian(
            f"J_f = {float(np.ravel(jac)[i])} <= floor {floor} at r = {abs(w)}, "
            f"theta = {normalize_angle(float(np.angle(w)))}"
        )
    return jac
