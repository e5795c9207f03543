"""Coefficient fields, the sigma form, angular dilatation and circle averages.

The coefficient field K is the right-hand-side multiplier of the equation
f_zbar - (w/conj(w)) f_z = K |J_f|^{1/2}, w = z - z0.  Its sigma form is
sigma = -i K conj(w), and the radial profile kappa(r) is the angular mean
of |K|^2 on the circle of radius r about the field's center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_polar import (
    RADIUS_FLOOR,
    TWO_PI,
    jacobian_polar,
    require_jacobian_above,
    wirtinger_to_polar,
)
from .errors import DegenerateRadius, OutOfDomain, QuadratureFailure
from .mappings import LOGLOG_SEAM, Mapping, read_table_csv

JACOBIAN_FLOOR = 1e-14


@dataclass(frozen=True)
class CircleQuadrature:
    """Uniform periodic-trapezoid rule on a circle; n samples."""

    n: int = 1024

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"need at least 8 quadrature nodes, got {self.n}")

    def angles(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    def points(self, z0: complex, r) -> np.ndarray:
        """The n nodes on the circle |z - z0| = r; an r of shape (k, 1) gives
        one row of nodes per radius."""
        return complex(z0) + r * np.exp(1j * self.angles())

    def mean(self, samples: np.ndarray):
        """Angular mean over the last axis: a float for one circle, an array
        for one row per circle.  np.mean uses pairwise summation along each
        row, so results are reproducible for a fixed n."""
        if not np.all(np.isfinite(samples)):
            raise QuadratureFailure("non-finite quadrature sample on the circle")
        out = np.mean(samples, axis=-1)
        return float(out) if np.ndim(out) == 0 else out


class CoefficientField:
    """Base class for the coefficient K; callable on complex scalars/arrays."""

    center: complex = 0j
    #: radii |z - center| where the field jumps or kinks (piecewise variants)
    radial_breakpoints: tuple = ()
    #: (lower, upper) radii |z - center| on which the field is defined
    radial_domain: tuple = (0.0, math.inf)

    def _offset(self, z):
        w = np.asarray(z, dtype=complex) - self.center
        r = np.abs(w)
        if np.any(r < RADIUS_FLOOR):
            raise DegenerateRadius("coefficient undefined at the field's center")
        return w, r

    def _value_array(self, w, r):
        raise NotImplementedError

    def __call__(self, z):
        za = np.atleast_1d(np.asarray(z, dtype=complex))
        w, r = self._offset(za)
        out = self._value_array(w, r)
        return complex(out[0]) if np.ndim(z) == 0 else out

    def abs2(self, z):
        """|K|^2, used by the circle average kappa."""
        out = np.abs(self(z)) ** 2
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class LinearCoefficient(CoefficientField):
    """Coefficient solved by the linear map A*conj(z) + B*z + C."""

    a: complex
    b: complex
    center: complex = 0j

    def __post_init__(self):
        if abs(abs(self.a) - abs(self.b)) == 0.0:
            raise ValueError("degenerate coefficient: |A| must differ from |B|")

    def _value_array(self, w, r):
        delta = abs(self.b) ** 2 - abs(self.a) ** 2
        return (self.a * np.conj(w) - self.b * w) / (
            math.sqrt(abs(delta)) * np.conj(w)
        )


@dataclass(frozen=True)
class SpiralCoefficient(CoefficientField):
    """Coefficient solved by the spiral map: -(w/conj(w)) e^{2i ln|w|}."""

    center: complex = 0j

    def _value_array(self, w, r):
        return -(w / np.conj(w)) * np.exp(2j * np.log(r))


@dataclass(frozen=True)
class PowerCoefficient(CoefficientField):
    """Constant-dilatation coefficient -sqrt(alpha) w/conj(w)."""

    alpha: float
    center: complex = 0j

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def _value_array(self, w, r):
        return -math.sqrt(self.alpha) * w / np.conj(w)


@dataclass(frozen=True)
class LogLogCoefficient(CoefficientField):
    """Piecewise coefficient solved by the doubly-logarithmic map:
    -sqrt(alpha * ln r * ln ln r) * w/conj(w) outside |w| = e^e, -w/conj(w) inside."""

    alpha: float
    center: complex = 0j
    radial_breakpoints = (LOGLOG_SEAM,)

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def _value_array(self, w, r):
        unit2 = w / np.conj(w)
        out = -unit2
        outer = r >= LOGLOG_SEAM
        if np.any(outer):
            ro = r[outer]
            out[outer] = (
                -np.sqrt(self.alpha * np.log(ro) * np.log(np.log(ro))) * unit2[outer]
            )
        return out


@dataclass(frozen=True, eq=False)
class RadialCoefficient(CoefficientField):
    """Radial coefficient -sqrt(kappa(r)) w/conj(w) built from a kappa profile.

    The unimodular phase is fixed to match the sign convention of the
    catalog's radial solutions; any other phase has the same |K|^2.
    """

    kappa_of_r: object  # callable r -> kappa(r), vectorized
    center: complex = 0j
    radial_breakpoints: tuple = ()
    radial_domain: tuple = (0.0, math.inf)

    def _check_domain(self, r):
        lo, hi = self.radial_domain
        if np.any(r < lo) or np.any(r > hi):
            raise OutOfDomain("radius outside the coefficient's tabulated range")

    def _value_array(self, w, r):
        self._check_domain(r)
        return -np.sqrt(self.kappa_of_r(r)) * w / np.conj(w)

    def abs2(self, z):
        za = np.atleast_1d(np.asarray(z, dtype=complex))
        w, r = self._offset(za)
        self._check_domain(r)
        out = np.asarray(self.kappa_of_r(r), dtype=float)
        return float(out[0]) if np.ndim(z) == 0 else out


@dataclass(frozen=True, eq=False)
class GridCoefficient(CoefficientField):
    """|K|^2 tabulated on an (r, theta) lattice, bilinear in (ln r, theta).

    The table is periodic in theta over [thetas[0], thetas[0] + 2*pi] and
    raises OutOfDomain outside [radii[0], radii[-1]], up to 1e-12 relative.
    Only the squared modulus is tabulated; the complex value uses the same
    radial phase convention as :class:`RadialCoefficient`.
    """

    radii: np.ndarray
    thetas: np.ndarray
    k2: np.ndarray  # shape (len(radii), len(thetas))
    center: complex = 0j
    #: ln(radii), the thetas closed by thetas[0] + 2*pi, and the table closed
    #: by its first column
    _lattice: tuple = field(init=False, repr=False)

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        thetas = np.asarray(self.thetas, dtype=float)
        k2 = np.asarray(self.k2, dtype=float)
        if radii.ndim != 1 or thetas.ndim != 1 or radii.size < 2 or thetas.size < 1:
            raise ValueError("need at least two radii and one angle")
        if k2.shape != (radii.size, thetas.size):
            raise ValueError("k2 must have shape (len(radii), len(thetas))")
        if not np.all((k2 >= 0.0) & np.isfinite(k2)):
            raise ValueError("tabulated |K|^2 values must be finite and nonnegative")
        if not np.all(np.diff(radii) > 0.0) or not np.all(radii > 0.0):
            raise ValueError("radii must be positive and strictly ascending")
        if not np.all(np.diff(thetas) > 0.0) or thetas[0] < 0.0 or thetas[-1] >= TWO_PI:
            raise ValueError("thetas must be strictly ascending in [0, 2*pi)")
        lattice = (
            np.log(radii),
            np.concatenate([thetas, [thetas[0] + TWO_PI]]),
            np.concatenate([k2, k2[:, :1]], axis=1),
        )
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "_lattice", lattice)
        # bilinear in ln r: each interior radius is a kink of kappa
        object.__setattr__(self, "radial_breakpoints", tuple(radii[1:-1].tolist()))
        object.__setattr__(self, "radial_domain", (float(radii[0]), float(radii[-1])))

    @classmethod
    def from_csv(cls, path, center: complex = 0j) -> "GridCoefficient":
        """Load from strict CSV with header ``r,theta,k2`` sorted by (r, theta)."""
        data = read_table_csv(path, ("r", "theta", "k2"))
        radii = np.unique(data[:, 0])
        thetas = np.unique(data[:, 1])
        if data.shape[0] != radii.size * thetas.size:
            raise ValueError("grid is not a complete (r, theta) lattice")
        expected_r = np.repeat(radii, thetas.size)
        expected_t = np.tile(thetas, radii.size)
        if not (np.array_equal(data[:, 0], expected_r) and np.array_equal(data[:, 1], expected_t)):
            raise ValueError("rows must be sorted by (r, theta)")
        k2 = data[:, 2].reshape(radii.size, thetas.size)
        return cls(radii, thetas, k2, center)

    def _k2_at(self, w, r):
        log_r, th, table = self._lattice
        x = np.log(r)
        # absorb rounding slop from r = |z - center| at the table edges
        if not np.all((x >= log_r[0] - 1e-12) & (x <= log_r[-1] + 1e-12)):
            raise OutOfDomain(
                f"radius outside the tabulated range [{self.radii[0]}, {self.radii[-1]}]"
            )
        x = np.clip(x, log_r[0], log_r[-1])
        t = th[0] + np.mod(np.angle(w) - th[0], TWO_PI)
        i = np.clip(np.searchsorted(log_r, x, side="right") - 1, 0, log_r.size - 2)
        j = np.clip(np.searchsorted(th, t, side="right") - 1, 0, th.size - 2)
        y = (x - log_r[i]) / (log_r[i + 1] - log_r[i])
        s = (t - th[j]) / (th[j + 1] - th[j])
        return (
            table[i, j] * (1 - y) * (1 - s)
            + table[i, j + 1] * (1 - y) * s
            + table[i + 1, j] * y * (1 - s)
            + table[i + 1, j + 1] * y * s
        )

    def _value_array(self, w, r):
        return -np.sqrt(self._k2_at(w, r)) * w / np.conj(w)

    def abs2(self, z):
        za = np.atleast_1d(np.asarray(z, dtype=complex))
        w, r = self._offset(za)
        out = self._k2_at(w, r)
        return float(out[0]) if np.ndim(z) == 0 else out


def sigma_from_K(K: CoefficientField, z):
    """sigma = -i * K(z) * conj(z - center)."""
    w = np.asarray(z, dtype=complex) - K.center
    if np.any(np.abs(w) < RADIUS_FLOOR):
        raise DegenerateRadius("sigma undefined at the field's center")
    out = -1j * np.asarray(K(z)) * np.conj(w)
    return complex(out) if np.ndim(z) == 0 else out


def K_from_sigma(sigma, z, center: complex = 0j):
    """Exact inverse of :func:`sigma_from_K`: K = -sigma / (i conj(w)), from
    the values ``sigma`` sampled at z about ``center``."""
    w = np.asarray(z, dtype=complex) - center
    if np.any(np.abs(w) < RADIUS_FLOOR):
        raise DegenerateRadius("coefficient undefined at the field's center")
    out = -np.asarray(sigma) / (1j * np.conj(w))
    return complex(out) if np.ndim(z) == 0 else out


def angular_dilatation(mapping: Mapping, z0: complex, z):
    """|f_theta|^2 / (r^2 J_f) at z, about the center z0."""
    pd = wirtinger_to_polar(z, z0, mapping.wirtinger_analytic(z))
    r = np.abs(np.asarray(z, dtype=complex) - z0)
    jac = require_jacobian_above(jacobian_polar(r, pd), JACOBIAN_FLOOR, z, z0)
    out = np.abs(np.asarray(pd.d_theta)) ** 2 / (r**2 * jac)
    return float(out) if np.ndim(z) == 0 else out


def dilatation_on_circle(
    mapping: Mapping, z0: complex, r, q: CircleQuadrature = CircleQuadrature()
) -> np.ndarray:
    """Angular dilatation sampled on the n uniform angles of the circle; a
    1-d array of radii gives one row of samples per radius."""
    radii = np.asarray(r, dtype=float)
    z = q.points(z0, radii if radii.ndim == 0 else radii[:, None])
    return angular_dilatation(mapping, z0, z)


def circle_average_D(
    mapping: Mapping, z0: complex, r, q: CircleQuadrature = CircleQuadrature()
):
    """Angular mean of the dilatation over the circle |z - z0| = r.

    The 1/(2*pi*r) normalization and the arc element |dz| = r d(theta)
    cancel, leaving a plain mean over theta.  A 1-d array of radii gives
    one mean per radius from one (radii x n) block of samples.
    """
    return q.mean(dilatation_on_circle(mapping, z0, r, q))


def kappa(K: CoefficientField, r, q: CircleQuadrature = CircleQuadrature()):
    """Angular mean of |K|^2 on the circle of radius r about the field center.

    A 1-d array of radii gives one mean per radius from one K.abs2 call on
    a (radii x n) array of circle points.
    """
    radii = np.asarray(r, dtype=float)
    if radii.ndim > 1 or not np.all(radii > 0.0):
        raise ValueError(f"radius must be positive, got {r}")
    z = q.points(K.center, radii if radii.ndim == 0 else radii[:, None])
    return q.mean(np.asarray(K.abs2(z), dtype=float))
