"""Catalog of explicit test mappings.

Each mapping knows how to evaluate itself, how to produce closed-form
Wirtinger derivatives away from its non-smooth set, and how to produce
second-order central-difference derivatives for cross-checking.  All
entry points accept complex scalars or numpy arrays of complex.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .complex_polar import (
    RADIUS_FLOOR,
    PolarDerivPair,
    WirtingerPair,
    polar_to_wirtinger,
)
from .errors import (
    InvalidParameter,
    NotDifferentiableHere,
    OutOfDomain,
    StencilCrossesSeam,
)

#: Radius of the piecewise seam of the doubly-logarithmic map.
LOGLOG_SEAM = math.exp(math.e)

DEFAULT_FD_STEP = 1e-5


def _asarray(z):
    a = np.asarray(z, dtype=complex)
    return a, a.ndim == 0


def read_table_csv(path, header) -> np.ndarray:
    """Strict CSV table: exactly ``header``, then one or more rows of finite
    numbers, returned as a (rows, columns) float array."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != list(header):
                raise ValueError(f"expected header {','.join(header)} in {path}, got {found}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    values = []
                if len(values) != len(header) or not all(map(math.isfinite, values)):
                    raise ValueError(
                        f"row at {path}:{lineno} is not {len(header)} finite numbers: {row}"
                    )
                rows.append(values)
        except csv.Error as exc:
            raise ValueError(f"unreadable CSV {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(rows, dtype=float)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at a table end, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (cubic first) of the monotone piecewise cubic
    Hermite interpolant of (x, y), one column per interval.

    The knot slopes are the weighted harmonic means of Fritsch and Butland
    (SIAM J. Sci. Stat. Comput. 5, 1984), zero at a local extremum, with
    one-sided three-point end slopes; two knots give the straight line.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full(y.shape, m[0])
    if x.size > 2:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            harmonic = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, harmonic))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def hermite_eval(x: np.ndarray, coef: np.ndarray, xv: np.ndarray, derivative=False):
    """Value (or first derivative) at xv in [x[0], x[-1]] of the piecewise
    cubic with power-basis coefficients ``coef`` on the intervals of x."""
    i = np.clip(np.searchsorted(x, xv, side="right") - 1, 0, x.size - 2)
    s = xv - x[i]
    c3, c2, c1, c0 = coef[:, i]
    if derivative:
        return c1 + (2.0 * c2) * s + (3.0 * c3) * (s * s)
    return c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)


#: relative distance past a radial domain edge that is taken as rounding
#: of r = |z - center| and clipped to the edge
DOMAIN_SLOP = 1e-12


def require_radii_within(r, domain: tuple, owner: str):
    """Radii r clipped into ``domain``; raise OutOfDomain, naming the radius
    farthest out and ``domain``, if one is NaN or lies beyond an edge by
    more than DOMAIN_SLOP relative.  Radii already inside come back as r
    itself."""
    lo, hi = domain
    if np.all((r >= lo) & (r <= hi)):
        return r
    r = np.asarray(r, dtype=float)
    below = ~(r >= lo * (1.0 - DOMAIN_SLOP))
    above = r > hi * (1.0 + DOMAIN_SLOP)
    if np.any(below) or np.any(above):
        worst = np.min(r[below]) if np.any(below) else np.max(r[above])
        raise OutOfDomain(f"radius {worst} outside {owner} radial domain [{lo}, {hi}]")
    return np.clip(r, lo, hi)


# The parameter guards: each rule on a constructor's parameter is stated
# here once, and a parameter that breaks it raises InvalidParameter naming it.


def require_finite_modulus(key: str, value: complex) -> float:
    """|value|, refused, naming ``key``, when it is not finite.

    abs() of a Python complex raises OverflowError, naming neither, when the
    modulus of finite parts is beyond double precision."""
    try:
        modulus = abs(complex(value))
    except OverflowError:
        modulus = math.inf
    if not math.isfinite(modulus):
        raise InvalidParameter(f"|{key}| = {modulus} is not finite: {key} = {value}")
    return modulus


def require_positive(name: str, value):
    """Refuse ``value`` unless it is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise InvalidParameter(f"{name} must be positive, got {value}")


def require_count(name: str, value, minimum: int):
    """``value``, refused unless it is an int or numpy integer, not a bool, of
    at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer")
    if value < minimum:
        raise InvalidParameter(f"{name} must be at least {minimum}, got {value}")
    return value


def require_ascending(name: str, values):
    """Refuse ``values`` unless every one is positive and they ascend
    strictly; a NaN fails both."""
    values = np.asarray(values, dtype=float)
    if not (np.all(values > 0.0) and np.all(np.diff(values) > 0.0)):
        raise InvalidParameter(f"{name} must be positive and strictly ascending")


class Mapping:
    """Base class: shared finite differences and seam logic."""

    #: point about which the seams, the origin and the domain are measured
    center: complex = 0j
    #: radii |z - center| where the map is continuous but not differentiable
    seam_radii: tuple = ()
    #: derivatives undefined at the center
    origin_singular: bool = False
    #: |z - center| interval on which evaluate is defined
    radial_domain: tuple = (0.0, math.inf)

    # -- evaluation ---------------------------------------------------------

    def _eval_array(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, z):
        za, scalar = _asarray(z)
        out = self._eval_array(np.atleast_1d(za))
        return complex(out[0]) if scalar else out

    def __call__(self, z):
        return self.evaluate(z)

    # -- closed-form derivatives -------------------------------------------

    def _wirtinger_array(self, z: np.ndarray) -> WirtingerPair:
        raise NotImplementedError

    def wirtinger_analytic(self, z) -> WirtingerPair:
        za, scalar = _asarray(z)
        za1 = np.atleast_1d(za)
        self._check_smooth(np.abs(za1 - self.center))
        wp = self._wirtinger_array(za1)
        if scalar:
            return WirtingerPair(complex(wp.d_z[0]), complex(wp.d_zbar[0]))
        return wp

    def _check_smooth(self, r: np.ndarray):
        if self.origin_singular and np.any(r < RADIUS_FLOOR):
            raise NotDifferentiableHere("derivatives undefined at the origin")
        for seam in self.seam_radii:
            if np.any(np.abs(r - seam) <= 1e-12 * seam):
                raise NotDifferentiableHere(
                    f"derivatives undefined on |z - {complex(self.center)}| = {seam}"
                )
        require_radii_within(r, self.radial_domain, "the mapping's")

    # -- finite differences -------------------------------------------------

    def wirtinger_fd(self, z, h: float = DEFAULT_FD_STEP) -> WirtingerPair:
        """Central-difference (f_z, f_zbar) with step h*max(1, |z - center|)."""
        if not (h > 0.0):
            raise ValueError(f"step must be positive, got {h}")
        za, scalar = _asarray(z)
        za = np.atleast_1d(za)
        s = h * np.maximum(1.0, np.abs(za - self.center))
        stencil = (za + s, za - s, za + 1j * s, za - 1j * s)
        self._check_stencil(za, s, stencil)
        fx = (self._eval_array(za + s) - self._eval_array(za - s)) / (2.0 * s)
        fy = (self._eval_array(za + 1j * s) - self._eval_array(za - 1j * s)) / (2.0 * s)
        d_z = 0.5 * (fx - 1j * fy)
        d_zbar = 0.5 * (fx + 1j * fy)
        if scalar:
            return WirtingerPair(complex(d_z[0]), complex(d_zbar[0]))
        return WirtingerPair(d_z, d_zbar)

    def _check_stencil(self, z, s, stencil):
        r0 = np.abs(z - self.center)
        if self.origin_singular and np.any(r0 <= 2.0 * s):
            raise StencilCrossesSeam("stencil reaches into the origin's excluded disk")
        radii = [np.abs(p - self.center) for p in stencil]
        for seam in self.seam_radii:
            side0 = r0 > seam
            for rp in radii:
                if np.any((rp > seam) != side0):
                    raise StencilCrossesSeam(
                        f"stencil straddles the seam |z - {complex(self.center)}| = {seam}"
                    )
        lo, hi = self.radial_domain
        for rp in radii:
            if np.any(rp < lo) or np.any(rp > hi):
                raise StencilCrossesSeam("stencil leaves the mapping's radial domain")

    def smooth_mask(self, z, h: float = DEFAULT_FD_STEP) -> np.ndarray:
        """Points whose FD stencil of step h stays inside the smooth region."""
        za, _ = _asarray(z)
        za = np.atleast_1d(za)
        r = np.abs(za - self.center)
        # twice the stencil step of wirtinger_fd
        margin = 2.0 * h * np.maximum(1.0, r)
        ok = np.ones(za.shape, dtype=bool)
        if self.origin_singular:
            ok &= r > np.maximum(margin, RADIUS_FLOOR)
        for seam in self.seam_radii:
            ok &= np.abs(r - seam) > margin
        lo, hi = self.radial_domain
        ok &= (r - margin >= lo) & (r + margin <= hi)
        return ok


class RadialMapping(Mapping):
    """Radial map f(z) = rho(r) w/|w| with w = z - center and r = |w|,
    f(center) = 0.  A subclass supplies only rho and its derivative; the
    polar derivatives are f_r = rho'(r) w/|w| and f_theta = i rho(r) w/|w|,
    so J_f = rho rho' / r depends on r alone, and the map commutes with
    rotations about the center."""

    def _rho_of_r(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _drho_of_r(self, r: np.ndarray, rho_r: np.ndarray) -> np.ndarray:
        """rho'(r), given rho_r = rho(r)."""
        raise NotImplementedError

    def _eval_array(self, z):
        w = z - self.center
        r = np.abs(w)
        out = np.zeros(z.shape, dtype=complex)
        mask = r > 0.0
        # rho of a radius far out or far in may leave the double range; the
        # circle mean's check refuses the inf or nan, so numpy need not warn.
        # rho times the unit w / r overflows only with rho itself; w / r is
        # divided by parts, since numpy's complex division multiplies by a
        # rounded 1 / r, so f at a theta = 0 node is rho bit for bit
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w, r = w[mask], r[mask]
            out[mask] = self._rho_of_r(r) * (w.real / r + 1j * (w.imag / r))
        return out

    def _wirtinger_array(self, z):
        # one complex array holds w, then w/|w|, then f_theta: the disk sweep
        # calls this on ~10^5 points at a time
        d_theta = z - self.center
        r = np.abs(d_theta)
        # as in _eval_array; PolarDerivPair's finite guard refuses the result
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            d_theta /= r
            rho_r = self._rho_of_r(r)
            d_r = self._drho_of_r(r, rho_r) * d_theta
            d_theta *= 1j * rho_r
        return polar_to_wirtinger(z, self.center, PolarDerivPair(d_r, d_theta))


@dataclass(frozen=True)
class Identity(Mapping):
    """f(z) = z; f_z = 1, f_zbar = 0 and J = 1."""

    def _eval_array(self, z):
        return z

    def _wirtinger_array(self, z):
        one = np.ones(z.shape, dtype=complex)
        return WirtingerPair(one, np.zeros(z.shape, dtype=complex))


@dataclass(frozen=True)
class Linear(Mapping):
    """f(z) = A*conj(z) + B*z + C with |A| != |B|; J = |B|^2 - |A|^2."""

    a: complex
    b: complex
    c: complex = 0j

    def __post_init__(self):
        if not all(np.isfinite([self.a, self.b, self.c]).tolist()):
            raise ValueError("coefficients must be finite")
        abs_a, abs_b = require_finite_modulus("a", self.a), require_finite_modulus("b", self.b)
        if abs(abs_a - abs_b) == 0.0:
            raise ValueError("degenerate linear map: |A| must differ from |B|")

    def _eval_array(self, z):
        # np.multiply keeps the scalar first: numpy may evaluate
        # ``a * temporary`` in place as ``temporary * a`` on large arrays,
        # which rounds differently, so a value would depend on the array size
        return np.multiply(self.a, np.conj(z)) + self.b * z + self.c

    def _wirtinger_array(self, z):
        return WirtingerPair(
            np.full(z.shape, complex(self.b)), np.full(z.shape, complex(self.a))
        )


@dataclass(frozen=True)
class Spiral(Mapping):
    """Area-preserving spiral f(z) = z * e^{2i ln|z|}, f(0) = 0; J = 1."""

    origin_singular = True

    def _eval_array(self, z):
        r = np.abs(z)
        out = np.zeros(z.shape, dtype=complex)
        mask = r > 0.0
        out[mask] = z[mask] * np.exp(2j * np.log(r[mask]))
        return out

    def _wirtinger_array(self, z):
        phase = np.exp(2j * np.log(np.abs(z)))
        d_z = (1.0 + 1j) * phase
        d_zbar = 1j * (z / np.conj(z)) * phase
        return WirtingerPair(d_z, d_zbar)


@dataclass(frozen=True)
class Power(RadialMapping):
    """Radial stretch f(z) = |z|^{1/alpha - 1} z, f(0) = 0, alpha > 0."""

    alpha: float
    origin_singular = True

    def __post_init__(self):
        require_positive("alpha", self.alpha)

    def _rho_of_r(self, r):
        return r ** (1.0 / self.alpha)

    def _drho_of_r(self, r, rho_r):
        return (1.0 / self.alpha) * r ** ((1.0 - self.alpha) / self.alpha)


@dataclass(frozen=True)
class LogLog(RadialMapping):
    """Bounded-growth map: (ln ln|z|)^{1/alpha} z/|z| outside |z| = e^e,
    the linear map e^{-e} z inside; continuous across the seam."""

    alpha: float
    seam_radii = (LOGLOG_SEAM,)
    origin_singular = True

    def __post_init__(self):
        require_positive("alpha", self.alpha)

    def _rho_of_r(self, r):
        out = math.exp(-math.e) * r
        outer = r >= LOGLOG_SEAM
        if np.any(outer):
            out[outer] = np.log(np.log(r[outer])) ** (1.0 / self.alpha)
        return out

    def _drho_of_r(self, r, rho_r):
        out = np.full(r.shape, math.exp(-math.e))
        outer = r > LOGLOG_SEAM
        if np.any(outer):
            ro = r[outer]
            out[outer] = (
                (1.0 / self.alpha)
                * np.log(np.log(ro)) ** ((1.0 - self.alpha) / self.alpha)
                / (np.log(ro) * ro)
            )
        return out


@dataclass(frozen=True, eq=False)
class RadialTable(RadialMapping):
    """Tabulated radial homeomorphism f(center + r e^{it}) = rho(r) e^{it}.

    rho is interpolated monotonically (pchip, :func:`pchip_coefficients`) in
    log-log coordinates, which keeps it strictly increasing and reproduces
    power-law profiles exactly.
    With ``linear_inner`` the map is extended below the first knot by the
    linear piece rho_0 * r / r_0, making it a homeomorphism of the full disk
    (continuous but generally not differentiable at the first knot).
    """

    knots: np.ndarray
    rho: np.ndarray
    center: complex = 0j
    linear_inner: bool = False
    #: ln(knots) and the pchip coefficients of ln(rho) over them
    _log_knots: np.ndarray = field(init=False, repr=False, compare=False)
    _coef: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if knots.ndim != 1 or knots.shape != rho.shape or knots.size < 2:
            raise ValueError("knots and rho must be 1-d arrays of equal length >= 2")
        require_ascending("knots", knots)
        if not (np.all(rho > 0.0) and np.all(np.diff(rho) > 0.0)):
            raise ValueError("rho must be positive and strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rho", rho)
        log_knots = np.log(knots)
        object.__setattr__(self, "_log_knots", log_knots)
        object.__setattr__(self, "_coef", pchip_coefficients(log_knots, np.log(rho)))
        object.__setattr__(
            self,
            "seam_radii",
            (float(knots[0]),) if self.linear_inner else (),
        )
        lo = 0.0 if self.linear_inner else float(knots[0])
        object.__setattr__(self, "radial_domain", (lo, float(knots[-1])))

    @classmethod
    def from_csv(cls, path, center: complex = 0j, linear_inner: bool = False) -> "RadialTable":
        """Load from strict CSV with header ``r,rho``."""
        data = read_table_csv(path, ("r", "rho"))
        return cls(data[:, 0], data[:, 1], center, linear_inner)

    def _rho_of_r(self, r: np.ndarray) -> np.ndarray:
        r = require_radii_within(r, self.radial_domain, "the table's")
        out = np.empty(r.shape, dtype=float)
        inner = r < self.knots[0]
        out[inner] = self.rho[0] / self.knots[0] * r[inner]
        tab = ~inner
        if np.any(tab):
            out[tab] = np.exp(hermite_eval(self._log_knots, self._coef, np.log(r[tab])))
        return out

    def _drho_of_r(self, r: np.ndarray, rho_r: np.ndarray) -> np.ndarray:
        out = np.empty(r.shape, dtype=float)
        inner = r < self.knots[0]
        out[inner] = self.rho[0] / self.knots[0]
        tab = ~inner
        if np.any(tab):
            # d rho/d r = (rho / r) * d ln rho / d ln r
            slope = hermite_eval(self._log_knots, self._coef, np.log(r[tab]), derivative=True)
            out[tab] = rho_r[tab] / r[tab] * slope
        return out
