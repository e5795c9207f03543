"""Coefficient fields, kappa profiles, the sigma form, dilatation and circle means.

The coefficient field K is the right-hand-side multiplier of the equation
f_zbar - (w/conj(w)) f_z = K |J_f|^{1/2}, w = z - z0.  Its sigma form is
sigma = -i K conj(w), and the radial profile kappa(r) is the angular mean
of |K|^2 on the circle of radius r about the field's center.  A radial
coefficient takes |K|^2 from a kappa profile; FieldProfile goes the other way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_polar import (
    TWO_PI,
    center_offset,
    jacobian_polar,
    require_jacobian_above,
    wirtinger_to_polar,
)
from .errors import DomainError, NonPositiveKappa, QuadratureFailure
from .mappings import LOGLOG_SEAM, Mapping, read_table_csv, require_radii_within
from .mappings import require_known_symmetry

JACOBIAN_FLOOR = 1e-14
#: most circle points one call of a many-circle kernel evaluates.  Larger
#: blocks were slower on verify: their temporaries (256 KiB and up per complex
#: array) come back from the allocator as fresh pages on every call
BLOCK_POINTS = 1 << 14
#: what a circle integrand depends on: anything, the radius |z - center|
#: alone, or the angle arg(z - center) alone
CIRCLE_SYMMETRIES = (None, "radius", "angle")


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
        one row of nodes per radius.  A circle that leaves the double range
        raises QuadratureFailure (:func:`_finite_nodes`)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite_nodes(complex(z0) + r * np.exp(1j * self.angles()), z0, r)

    def mean(self, samples: np.ndarray):
        """Angular mean over the last axis: a float for one circle, an array
        for one row per circle.  np.mean uses pairwise summation along each
        row, so results are reproducible for a fixed n."""
        if not np.all(np.isfinite(samples)):
            raise QuadratureFailure("non-finite quadrature sample on the circle")
        out = np.mean(samples, axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    def blockwise(self, fn, radii: np.ndarray) -> np.ndarray:
        """fn over consecutive slices of ``radii`` along its first axis, at most
        BLOCK_POINTS // n circles (and at least one) per slice, concatenated
        along the first axis.  fn must treat each circle on its own, as a
        row-wise mean does, so the result does not depend on the slicing."""
        rows = max(1, BLOCK_POINTS // self.n)
        # an empty radii array still makes one (empty) call
        return np.concatenate(
            [fn(radii[i : i + rows]) for i in range(0, max(1, radii.size), rows)]
        )

    def circle_means(self, sample, center: complex, r, symmetry=None):
        """Angular mean of ``sample``, which maps an array of points to the
        integrand there, on each circle |z - center| = r: a float for a
        positive scalar r, one mean per radius for a 1-d array of them.
        ``symmetry``, one of CIRCLE_SYMMETRIES, says what the integrand
        depends on.  With None, full circles go to ``sample`` in blocks
        (:meth:`blockwise`); with "radius", every circle is read at its
        theta = 0 node center + r alone, in one call; with "angle", the mean
        over the unit circle about center is every circle's mean.  A fixed
        unit circle, not the first radius, keeps a radius's mean the same
        whatever radii come with it.  Each mean goes through :meth:`mean` and
        its non-finite check."""
        if symmetry not in CIRCLE_SYMMETRIES:
            raise ValueError(f"unknown circle symmetry {symmetry!r}, not in {CIRCLE_SYMMETRIES}")
        radii = np.asarray(r, dtype=float)
        if radii.ndim > 1:
            raise ValueError(f"radius must be a scalar or a 1-d array, got shape {radii.shape}")
        if not np.all(radii > 0.0):
            raise ValueError(f"radius must be positive, got {r}")
        rows = np.atleast_1d(radii)[:, None]
        if symmetry == "radius":
            with np.errstate(over="ignore"):
                nodes = _finite_nodes(complex(center) + rows, center, rows)
            out = self.mean(sample(nodes))
        elif symmetry == "angle":
            # no circle at all for no radii, as on the full path
            unit = np.ones((min(1, rows.shape[0]), 1))
            out = np.repeat(self.mean(sample(self.points(center, unit))), rows.shape[0])
        else:
            out = self.blockwise(lambda block: self.mean(sample(self.points(center, block))), rows)
        return float(out[0]) if radii.ndim == 0 else out


def _finite_nodes(nodes: np.ndarray, center, r) -> np.ndarray:
    """The circle nodes about center at the radii r, if every one is within
    the double range; otherwise raise QuadratureFailure naming the first
    radius whose circle leaves it."""
    finite = np.isfinite(nodes)
    if finite.all():
        return nodes
    radius = np.broadcast_to(r, nodes.shape)[np.unravel_index(np.argmin(finite), nodes.shape)]
    raise QuadratureFailure(
        f"the circle of radius {float(radius)} about {complex(center)} leaves the double range"
    )


class CoefficientField:
    """Base class for the coefficient K; callable on complex scalars/arrays.

    A radial-phase field defines only |K|^2 (``_abs2_array``) and takes the
    phase K = -sqrt(|K|^2) w/conj(w), the sign convention of the catalog's
    radial solutions; any other phase has the same |K|^2.  A field with its
    own phase defines ``_value_array`` instead.  ``abs2_symmetry``, one of
    CIRCLE_SYMMETRIES, says what |K|^2 depends on, and kappa hands it to
    CircleQuadrature.circle_means: "radius" for |z - center| alone, "angle"
    for arg(z - center) alone; a field with "angle" is defined for every
    radius and has no radial breakpoints.
    """

    center: complex = 0j
    #: one of CIRCLE_SYMMETRIES: what |K|^2 depends on
    abs2_symmetry: str | None = None
    #: radii |z - center| where the field jumps or kinks (piecewise variants)
    radial_breakpoints: tuple = ()
    #: (lower, upper) radii |z - center| on which the field is defined
    radial_domain: tuple = (0.0, math.inf)

    def __init_subclass__(cls):
        require_known_symmetry(cls, "abs2_symmetry", CIRCLE_SYMMETRIES)

    def _abs2_array(self, w, r):
        return np.abs(self._value_array(w, r)) ** 2

    def _value_array(self, w, r):
        return -np.sqrt(self._abs2_array(w, r)) * w / np.conj(w)

    def _at(self, method, z, scalar):
        """method(w, r) at the points z; a scalar z gives scalar(value)."""
        out = method(*center_offset(np.atleast_1d(z), self.center))
        return scalar(out[0]) if np.ndim(z) == 0 else out

    def __call__(self, z):
        return self._at(self._value_array, z, complex)

    def abs2(self, z):
        """|K|^2, used by the circle average kappa."""
        return self._at(self._abs2_array, z, float)


@dataclass(frozen=True)
class LinearCoefficient(CoefficientField):
    """Coefficient solved by the linear map A*conj(z) + B*z + C:
    |K|^2 = |A - B e^{2i theta}|^2 / ||B|^2 - |A|^2| depends on the angle alone."""

    a: complex
    b: complex
    center: complex = 0j
    abs2_symmetry = "angle"

    def __post_init__(self):
        if abs(abs(self.a) - abs(self.b)) == 0.0:
            raise ValueError("degenerate coefficient: |A| must differ from |B|")
        try:  # squared as in _value_array, where a Python float raises on overflow
            abs(self.b) ** 2 - abs(self.a) ** 2
        except OverflowError:
            raise ValueError(
                "|B|^2 - |A|^2 is beyond double precision: "
                f"|A| = {abs(self.a)}, |B| = {abs(self.b)}"
            ) from None

    def _value_array(self, w, r):
        delta = abs(self.b) ** 2 - abs(self.a) ** 2
        # np.multiply keeps the scalar first, as in mappings.Linear
        return (np.multiply(self.a, np.conj(w)) - self.b * w) / (
            math.sqrt(abs(delta)) * np.conj(w)
        )


@dataclass(frozen=True)
class SpiralCoefficient(CoefficientField):
    """Coefficient solved by the spiral map: -(w/conj(w)) e^{2i ln|w|}."""

    center: complex = 0j
    abs2_symmetry = "radius"

    def _value_array(self, w, r):
        return -(w / np.conj(w)) * np.exp(2j * np.log(r))


@dataclass(frozen=True, eq=False)
class RadialCoefficient(CoefficientField):
    """Radial coefficient with |K|^2 = kappa(r) from a kappa profile, whose
    breakpoints it takes; the domain defaults to the profile's."""

    profile: KappaProfile
    center: complex = 0j
    radial_domain: tuple | None = None
    abs2_symmetry = "radius"

    def __post_init__(self):
        object.__setattr__(self, "radial_breakpoints", tuple(self.profile.breakpoints))
        if self.radial_domain is None:
            object.__setattr__(self, "radial_domain", tuple(self.profile.domain))

    def _abs2_array(self, w, r):
        r = require_radii_within(r, self.radial_domain, "the coefficient's")
        return np.asarray(self.profile(r), dtype=float)


class PowerCoefficient(RadialCoefficient):
    """Constant-dilatation coefficient -sqrt(alpha) w/conj(w): kappa = alpha."""

    def __init__(self, alpha: float, center: complex = 0j):
        super().__init__(ConstantProfile(alpha), center)


class LogLogCoefficient(RadialCoefficient):
    """Coefficient solved by the doubly-logarithmic map: kappa = loglog_example_profile."""

    def __init__(self, alpha: float, center: complex = 0j):
        super().__init__(loglog_example_profile(alpha), center)


@dataclass(frozen=True, eq=False)
class GridCoefficient(CoefficientField):
    """|K|^2 tabulated on an (r, theta) lattice, bilinear in (ln r, theta).

    The table is periodic in theta over [thetas[0], thetas[0] + 2*pi] and
    defined on the radial domain [radii[0], radii[-1]].
    Only the squared modulus is tabulated; the complex value takes the
    radial phase of :class:`CoefficientField`.
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

    def _abs2_array(self, w, r):
        log_r, th, table = self._lattice
        x = np.log(require_radii_within(r, self.radial_domain, "the coefficient's"))
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


def sigma_from_K(K: CoefficientField, z):
    """sigma = -i * K(z) * conj(z - center); K(z) rejects the center."""
    out = -1j * np.asarray(K(z)) * np.conj(np.asarray(z, dtype=complex) - K.center)
    return complex(out) if np.ndim(z) == 0 else out


def K_from_sigma(sigma, z, center: complex = 0j):
    """Exact inverse of :func:`sigma_from_K`: K = -sigma / (i conj(w)), from
    the values ``sigma`` sampled at z about ``center``."""
    w, _ = center_offset(z, center)
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
    1-d array of radii gives one row per radius.  Only bench/tracing.py uses it."""
    radii = np.asarray(r, dtype=float)
    z = q.points(z0, radii if radii.ndim == 0 else radii[:, None])
    return angular_dilatation(mapping, z0, z)


def circle_average_D(
    mapping: Mapping, z0: complex, r, q: CircleQuadrature = CircleQuadrature()
):
    """Angular mean of the dilatation over the circle |z - z0| = r.

    The 1/(2*pi*r) normalization and the arc element |dz| = r d(theta)
    cancel, leaving a plain mean over theta.  A 1-d array of radii gives
    one mean per radius (CircleQuadrature.circle_means).  About the center
    of a map whose symmetry is "equivariant" the dilatation is the same all
    round each circle, and one node per circle is read.
    """
    symmetry = "radius" if mapping.symmetry_about(z0) == "equivariant" else None
    return q.circle_means(lambda z: angular_dilatation(mapping, z0, z), z0, r, symmetry)


def kappa(K: CoefficientField, r, q: CircleQuadrature = CircleQuadrature()):
    """Angular mean of |K|^2 on the circle of radius r about the field center.

    A 1-d array of radii gives one mean per radius.  K.abs2_symmetry goes
    to CircleQuadrature.circle_means as it is: with "radius" one node per
    circle is read, with "angle" the unit circle's mean is every circle's.
    """
    return q.circle_means(K.abs2, K.center, r, K.abs2_symmetry)


# ---------------------------------------------------------------------------
# iterated logarithms and exponential towers

E_1 = math.e
E_2 = LOGLOG_SEAM  # e^e
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
        rr = require_radii_within(np.asarray(r, dtype=float), self.domain, "the profile's")
        # ln_k r = ln(ln_{k-1} r) >= 1 after the clip, so no log leaves its domain
        out = self.alpha * np.ones(rr.shape)
        log_k = rr
        # a product beyond the double range is inf, which the kappa guards refuse
        with np.errstate(over="ignore"):
            for _ in range(self.depth):
                log_k = np.log(log_k)
                out = out * log_k
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
        rr = require_radii_within(np.asarray(r, dtype=float), self.domain, "the profile's")
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
            return kappa(self.coefficient, float(r), self.quadrature)
        rr = np.asarray(r, dtype=float)
        return kappa(self.coefficient, rr.ravel(), self.quadrature).reshape(rr.shape)


def loglog_example_profile(alpha: float) -> PiecewiseProfile:
    """The piecewise profile 1 below e^e and alpha*ln(r)*ln ln(r) above it."""
    return PiecewiseProfile((E_2,), (ConstantProfile(1.0), LogProductProfile(alpha, 2)))
