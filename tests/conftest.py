"""Shared fixtures: catalog pairs, random smooth points, FD oracles."""

import numpy as np
import pytest

from beltrami_growth import catalog_pair

CATALOG_SPECS = [
    ("identity", {}),
    ("linear", {"a": 0.3 + 0.1j, "b": 1.2 - 0.4j, "c": 0.5j}),
    ("spiral", {}),
    ("power", {"alpha": 0.5}),
    ("power", {"alpha": 2.0}),
    ("loglog", {"alpha": 1.0}),
    ("loglog", {"alpha": 2.0}),
]

CATALOG_IDS = [
    "identity",
    "linear",
    "spiral",
    "power-0.5",
    "power-2",
    "loglog-1",
    "loglog-2",
]


@pytest.fixture(params=CATALOG_SPECS, ids=CATALOG_IDS)
def pair(request):
    name, params = request.param
    return catalog_pair(name, **params)


def smooth_points(mapping, n, rng, *, r_lo=0.05, r_hi=50.0, margin=1e-3):
    """Random points away from the origin, any seams, and domain edges.

    The margin is expressed as a relative band around each seam radius and
    as a floor on the radius, wide enough for FD stencils at h = 1e-5.
    """
    lo, hi = mapping.radial_domain
    r_lo = max(r_lo, lo * (1.0 + 10.0 * margin))
    if np.isfinite(hi):
        r_hi = min(r_hi, hi * (1.0 - 10.0 * margin))
    pts = []
    while len(pts) < n:
        r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi)))
        if any(abs(r - s) < 20.0 * margin * s for s in mapping.seam_radii):
            continue
        theta = rng.uniform(0.0, 2.0 * np.pi)
        pts.append(r * np.exp(1j * theta))
    return np.asarray(pts)


def fd_wirtinger_oracle(func, z, h):
    """Independent second-order central-difference Wirtinger derivatives.

    Deliberately written from scratch (plain Cartesian stencils) so it can
    cross-check the library's own finite-difference path.
    """
    step = h * max(1.0, abs(z))
    fxp = func(z + step)
    fxm = func(z - step)
    fyp = func(z + 1j * step)
    fym = func(z - 1j * step)
    fx = (fxp - fxm) / (2.0 * step)
    fy = (fyp - fym) / (2.0 * step)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def fd_residual_max(mapping, K, grid, h):
    """Largest |f_zbar - (w/conj(w)) f_z - K |J_f|^{1/2}| over the points of
    ``grid`` about K.center whose stencil of step h is clear of seams and the
    origin, with the derivatives from ``Mapping.wirtinger_fd`` at step h.

    The finite-difference counterpart of ``verify.pde_residual``, whose
    derivatives are analytic; its h-convergence checks the residual itself.
    """
    z, _, _ = grid.points(K.center)
    z = z[mapping.smooth_mask(z, h)]
    wp = mapping.wirtinger_fd(z, h)
    jac = np.abs(wp.d_z) ** 2 - np.abs(wp.d_zbar) ** 2
    assert z.size and np.all(jac > 0.0)
    w = z - K.center
    residual = wp.d_zbar - (w / np.conj(w)) * wp.d_z - K(z) * np.sqrt(jac)
    return float(np.max(np.abs(residual)))
