"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Each test prints its verdict before asserting, so the summary line appears
for failing criteria as well.
"""

import json
import math

import numpy as np

from beltrami_growth import (
    AnnulusGrid,
    CoefficientBound,
    ConstantProfile,
    KappaBound,
    LogProductProfile,
    LOGLOG_SEAM,
    RadiusLadder,
    angular_dilatation,
    area_bound_check,
    build_extremal,
    catalog_pair,
    corollary_exponent,
    differential_inequality_check,
    envelope_integral,
    isoperimetric_check,
    iterated_log,
    jacobian_wirtinger,
    kappa,
    modulus_extremes,
    pde_residual,
    real_system_residual,
    sharpness_ladder,
    theorem1_check,
    tower,
)
from beltrami_growth.cli import main
from beltrami_growth.dilatation import E_2, E_3
from conftest import CATALOG_IDS, CATALOG_SPECS, fd_residual_max, smooth_points

RNG = np.random.default_rng(42)


def verdict(number, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {label}{suffix}")
    return ok


def test_criterion_01_spiral_certification():
    # area-preserving spiral solution: J == 1 and zero residual at 10^4 points
    mapping, K = catalog_pair("spiral")
    grid = AnnulusGrid(0.5, 20.0, n_r=100, n_theta=100)
    z, _, _ = grid.points(0j)
    jac = jacobian_wirtinger(mapping.wirtinger_analytic(z))
    jac_dev = float(np.max(np.abs(jac - 1.0)))
    rep = pde_residual(mapping, K, grid)
    ok = jac_dev <= 1e-12 and rep.max_abs <= 1e-12 and rep.count == 10000
    assert verdict(
        1,
        "spiral map: unit Jacobian and zero residual at 10^4 points",
        ok,
        f"|J-1|<={jac_dev:.2e}, residual<={rep.max_abs:.2e}",
    )


def test_criterion_02_power_suite():
    failures = []
    for alpha in (0.5, 1.0, 2.0):
        mapping, K = catalog_pair("power", alpha=alpha)
        z = smooth_points(mapping, 50, RNG)
        if np.max(np.abs(angular_dilatation(mapping, 0j, z) - alpha)) > 1e-9:
            failures.append(f"D!=alpha at alpha={alpha}")
        if any(abs(kappa(K, r) - alpha) > 1e-12 for r in (0.5, 1.0, 20.0)):
            failures.append(f"kappa!=alpha at alpha={alpha}")
        for R in (2.0, 100.0, 1e6):
            m_max, _ = modulus_extremes(mapping, 0j, R)
            if abs(m_max - R ** (1.0 / alpha)) > 1e-9 * R ** (1.0 / alpha):
                failures.append(f"M(R)!=R^(1/alpha) at alpha={alpha}, R={R}")
        rep = theorem1_check(mapping, K, 0j, 1.0, RadiusLadder(1.0, 2.0, 40))
        if not rep.all_ok or abs(rep.m_inner - 1.0) > 1e-8:
            failures.append(f"growth ladder broken at alpha={alpha}")
        if any(abs(row.v - 1.0) > 1e-8 for row in rep.rows):
            failures.append(f"v(R)!=1 at alpha={alpha}")
        sharp = sharpness_ladder(mapping, RadiusLadder(1.0, 4.0, 15))
        if sharp.max_deviation > 1e-9:
            failures.append(f"sharpness ratio deviates at alpha={alpha}")
    assert verdict(
        2,
        "power-map suite: D=kappa=alpha, M=R^(1/alpha), sharp growth equality",
        not failures,
        "; ".join(failures),
    )


def test_criterion_03_loglog_suite():
    failures = []
    for alpha in (1.0, 2.0):
        mapping, K = catalog_pair("loglog", alpha=alpha)
        for r in (0.5, 2.0, 0.9 * E_2):
            if abs(kappa(K, r) - 1.0) > 1e-12:
                failures.append(f"inner kappa != 1 at alpha={alpha}")
        for r in (1.001 * E_2, 100.0, 1e6):
            expected = alpha * math.log(r) * math.log(math.log(r))
            if abs(kappa(K, r) - expected) > 1e-10 * expected:
                failures.append(f"outer kappa off at alpha={alpha}, r={r}")
        for R in (2.0 * E_2, 1e5, 1e9):
            m_max, _ = modulus_extremes(mapping, 0j, R)
            expected = math.log(math.log(R)) ** (1.0 / alpha)
            if abs(m_max - expected) > 1e-10 * expected:
                failures.append(f"M(R) off at alpha={alpha}, R={R}")
        sharp = sharpness_ladder(mapping, RadiusLadder.reaching(E_2, 1e9, 2.0))
        ratios = [ratio for _, ratio in sharp.rows]
        if not sharp.strictly_decreasing:
            failures.append(f"ratio not strictly decreasing at alpha={alpha}")
        if not ratios[-1] < 0.5 * ratios[0]:
            failures.append(
                f"final/initial ratio {ratios[-1] / ratios[0]:.4f} >= 0.5 "
                f"at alpha={alpha}"
            )
    assert verdict(
        3,
        "doubly-logarithmic suite: kappa and M closed forms, decaying log ratio",
        not failures,
        "; ".join(failures),
    )


def test_criterion_04_envelope_closed_forms():
    failures = []
    for alpha in (0.5, 1.0, 2.0):
        for r0, R in ((1.0, 2.0), (0.25, 1e4)):
            _, env = envelope_integral(ConstantProfile(alpha), r0, R)
            if abs(env - (R / r0) ** (1.0 / alpha)) > 1e-10 * env:
                failures.append(f"constant alpha={alpha}")
        for depth in (1, 2):
            profile = LogProductProfile(alpha, depth)
            e_n = tower(depth)
            for R in (3.0 * e_n, E_3):
                _, env = envelope_integral(profile, e_n, R)
                expected = iterated_log(depth, R) ** (1.0 / alpha)
                if abs(env - expected) > 1e-8 * expected:
                    failures.append(f"log-product alpha={alpha}, depth={depth}")
    assert verdict(
        4,
        "envelope closed forms: (R/r0)^(1/a) and (ln_N R)^(1/a)",
        not failures,
        "; ".join(failures),
    )


def test_criterion_05_differential_and_isoperimetric():
    failures = []
    radial = {"identity", "spiral", "power-0.5", "power-2", "loglog-1", "loglog-2"}
    for (name, params), label in zip(CATALOG_SPECS, CATALOG_IDS):
        mapping, _ = catalog_pair(name, **params)
        lo, hi = 0.5, 50.0
        if mapping.seam_radii:
            lo = 1.01 * max(mapping.seam_radii)
            hi = 100.0 * lo
        radii = np.geomspace(lo, hi, 10)
        rows = differential_inequality_check(mapping, 0j, radii)
        if any(row.ratio < 1.0 - 1e-3 for row in rows):
            failures.append(f"S' bound fails for {label}")
        if label in radial and any(abs(row.ratio - 1.0) > 1e-3 for row in rows):
            failures.append(f"equality violated for radial {label}")
        for r in radii[::4]:
            rep = isoperimetric_check(mapping, 0j, float(r))
            if rep.slack < -1e-6 * rep.length**2:
                failures.append(f"isoperimetric fails for {label}")
            if label in radial and not rep.equality:
                failures.append(f"isoperimetric equality fails for radial {label}")
    assert verdict(
        5,
        "differential inequality S' >= 2S/(r d_f) and isoperimetric slack",
        not failures,
        "; ".join(failures),
    )


def test_criterion_06_area_bound():
    failures = []
    for name, params, r0 in (
        ("identity", {}, 1.0),
        ("spiral", {}, 1.0),
        ("power", {"alpha": 2.0}, 1.0),
        ("loglog", {"alpha": 2.0}, 1.05 * LOGLOG_SEAM),
    ):
        mapping, K = catalog_pair(name, **params)
        rep = area_bound_check(mapping, K, r0, 8.0 * r0)
        if not rep.ok:
            failures.append(f"area bound fails for {name}")
    for alpha in (0.5, 2.0):
        sol = build_extremal(ConstantProfile(alpha), 1.0, 1.0, 64.0)
        rep = area_bound_check(sol.mapping(), sol.coefficient(), 2.0, 32.0)
        if not (rep.ok and rep.equality):
            failures.append(f"extremal equality fails for alpha={alpha}")
    assert verdict(
        6,
        "area attenuation bound holds; equality for extremal radial pairs",
        not failures,
        "; ".join(failures),
    )


def test_criterion_07_extremal_constructor():
    failures = []
    for alpha in (0.5, 1.0, 2.0):
        sol = build_extremal(ConstantProfile(alpha), 1.0, 1.0, 64.0, knots=64)
        if np.max(np.abs(sol.rho - sol.knots ** (1.0 / alpha))) > 1e-10 * np.max(
            sol.rho
        ):
            failures.append(f"rho table off at alpha={alpha}")
    sol = build_extremal(ConstantProfile(2.0), 1.0, 1.0, 64.0, knots=64)
    grid = AnnulusGrid(1.5, 50.0, 16, 64)
    r1 = fd_residual_max(sol.mapping(), sol.coefficient(), grid, 2e-3)
    r2 = fd_residual_max(sol.mapping(), sol.coefficient(), grid, 1e-3)
    if r1 > 1e-4:
        failures.append(f"FD residual {r1:.2e} above 1e-4")
    if not 3.0 <= r1 / r2 <= 5.0:
        failures.append(f"h-convergence factor {r1 / r2:.2f}")
    assert verdict(
        7,
        "extremal constructor reproduces r^(1/a); second-order FD residual",
        not failures,
        "; ".join(failures),
    )


def test_criterion_08_derivative_oracle():
    failures = []
    for (name, params), label in zip(CATALOG_SPECS, CATALOG_IDS):
        mapping, K = catalog_pair(name, **params)
        z = smooth_points(mapping, 100, RNG)
        wp_a = mapping.wirtinger_analytic(z)
        wp_f = mapping.wirtinger_fd(z, 1e-5)
        dev = max(
            float(np.max(np.abs(wp_a.d_z - wp_f.d_z))),
            float(np.max(np.abs(wp_a.d_zbar - wp_f.d_zbar))),
        )
        if dev > 1e-7:
            failures.append(f"FD/analytic deviation {dev:.2e} for {label}")
        lo, hi = 0.5, 20.0
        if mapping.seam_radii:
            lo, hi = 1.05 * max(mapping.seam_radii), 20.0 * max(mapping.seam_radii)
        grid = AnnulusGrid(lo, hi, 12, 32)
        rep_c = pde_residual(mapping, K, grid)
        rep_r = real_system_residual(mapping, K, grid)
        combined = np.hypot(rep_r.residual_u, rep_r.residual_v)
        if np.max(np.abs(combined - rep_r.r * rep_c.abs_residual)) > 1e-10:
            failures.append(f"real-system decomposition off for {label}")
    assert verdict(
        8,
        "derivative oracle and real-system decomposition agree",
        not failures,
        "; ".join(failures),
    )


def test_criterion_09_corollary_exponent_identity():
    rng = np.random.default_rng(9)
    alphas = np.exp(rng.uniform(-3.0, 3.0, 20))
    ok = all(
        corollary_exponent(CoefficientBound(float(a)))
        == corollary_exponent(KappaBound(float(a) * float(a)))
        for a in alphas
    )
    assert verdict(
        9, "growth exponents via |K| bound and kappa bound identical", ok
    )


def test_criterion_10_determinism(tmp_path):
    cfg = {
        "pair": {"name": "power", "alpha": 2.0},
        "r0": 1.0,
        "ladder": {"r0": 1.0, "factor": 2.0, "count": 8},
        "n": 256,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        code = main(["verify", "--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == 0
        outputs.append(
            tuple(
                (out / name).read_bytes()
                for name in ("verify_growth.csv", "verify_residual.csv")
            )
        )
    ok = outputs[0] == outputs[1]
    assert verdict(10, "repeated verify runs are byte-identical", ok)
