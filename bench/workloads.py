"""The benchmark's workloads: seeded inputs, one cycle of operations each,
and the closed-form check of every operation's output.

An operation is timed by the caller around ``run(workdir)``; ``check(result,
workdir)`` runs untimed afterwards, raises ``CheckFailed`` when an output is
wrong, and returns a digest of the outputs.  The caller compares the digests
of the same operation across cycles, so a non-deterministic output counts as
a failed operation.

The seed draws only parameters that leave the work per operation unchanged:
alpha, the linear map's coefficients, the r0 scale, and which radii the
checks sample.  Ladder counts, quadrature sizes and knot counts are fixed.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import closed_forms as cf

WORKLOADS = ("certify", "ladders", "cli_cold")

#: circle quadrature size of the certify configs.  It keeps one verify near
#: one second, so a run holds enough operations to define a tail latency,
#: while the volume integral still dominates the operation.
CERTIFY_N = 256
LADDER_COUNT = 40
EXTREMAL_KNOTS = 128
SHARPNESS_COUNT = 60

REL_TOL = 1e-8  # on moduli, envelopes and rho
ABS_TOL = 1e-9  # on the attenuation integral I


class CheckFailed(Exception):
    """An output disagrees with its closed form or expected exit status."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable
    check: Callable


def expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def read_rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(len(rows) >= 2, f"{path.name} has no data rows")
    return rows[0], rows[1:]


def digest_files(workdir: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


def digest_values(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def check_close(label, value, expected, rel=REL_TOL, abs_tol=0.0):
    expect(
        cf.close(float(value), expected, rel, abs_tol),
        f"{label} = {value!r}, closed form {expected!r}",
    )


def write_config(inputs: Path, name: str, cfg) -> Path:
    path = inputs / f"{name}.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    return path


def call_cli(argv):
    """cli.main in-process, with its progress text captured."""
    from beltrami_growth import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# certify: cli.main(["verify", ...]) on generated solution pairs


def certify_pairs(rng: random.Random):
    """(name, pair config, r0, expected (M, m, I) as functions of R)."""
    a_pow = rng.uniform(1.5, 3.0)
    r_pow = rng.uniform(0.5, 2.0)
    a_ll = rng.uniform(1.5, 3.0)
    r_ll = rng.uniform(16.0, 40.0)
    r_sp = rng.uniform(0.5, 2.0)
    # |b| > |a| keeps the linear map orientation preserving
    a_lin = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0.0, math.pi))
    b_lin = cmath.rect(rng.uniform(1.5, 2.5), rng.uniform(0.0, math.pi))
    c_lin = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    r_lin = rng.uniform(0.5, 2.0)
    a_ex = rng.uniform(1.5, 3.0)
    r_ex = rng.uniform(0.5, 2.0)
    rho_ex = rng.uniform(0.5, 2.0)
    k_lin = cf.linear_kappa(a_lin, b_lin)

    def radial(modulus, integral):
        return lambda R, r0: (modulus(R), modulus(R), integral(r0, R))

    return [
        (
            "power",
            {"name": "power", "alpha": a_pow},
            r_pow,
            radial(lambda R: R ** (1 / a_pow), lambda r0, R: math.log(R / r0) / a_pow),
        ),
        (
            "loglog",
            {"name": "loglog", "alpha": a_ll},
            r_ll,
            radial(
                lambda R: cf.loglog_modulus(a_ll, R),
                lambda r0, R: cf.loglog_integral(a_ll, r0, R),
            ),
        ),
        ("spiral", {"name": "spiral"}, r_sp, radial(lambda R: R, lambda r0, R: math.log(R / r0))),
        (
            "linear",
            {
                "name": "linear",
                "a": [a_lin.real, a_lin.imag],
                "b": [b_lin.real, b_lin.imag],
                "c": [c_lin.real, c_lin.imag],
            },
            r_lin,
            lambda R, r0: (*cf.linear_moduli(a_lin, b_lin, R), math.log(R / r0) / k_lin),
        ),
        (
            "extremal",
            {
                "name": "extremal",
                "profile": {"kind": "constant", "alpha": a_ex},
                "r0": r_ex,
                "rho0": rho_ex,
                "R": r_ex * 2.0**LADDER_COUNT,
                "knots": EXTREMAL_KNOTS,
            },
            r_ex,
            radial(
                lambda R: rho_ex * (R / r_ex) ** (1 / a_ex),
                lambda r0, R: math.log(R / r0) / a_ex,
            ),
        ),
    ], (a_pow, r_pow)


def certify_ops(rng: random.Random, inputs: Path):
    pairs, (a_pow, r_pow) = certify_pairs(rng)
    # the power pair's area S(r) = pi r^{2/alpha} is checked at a seeded radius
    r_area = r_pow * rng.uniform(1.0, 8.0)
    ops = []
    for name, pair, r0, expected in pairs:
        cfg = {
            "pair": pair,
            "r0": r0,
            "ladder": {"r0": r0, "factor": 2.0, "count": LADDER_COUNT},
            "n": CERTIFY_N,
        }
        path = write_config(inputs, f"certify_{name}", cfg)

        def run(workdir, path=path):
            return call_cli(["verify", "--config", str(path), "--out", str(workdir)])

        def check(result, workdir, name=name, r0=r0, expected=expected):
            code, text = result
            lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
            expect(code == 0, f"verify exited {code}: {text.strip()[-300:]}")
            expect(
                len(lines) == 5 and all(ln.startswith("PASS") for ln in lines),
                f"verify did not pass every check: {lines}",
            )
            _, rows = read_rows(workdir / "verify_growth.csv")
            expect(len(rows) == LADDER_COUNT + 1, f"{len(rows)} ladder rows")
            m_inner = expected(r0, r0)[1]
            for row in rows:
                R, M, m, I, env, v = (float(x) for x in row[:6])
                eM, em, eI = expected(R, r0)
                check_close(f"{name} M({R})", M, eM)
                check_close(f"{name} m({R})", m, em)
                check_close(f"{name} I({R})", I, eI, abs_tol=ABS_TOL)
                check_close(f"{name} envelope({R})", env, math.exp(eI))
                check_close(f"{name} v({R})", v, eM * math.exp(-eI))
                # cli.fmt spells a numpy bool as 1 and a Python bool as true;
                # the value is checked here, not its spelling
                expect(row[6] in ("true", "1"), f"{name} bound_ok {row[6]} at R = {R}")
                if name != "linear":  # radial pairs attain equality: v = m(r0)
                    check_close(f"{name} v({R}) = m(r0)", v, m_inner)
            if name == "power":
                from beltrami_growth import Power, image_area

                area = image_area(Power(a_pow), 0j, r_area)
                check_close(f"S({r_area})", area, math.pi * r_area ** (2 / a_pow))
            return digest_files(workdir, ("verify_residual.csv", "verify_growth.csv"))

        ops.append(Op(f"verify_{name}", run, check))
    return ops


# ---------------------------------------------------------------------------
# ladders: library ladder operations in-process, no volume integrals


def check_envelope_rows(header, rows, r0, count, integral):
    expect(header == ["R", "I", "envelope"], f"envelope header {header}")
    expect(len(rows) == count + 1, f"{len(rows)} envelope rows")
    for R, I, env in ((float(x) for x in row) for row in rows):
        eI = integral(r0, R)
        check_close(f"I({R})", I, eI, abs_tol=ABS_TOL)
        check_close(f"envelope({R})", env, math.exp(eI))


def grid_coefficient_csv(inputs: Path, a: float, b: float, g, r_lo: float, r_hi: float):
    """|K|^2 = g(theta) (a + b ln r) on an (r, theta) lattice, 8 angles."""
    radii = [r_lo * (r_hi / r_lo) ** (i / 8) for i in range(9)]
    path = inputs / "grid_coefficient.csv"
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["r", "theta", "k2"])
        for r in radii:
            for j, gj in enumerate(g):
                theta = 2 * math.pi * j / len(g)
                out.writerow([repr(r), repr(theta), repr(gj * (a + b * math.log(r)))])
    return path


def ladders_ops(rng: random.Random, inputs: Path):
    # the library functions are looked up on the package when an operation
    # runs, so a traced run calls the wrapped ones
    import beltrami_growth as bg
    from beltrami_growth import (
        ConstantProfile,
        FieldProfile,
        LogLog,
        Power,
        PowerCoefficient,
        RadiusLadder,
    )

    ops = []

    def envelope_op(kind, profile, r0, integral):
        cfg = {
            "profile": profile,
            "r0": r0,
            "ladder": {"r0": r0, "factor": 2.0, "count": LADDER_COUNT},
        }
        path = write_config(inputs, f"ladders_{kind}", cfg)

        def run(workdir):
            return call_cli(["envelope", "--config", str(path), "--out", str(workdir), "--quiet"])

        def check(result, workdir):
            expect(result[0] == 0, f"envelope exited {result[0]}")
            check_envelope_rows(*read_rows(workdir / "envelope.csv"), r0, LADDER_COUNT, integral)
            return digest_files(workdir, ("envelope.csv",))

        ops.append(Op(f"envelope_{kind}", run, check))

    alpha = rng.uniform(1.5, 3.0)
    envelope_op(
        "constant",
        {"kind": "constant", "alpha": alpha},
        rng.uniform(0.5, 2.0),
        lambda r0, R, a=alpha: math.log(R / r0) / a,
    )
    for depth, lo in ((1, 3.0), (2, 16.0), (3, 4.0e6)):
        alpha = rng.uniform(1.5, 3.0)
        envelope_op(
            f"log_product{depth}",
            {"kind": "log_product", "alpha": alpha, "depth": depth},
            lo * rng.uniform(1.0, 2.0),
            lambda r0, R, a=alpha, d=depth: cf.log_product_integral(a, d, r0, R),
        )
    alpha = rng.uniform(1.5, 3.0)
    piecewise = {
        "kind": "piecewise",
        "breakpoints": [cf.E_2],
        "pieces": [
            {"kind": "constant", "alpha": 1.0},
            {"kind": "log_product", "alpha": alpha, "depth": 2},
        ],
    }
    envelope_op(
        "piecewise_loglog",
        piecewise,
        rng.uniform(1.5, 3.0),
        lambda r0, R, a=alpha: cf.loglog_integral(a, r0, R),
    )
    r0 = rng.uniform(0.5, 2.0)
    # knots on every fifth rung, so the kinks of the table sit on rung ends
    t_radii = [r0 * 2.0 ** (5 * i) for i in range(LADDER_COUNT // 5 + 1)]
    t_values = [rng.uniform(1.0, 3.0) for _ in t_radii]
    envelope_op(
        "table",
        {"kind": "table", "radii": t_radii, "values": t_values},
        r0,
        lambda r0, R: cf.table_integral(t_radii, t_values, r0, R),
    )
    alpha = rng.uniform(1.5, 3.0)
    envelope_op(
        "field_loglog",
        {"kind": "from_field", "coefficient": {"kind": "loglog", "alpha": alpha}},
        rng.uniform(1.5, 3.0),
        lambda r0, R, a=alpha: cf.loglog_integral(a, r0, R),
    )
    alpha = rng.uniform(1.5, 3.0)
    envelope_op(
        "field_power",
        {"kind": "from_field", "coefficient": {"kind": "power", "alpha": alpha}},
        rng.uniform(0.5, 2.0),
        lambda r0, R, a=alpha: math.log(R / r0) / a,
    )
    r0 = rng.uniform(0.5, 2.0)
    a, b = rng.uniform(1.0, 2.0), rng.uniform(0.05, 0.2)
    g = [rng.uniform(0.5, 2.0) for _ in range(8)]
    grid = grid_coefficient_csv(inputs, a, b, g, r0 / 2, r0 * 2.0 ** (LADDER_COUNT + 1))
    envelope_op(
        "field_grid",
        {"kind": "from_field", "coefficient": {"kind": "grid", "path": str(grid)}},
        r0,
        lambda r0, R: cf.grid_integral(sum(g) / len(g), a, b, r0, R),
    )

    def extremal_op(kind, profile, alpha):
        r0, rho0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        R = r0 * rng.uniform(32.0, 64.0)

        def check(sol, workdir):
            expect(len(sol.knots) == EXTREMAL_KNOTS, f"{len(sol.knots)} knots")
            for r, rho in zip(sol.knots.tolist(), sol.rho.tolist()):
                check_close(f"rho({r})", rho, rho0 * (r / r0) ** (1 / alpha))
            return digest_values((sol.knots.tolist(), sol.rho.tolist()))

        ops.append(
            Op(
                f"extremal_{kind}",
                lambda workdir: bg.build_extremal(profile, r0, rho0, R, EXTREMAL_KNOTS),
                check,
            )
        )

    alpha = rng.uniform(1.5, 3.0)
    extremal_op("constant", ConstantProfile(alpha), alpha)
    alpha = rng.uniform(1.5, 3.0)
    extremal_op("field_power", FieldProfile(PowerCoefficient(alpha)), alpha)

    alpha = rng.uniform(1.5, 3.0)
    ladder = RadiusLadder(rng.uniform(0.5, 2.0), 2.0, SHARPNESS_COUNT)

    def check_power_sharpness(report, workdir):
        expect(report.kind == "power" and len(report.rows) == SHARPNESS_COUNT + 1, "power rows")
        for R, ratio in report.rows:
            check_close(f"power ratio({R})", ratio, 1.0)
        return digest_values(report.rows)

    ops.append(
        Op(
            "sharpness_power",
            lambda workdir, m=Power(alpha), lad=ladder: bg.sharpness_ladder(m, lad),
            check_power_sharpness,
        )
    )
    alpha_ll = rng.uniform(1.5, 3.0)
    ladder_ll = RadiusLadder(rng.uniform(3.0, 6.0), 2.0, SHARPNESS_COUNT)

    def check_loglog_sharpness(report, workdir):
        # the values of (ln ln R / ln R)^{1/alpha} are checked; whether they
        # halve by the ladder top is a property of the spec, not of the code
        expect(report.kind == "loglog" and len(report.rows) == SHARPNESS_COUNT + 1, "loglog rows")
        for R, ratio in report.rows:
            expected = cf.loglog_modulus(alpha_ll, R) / math.log(R) ** (1 / alpha_ll)
            check_close(f"loglog ratio({R})", ratio, expected)
        return digest_values(report.rows)

    ops.append(
        Op(
            "sharpness_loglog",
            lambda workdir, m=LogLog(alpha_ll), lad=ladder_ll: bg.sharpness_ladder(m, lad),
            check_loglog_sharpness,
        )
    )

    alpha = rng.uniform(1.5, 3.0)
    r0 = rng.uniform(0.5, 2.0)
    t_ladder = RadiusLadder(r0, 2.0, LADDER_COUNT)

    def check_theorem1(report, workdir):
        expect(report.all_ok, "theorem1_check reported a failed rung")
        check_close("m(r0)", report.m_inner, r0 ** (1 / alpha))
        for row in report.rows:
            check_close(f"M({row.R})", row.M, row.R ** (1 / alpha))
            check_close(f"I({row.R})", row.integral, math.log(row.R / r0) / alpha, abs_tol=ABS_TOL)
            check_close(f"v({row.R})", row.v, r0 ** (1 / alpha))
        return digest_values([(r.R, r.M, r.m, r.integral, r.v) for r in report.rows])

    ops.append(
        Op(
            "theorem1",
            lambda workdir, m=Power(alpha), K=PowerCoefficient(alpha): bg.theorem1_check(
                m, K, 0j, r0, t_ladder
            ),
            check_theorem1,
        )
    )

    alpha_ne = rng.uniform(1.5, 3.0)
    r0_ne = rng.uniform(0.5, 2.0)
    observed = [(r0_ne * 2.0**k, 1.0) for k in range(1, LADDER_COUNT + 1)]

    def check_nonexist(report, workdir):
        # a bounded map against a constant profile: v = (r0/R)^{1/alpha} decays
        expect(report.verdict == "inconsistent", f"verdict {report.verdict}")
        for R, M, v in report.rows:
            check_close(f"v({R})", v, (r0_ne / R) ** (1 / alpha_ne))
        return digest_values(report.rows)

    ops.append(
        Op(
            "nonexist",
            lambda workdir, p=ConstantProfile(alpha_ne): bg.nonexistence_diagnostic(
                observed, p, r0_ne
            ),
            check_nonexist,
        )
    )
    return ops


# ---------------------------------------------------------------------------
# cli_cold: one fresh CLI process per operation


def cli_cold_ops(rng: random.Random, inputs: Path, python: str, env, launcher=None):
    """``launcher`` replaces ``-m beltrami_growth.cli`` in a traced run; it is
    given the path its spans go to before the CLI arguments."""
    ops = []

    def op(kind, sub, cfg, expected_files, check_rows):
        path = write_config(inputs, f"cli_{kind}", cfg)

        def run(workdir):
            head = [python, "-m", "beltrami_growth.cli"]
            if launcher is not None:
                head = [python, str(launcher), str(workdir / "spans.json")]
            return subprocess.run(
                head + [sub, "--config", str(path), "--out", str(workdir), "--quiet"],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )

        def check(proc, workdir):
            stderr = proc.stderr.strip()[-300:]
            expect(proc.returncode == 0, f"{sub} exited {proc.returncode}: {stderr}")
            for name in expected_files:
                check_rows(name, *read_rows(workdir / name))
            return digest_files(workdir, expected_files)

        ops.append(Op(f"cli_{kind}", run, check))

    alpha = rng.uniform(1.5, 3.0)
    # kappa radii on both sides of the seam, drawn by the seed
    radii = sorted([rng.uniform(1.0, 10.0), rng.uniform(20.0, 1e3), rng.uniform(1e4, 1e8)])

    def kappa_rows(name, header, rows):
        expect(header == ["r", "kappa", "piece"] and len(rows) == len(radii), "kappa rows")
        for r, k, piece in rows:
            check_close(f"kappa({r})", float(k), cf.loglog_kappa(alpha, float(r)))
            expect(piece == "-", f"piece {piece} at {r}")

    op("kappa", "kappa", {"coefficient": {"kind": "loglog", "alpha": alpha}, "radii": radii},
       ("kappa.csv",), kappa_rows)

    def envelope(kind, profile, r0, integral):
        count = 20
        cfg = {"profile": profile, "r0": r0, "ladder": {"r0": r0, "factor": 2.0, "count": count}}
        op(kind, "envelope", cfg, ("envelope.csv",),
           lambda name, header, rows: check_envelope_rows(header, rows, r0, count, integral))

    a_c = rng.uniform(1.5, 3.0)
    envelope("envelope_constant", {"kind": "constant", "alpha": a_c}, rng.uniform(0.5, 2.0),
             lambda r0, R: math.log(R / r0) / a_c)
    a_lp = rng.uniform(1.5, 3.0)
    envelope("envelope_log_product", {"kind": "log_product", "alpha": a_lp, "depth": 2},
             rng.uniform(16.0, 32.0), lambda r0, R: cf.log_product_integral(a_lp, 2, r0, R))

    a_ex, r0_ex, rho0 = rng.uniform(1.5, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)

    def extremal_rows(name, header, rows):
        expect(len(rows) == EXTREMAL_KNOTS, f"{len(rows)} knots in {name}")
        for r, value in ((float(x) for x in row) for row in rows):
            if name == "extremal_rho.csv":
                check_close(f"rho({r})", value, rho0 * (r / r0_ex) ** (1 / a_ex))
            else:
                check_close(f"kappa({r})", value, a_ex)

    op("extremal", "extremal",
       {"profile": {"kind": "constant", "alpha": a_ex},
        "r0": r0_ex, "rho0": rho0, "R": r0_ex * 64.0},
       ("extremal_rho.csv", "extremal_coefficient.csv"), extremal_rows)

    def sharpness_rows(name, header, rows):
        expect(len(rows) == 11, "sharpness rows")
        for R, ratio in rows:
            check_close(f"ratio({R})", float(ratio), 1.0)

    op("sharpness", "sharpness",
       {"example": {"kind": "power", "alpha": rng.uniform(1.5, 3.0)},
        "ladder": {"r0": rng.uniform(0.5, 2.0), "factor": 4.0, "count": 10}},
       ("sharpness.csv",), sharpness_rows)

    a_ne, r0_ne = rng.uniform(1.5, 3.0), rng.uniform(0.5, 2.0)
    observed = [[r0_ne * 2.0**k, 1.0] for k in range(1, 11)]

    def nonexist_rows(name, header, rows):
        expect(len(rows) == len(observed), "nonexist rows")
        for R, M, v in ((float(x) for x in row) for row in rows):
            check_close(f"v({R})", v, M * (r0_ne / R) ** (1 / a_ne))

    op("nonexist", "nonexist",
       {"observed": observed, "profile": {"kind": "constant", "alpha": a_ne}, "r0": r0_ne},
       ("nonexist.csv",), nonexist_rows)
    return ops


def make_ops(
    workload: str, seed: int, inputs: Path, python=sys.executable, env=None, launcher=None
):
    """One cycle of ``workload``'s operations, with their inputs written to ``inputs``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        return certify_ops(rng, inputs)
    if workload == "ladders":
        return ladders_ops(rng, inputs)
    if workload == "cli_cold":
        return cli_cold_ops(rng, inputs, python, env, launcher)
    raise ValueError(f"unknown workload {workload!r}")
