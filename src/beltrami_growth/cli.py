"""Command-line front end.

Subcommands: kappa, envelope, verify, extremal, sharpness, nonexist.
Each takes a single strict JSON configuration document; outputs are CSV
files with fixed 17-significant-digit float formatting (byte-reproducible
for identical configs) plus optional minimal SVG polyline plots.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .dilatation import (
    CircleQuadrature,
    ConstantProfile,
    FieldProfile,
    GridCoefficient,
    LinearCoefficient,
    LogLogCoefficient,
    LogProductProfile,
    PiecewiseProfile,
    PowerCoefficient,
    RadialCoefficient,
    SpiralCoefficient,
    TableProfile,
    kappa as circle_kappa,
)
from .errors import BeltramiGrowthError, ConfigError
from .growth import (
    RadiusLadder,
    _envelope,
    ladder_integrals,
    modulus_extremes,
    nonexistence_diagnostic,
)
from .mappings import DEFAULT_FD_STEP, Identity, Linear, LogLog, Power, RadialTable, Spiral
from .mappings import require_ascending, require_count, require_positive
from .verify import (
    CATALOG,
    RESIDUAL_TOL,
    AnnulusGrid,
    build_extremal,
    sharpness_ladder,
    verify_pair,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# formatting and output helpers


def fmt(value) -> str:
    """A float by "%.17g" (np.float64 is a float subclass), a bool as true or false."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return format(value, ".17g")


def _spelled_floats(table: np.ndarray, codes, labels) -> str:
    """The rows of a 2-d float64 array as CSV lines, every cell "%.17g", or
    labels[c] where codes, an int array or None, holds a code c of 0 or more.

    Each distinct bit pattern of the table, and each label, is spelled once,
    ending in "," and in a newline, and the words are gathered back into
    their cells by one join, so a table of few distinct values costs few
    spellings.  Bits, not values: -0.0 and 0.0 stay apart, and NaNs that
    differ in sign or payload are each spelled."""
    distinct, where = np.unique(table.view(np.uint64), return_inverse=True)
    spelled = ["%.17g" % v for v in distinct.view(np.float64).tolist()]
    where = where.reshape(table.shape)
    if codes is not None:
        where = np.where(codes < 0, where, len(spelled) + codes)
        spelled += labels
    words = np.array([w + "," for w in spelled] + [w + "\n" for w in spelled], dtype=object)
    where[:, -1] += len(spelled)
    return "".join(words[where.ravel()].tolist())


def write_csv(path: Path, header, rows) -> Path:
    """Write header and rows to path as CSV, one line per row, and return path.

    rows is an iterable of rows as long as the header, or a 2-d float64 array
    with one column per header name, written without a round trip through
    Python floats. A float is spelled "%.17g", a bool true or false, and a
    string is a label, as given. Nothing is quoted: an empty header, a name or
    label that is empty or holds ",", '"' or a line end, and any other input
    raise ValueError before the file is opened."""
    width = len(header)
    codes, labels = None, []
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(
                f"need a 2-d float64 array of {width} columns, "
                f"got {rows.dtype} of shape {rows.shape}"
            )
        table = rows
    else:
        rows = [tuple(row) for row in rows]
        cells = [v for row in rows for v in row]
        kinds = set(map(type, cells))
        if any(len(row) != width for row in rows) or not all(
            issubclass(t, (float, bool, np.bool_, str)) for t in kinds
        ):
            raise ValueError(f"need rows of {width} floats, bools or strings")
        if not kinds <= {float, np.float64}:
            seen = {}  # label -> code, in order of first sight; True and np.True_ are one
            codes = [-1 if isinstance(v, float) else seen.setdefault(v, len(seen)) for v in cells]
            labels = [v if isinstance(v, str) else fmt(v) for v in seen]
            cells = [0.0 if c >= 0 else v for v, c in zip(cells, codes)]
            codes = np.reshape(codes, (len(rows), width))
        table = np.array(cells, dtype=np.float64).reshape(len(rows), width)
    if not header or not all(
        isinstance(w, str) and w and not set(w) & set(',"\r\n') for w in [*header, *labels]
    ):
        raise ValueError(f"need non-empty names and labels free of CSV quoting: {header} {labels}")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n" + _spelled_floats(table, codes, labels))
    return path


def write_svg_polyline(path: Path, xs, ys, *, log_x=False, log_y=False, label="") -> Path:
    """Standalone minimal SVG: one polyline in a fixed 640x480 viewBox."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if log_x:
        if np.any(xs <= 0.0):
            raise ValueError("log x-axis requires positive values")
        xs = np.log10(xs)
    if log_y:
        if np.any(ys <= 0.0):
            raise ValueError("log y-axis requires positive values")
        ys = np.log10(ys)
    width, height, margin = 640, 480, 50
    span_x = max(xs.max() - xs.min(), 1e-30)
    span_y = max(ys.max() - ys.min(), 1e-30)
    px = margin + (xs - xs.min()) / span_x * (width - 2 * margin)
    py = height - margin - (ys - ys.min()) / span_y * (height - 2 * margin)
    points = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(px, py))
    body = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'  <rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>\n'
        f'  <polyline points="{points}" fill="none" stroke="blue"/>\n'
        f'  <text x="{margin}" y="{margin - 10}">{label}</text>\n'
        "</svg>\n"
    )
    with open(path, "w") as fh:
        fh.write(body)
    return path


# ---------------------------------------------------------------------------
# strict config parsing


def _require_keys(cfg, name, allowed, required):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{name} must be an object, got {type(cfg).__name__}")
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in {name}: {sorted(missing)}")


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _cnum(value, name) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        or not all(_finite(v) for v in value)
    ):
        raise ConfigError(f"{name} must be a [re, im] pair of finite numbers")
    return complex(value[0], value[1])


def _num(value, name, *, positive=False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number")
    if not _finite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if positive:
        require_positive(name, value)
    return float(value)


def _list(value, name) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list")
    return value


def _path(value) -> str:
    # open() reads an integer as a file descriptor: 0 would be stdin
    if not isinstance(value, str):
        raise ConfigError(f"path must be a string, got {value!r}")
    return value


def _flag(value, name) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


def _observed(value) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError("observed must be a non-empty list of [R, M] pairs")
    observed = [
        (_num(p[0], "R", positive=True), _num(p[1], "M", positive=True))
        for p in value
        if isinstance(p, list) and len(p) == 2
    ]
    if len(observed) != len(value):
        raise ConfigError("observed entries must be [R, M] pairs")
    require_count("number of observations", len(observed), 2)
    require_ascending("observed radii", [R for R, _ in observed])
    return observed


#: how the JSON value of each key is read, in every section that allows it;
#: the nested parsers are looked up when called, so wrapping a module-level
#: parser after import also wraps its nested calls
KEY_READERS = {
    "a": lambda v: _cnum(v, "a"),
    "b": lambda v: _cnum(v, "b"),
    "c": lambda v: _cnum(v, "c"),
    "center": lambda v: _cnum(v, "center"),
    "alpha": lambda v: _num(v, "alpha", positive=True),
    "r0": lambda v: _num(v, "r0", positive=True),
    "rho0": lambda v: _num(v, "rho0", positive=True),
    "R": lambda v: _num(v, "R", positive=True),
    "h": lambda v: _num(v, "h", positive=True),
    "residual_tol": lambda v: _num(v, "residual_tol", positive=True),
    "r_inner": lambda v: _num(v, "r_inner", positive=True),
    "r_outer": lambda v: _num(v, "r_outer", positive=True),
    "factor": lambda v: _num(v, "factor"),
    "depth": lambda v: require_count("depth", v, 1),
    "knots": lambda v: require_count("knots", v, 64),
    "count": lambda v: require_count("count", v, 1),
    "n_r": lambda v: require_count("n_r", v, 2),
    "n_theta": lambda v: require_count("n_theta", v, 8),
    "n": CircleQuadrature,
    "path": _path,
    "linear_inner": lambda v: _flag(v, "linear_inner"),
    "breakpoints": lambda v: tuple(
        _num(b, "breakpoint", positive=True) for b in _list(v, "breakpoints")
    ),
    "radii": lambda v: np.asarray([_num(r, "radius", positive=True) for r in _list(v, "radii")]),
    "values": lambda v: np.asarray([_num(k, "kappa", positive=True) for k in _list(v, "values")]),
    "pieces": lambda v: tuple(parse_profile(p) for p in _list(v, "pieces")),
    "profile": lambda v: parse_profile(v),
    "coefficient": lambda v: parse_coefficient(v),
    "mapping": lambda v: parse_mapping(v),
    "pair": lambda v: parse_pair(v),
    "ladder": lambda v: parse_ladder(v),
    "example": lambda v: _build(v, "sharpness example", EXAMPLE_KINDS),
    "grid": lambda v: _construct(AnnulusGrid, v, "grid"),
    "observed": _observed,
}


def _extremal_pair(profile, r0, R, rho0=1.0, knots=128):
    sol = build_extremal(profile, r0, rho0, R, knots)
    return sol.mapping(), sol.coefficient()


def _unnamed_pair(mapping, coefficient):
    return mapping, coefficient


#: kind -> constructor; its parameters are the kind's keys (config_keys)
MAPPING_KINDS = {
    "identity": Identity,
    "linear": Linear,
    "spiral": Spiral,
    "power": Power,
    "loglog": LogLog,
    "radial_table": RadialTable.from_csv,
}
COEFFICIENT_KINDS = {
    "linear": LinearCoefficient,
    "spiral": SpiralCoefficient,
    "power": PowerCoefficient,
    "loglog": LogLogCoefficient,
    "grid": GridCoefficient.from_csv,
    # radial_domain is no config key
    "radial": lambda profile, center=0j: RadialCoefficient(profile, center),
}
PROFILE_KINDS = {
    "constant": ConstantProfile,
    "log_product": LogProductProfile,
    "piecewise": lambda breakpoints, pieces: PiecewiseProfile(breakpoints, pieces),
    "table": TableProfile,
    "from_field": lambda coefficient, n=CircleQuadrature(): FieldProfile(coefficient, n),
}
#: named pairs: a catalog mapping with its coefficient, or the extremal
#: solution of a profile
PAIR_NAMES = {**CATALOG, "extremal": _extremal_pair}
#: the two examples whose growth bounds the paper shows to be sharp
EXAMPLE_KINDS = {kind: MAPPING_KINDS[kind] for kind in ("power", "loglog")}


@functools.cache
def config_keys(build, skip=0):
    """(required, optional): the names of build's parameters after the first
    skip, those without a default, then those with one."""
    params = list(inspect.signature(build).parameters.values())[skip:]
    return (
        tuple(p.name for p in params if p.default is p.empty),
        tuple(p.name for p in params if p.default is not p.empty),
    )


def _construct(build, cfg, name, keys=None):
    """build(**cfg) after checking cfg's keys, by default config_keys(build),
    and reading each value."""
    required, optional = config_keys(build) if keys is None else keys
    _require_keys(cfg, name, {*required, *optional}, required)
    try:
        return build(**{key: KEY_READERS[key](value) for key, value in cfg.items()})
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _build(cfg, section, kinds, tag="kind"):
    """What a config section describes, built by the constructor of its kind."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{section} must be an object, got {type(cfg).__name__}")
    kind = cfg.get(tag)
    if not isinstance(kind, str):
        raise ConfigError(f"{section} needs a string {tag!r}, got {kind!r}")
    if kind not in kinds:
        raise ConfigError(f"unknown {section} {tag} {kind!r}, expected one of {sorted(kinds)}")
    params = {key: value for key, value in cfg.items() if key != tag}
    return _construct(kinds[kind], params, f"{section} {tag} {kind!r}")


def parse_mapping(cfg):
    return _build(cfg, "mapping", MAPPING_KINDS)


def parse_coefficient(cfg):
    return _build(cfg, "coefficient", COEFFICIENT_KINDS)


def parse_profile(cfg):
    return _build(cfg, "profile", PROFILE_KINDS)


def parse_ladder(cfg):
    try:
        return _construct(RadiusLadder, cfg, "ladder")
    except BeltramiGrowthError as exc:
        raise ConfigError(str(exc)) from exc


def parse_pair(cfg):
    if isinstance(cfg, dict) and "name" in cfg:
        return _build(cfg, "pair", PAIR_NAMES, tag="name")
    return _construct(_unnamed_pair, cfg, "pair")


# ---------------------------------------------------------------------------
# subcommands


def cmd_kappa(outdir: Path, plot: bool, say, coefficient, radii, n=CircleQuadrature()) -> int:
    radii = radii.tolist()
    if not radii:
        raise ConfigError("radii must be a non-empty list of positive numbers")
    breakpoints = set(coefficient.radial_breakpoints)

    def sides(r):
        # one row per one-sided limit at a breakpoint radius
        if r in breakpoints:
            return ((r * (1 - 1e-9), "left"), (r * (1 + 1e-9), "right"))
        return ((r, "-"),)

    samples = [(r, at, piece) for r in radii for at, piece in sides(r)]
    kappas = circle_kappa(coefficient, np.array([at for _, at, _ in samples]), n).tolist()
    rows = [(r, k, piece) for (r, _, piece), k in zip(samples, kappas)]
    path = write_csv(outdir / "kappa.csv", ["r", "kappa", "piece"], rows)
    say(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_envelope(outdir: Path, plot: bool, say, profile, r0, ladder) -> int:
    radii = ladder.radii().tolist()
    integrals = np.cumsum(ladder_integrals(profile, r0, radii)).tolist()
    rows = [(R, I, _envelope(R, I)) for R, I in zip(radii, integrals)]
    path = write_csv(outdir / "envelope.csv", ["R", "I", "envelope"], rows)
    say(f"wrote {path} ({len(rows)} rows)")
    if plot:
        svg = write_svg_polyline(
            outdir / "envelope.svg",
            [row[0] for row in rows],
            [row[2] for row in rows],
            log_x=True,
            log_y=True,
            label="envelope vs R (log-log)",
        )
        say(f"wrote {svg}")
    return EXIT_OK


def cmd_verify(outdir: Path, plot: bool, say, pair, r0, ladder, n=CircleQuadrature(),
               h=DEFAULT_FD_STEP, grid=None, residual_tol=RESIDUAL_TOL) -> int:
    mapping, coefficient = pair
    results = []
    for result in verify_pair(mapping, coefficient, r0, ladder, n,
                              h=h, grid=grid, residual_tol=residual_tol):
        say(f"{'PASS' if result.ok else 'FAIL'} {result.name}"
            + "".join(f" {label}={fmt(value)}" for label, value in result.values)
            + (" (equality)" if result.equality else ""))
        results.append(result)
    reports = {result.name: result.report for result in results}
    residual, growth = reports["pde_residual"], reports["growth_ladder"]
    # written once every check has run, so a numeric failure leaves no file
    write_csv(
        outdir / "verify_residual.csv",
        ["r", "theta", "abs_residual"],
        np.column_stack((residual.r, residual.theta, residual.abs_residual)),
    )
    write_csv(
        outdir / "verify_growth.csv",
        ["R", "M", "m", "I", "envelope", "v", "bound_ok"],
        [
            (row.R, row.M, row.m, row.integral, row.envelope, row.v, row.bound_ok)
            for row in growth.rows
        ],
    )

    failures = [result.name for result in results if not result.ok]
    if failures:
        say(f"FAILED checks: {', '.join(failures)}")
        return EXIT_CHECK_FAILED
    say("all checks passed")
    return EXIT_OK


def cmd_extremal(outdir: Path, plot: bool, say, profile, r0, R, rho0=1.0, knots=128) -> int:
    sol = build_extremal(profile, r0, rho0, R, knots)
    rho_path = write_csv(
        outdir / "extremal_rho.csv", ["r", "rho"], np.column_stack((sol.knots, sol.rho))
    )
    coef_path = write_csv(
        outdir / "extremal_coefficient.csv",
        ["r", "kappa"],
        np.column_stack((sol.knots, sol.kappa_of_r()(sol.knots))),
    )
    say(f"wrote {rho_path} and {coef_path} ({sol.knots.size} knots)")
    return EXIT_OK


def cmd_sharpness(outdir: Path, plot: bool, say, example, ladder, n=CircleQuadrature()) -> int:
    report = sharpness_ladder(example, ladder, n)
    path = write_csv(outdir / "sharpness.csv", ["R", "ratio"], report.rows)
    say(f"wrote {path} ({len(report.rows)} rows)")
    if plot:
        svg = write_svg_polyline(
            outdir / "sharpness.svg",
            [row[0] for row in report.rows],
            [row[1] for row in report.rows],
            log_x=True,
            label="sharpness ratio vs R",
        )
        say(f"wrote {svg}")
    if report.kind == "power":
        claim = f"ratio constant at 1 (max deviation {fmt(report.max_deviation)})"
    else:
        claim = (f"ratio strictly decreasing and below half its initial value "
                 f"(decreasing={fmt(report.strictly_decreasing)}, halved={fmt(report.halved)})")
    say(f"{'PASS' if report.ok else 'FAIL'} {claim}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_nonexist(outdir: Path, plot: bool, say, profile, r0, observed=None, mapping=None,
                 ladder=None, n=CircleQuadrature()) -> int:
    if observed is not None:
        if mapping is not None:
            raise ConfigError("give either observed data or a mapping, not both")
        if ladder is not None:
            raise ConfigError("a ladder goes with a mapping, not with observed data")
    elif mapping is not None:
        if ladder is None:
            raise ConfigError("a mapping-based diagnostic needs a ladder")
        radii = ladder.radii()
        m_max, _ = modulus_extremes(mapping, mapping.center, radii, n)
        observed = list(zip(radii.tolist(), m_max.tolist()))
    else:
        raise ConfigError("need observed data or a mapping plus ladder")
    report = nonexistence_diagnostic(observed, profile, r0)
    path = write_csv(outdir / "nonexist.csv", ["R", "M", "v"], report.rows)
    say(f"wrote {path} ({len(report.rows)} rows)")
    say(f"verdict: {report.verdict} ({report.note})")
    return EXIT_OK


#: subcommand -> command; its parameters after (outdir, plot, say) are the
#: config's keys
COMMANDS = {
    "kappa": cmd_kappa,
    "envelope": cmd_envelope,
    "verify": cmd_verify,
    "extremal": cmd_extremal,
    "sharpness": cmd_sharpness,
    "nonexist": cmd_nonexist,
}
#: the subcommands that write an SVG with --plot
PLOTTED = ("envelope", "sharpness")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args does not
    change it, so every call of main parses alike."""
    parser = argparse.ArgumentParser(
        prog="beltrami-growth",
        description="Growth and residual checks for the nonlinear Beltrami "
        "equation with the Jacobian on the right-hand side.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory for CSV/SVG")
        p.add_argument(
            "--plot", action="store_true", help=f"also emit SVG plots ({' and '.join(PLOTTED)})"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress text")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.plot and args.command not in PLOTTED:
        print(f"note: --plot writes no SVG for {args.command}", file=sys.stderr)

    quiet = args.quiet

    def say(message: str):
        nonlocal quiet
        if quiet:
            return
        try:
            # flushed per line, so a closed stdout shows here and not at exit
            print(message, flush=True)
        except BrokenPipeError:
            # the reader has gone: the rest of the output goes to os.devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            quiet = True

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    command = COMMANDS[args.command]
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        params = _construct(dict, cfg, "config", config_keys(command, skip=3))
        # outside _construct: a ValueError of the numerics is no config error
        return command(outdir, args.plot, say, **params)
    except (ConfigError, OSError) as exc:
        # an OSError here is an --out that cannot be made or written to
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BeltramiGrowthError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
