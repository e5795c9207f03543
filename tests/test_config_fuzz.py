"""Every config ends in one of four exits.

Configs are drawn from the CLI's own tables: each COMMANDS row and each kind
row gives its keys through config_keys, so a new kind is fuzzed as soon as
it has a row.  A section holds its required keys and a subset of its
optional ones, in any order; the keys that size the work (n, count, knots,
n_r, n_theta) are always given, within small bounds.  Each value is a good
one, an extreme one (a subnormal, 1e300, 1e308, the seam radii e^e and
e_3), an invalid one (0, negatives, NaN) or a wrong type.  Every config
runs in process through cli.main.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from beltrami_growth import cli
from beltrami_growth.cli import COMMANDS, KEY_READERS, PLOTTED, config_keys, main
from beltrami_growth.dilatation import E_2, E_3

#: section key -> (tag, kind table)
TAGGED = {
    "mapping": ("kind", cli.MAPPING_KINDS),
    "coefficient": ("kind", cli.COEFFICIENT_KINDS),
    "profile": ("kind", cli.PROFILE_KINDS),
    "example": ("kind", cli.EXAMPLE_KINDS),
    "pair": ("name", cli.PAIR_NAMES),
}
#: section key -> its one constructor
UNTAGGED = {"ladder": cli.RadiusLadder, "grid": cli.AnnulusGrid}

#: every row that config_keys reads: (row id, constructor, parameters to skip)
ROWS = [
    *((f"command-{name}", build, 3) for name, build in COMMANDS.items()),
    *(
        (f"{key}-{kind}", build, 0)
        for key, (_, kinds) in TAGGED.items()
        for kind, build in kinds.items()
    ),
    ("pair-unnamed", cli._unnamed_pair, 0),
    *((key, build, 0) for key, build in UNTAGGED.items()),
]


@pytest.mark.parametrize("build, skip", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_every_key_has_a_reader(build, skip):
    # a key without a reader would be a KeyError, not exit 2
    required, optional = config_keys(build, skip)
    assert {*required, *optional} <= set(KEY_READERS)


#: finite and positive, so every number reader takes them
EXTREMES = [5e-324, 1e300, 1e308, E_2, E_3]
#: refused by the readers of positive numbers, of every number or of integers
INVALID = [0, -2, -1.0, -1e300, math.nan]
WRONG = ["x", True, None, [1.0], {}]

#: the keys that size the work, always given
SIZES = {"n", "count", "knots", "n_r", "n_theta"}

RADIAL_TABLE = "r,rho\n1,1\n2,2.5\n4,6\n"
GRID_TABLE = "r,theta,k2\n0.5,0,0.25\n0.5,3,0.25\n8,0,0.25\n8,3,0.25\n"


def mostly(good, bad):
    """good eight times in nine, else bad."""
    return st.sampled_from([good] * 8 + [bad]).flatmap(lambda strategy: strategy)


def numbers(*good):
    """A good number or, about as often, an extreme one."""
    return st.one_of(st.sampled_from(good), st.sampled_from(EXTREMES))


def pairs(*good):
    return st.lists(
        st.one_of(st.sampled_from(good), st.sampled_from([0, -1.0, -1e300, *EXTREMES])),
        min_size=2,
        max_size=2,
    )


#: the good values of each key that is no section
LEAVES = {
    "a": pairs(0.3, 0.5),
    "b": pairs(1.2, 2.0),
    "c": pairs(0.5),
    "center": pairs(0.0, 1.0),
    "alpha": numbers(0.5, 1.0, 2.0),
    "r0": numbers(0.5, 1.0, 3.0),
    "rho0": numbers(1.0, 2.0),
    "R": numbers(8.0, 64.0),
    "h": numbers(1e-5),
    "residual_tol": numbers(1e-8, 1.0),
    "r_inner": numbers(0.5, 1.0),
    "r_outer": numbers(2.0, 4.0),
    "factor": numbers(1.5, 2.0),
    "depth": st.integers(1, 3),
    "knots": st.integers(64, 256),
    "count": st.integers(1, 8),
    "n_r": st.integers(2, 8),
    "n_theta": st.integers(8, 16),
    "n": st.integers(8, 64),
    "path": st.sampled_from(["radial.csv", "grid.csv", "missing.csv"]),
    "linear_inner": st.booleans(),
    "breakpoints": st.lists(numbers(2.0, 5.0), max_size=2),
    "radii": st.lists(numbers(0.5, 1.0, 2.0), max_size=3),
    "values": st.lists(numbers(1.0, 2.0), max_size=3),
    "observed": st.lists(pairs(2.0, 4.0), max_size=3),
}


@st.composite
def section(draw, build, depth, skip=0, head=()):
    """A config object for build: its required keys, the size keys and a
    subset of its other optional keys, in a drawn order."""
    required, optional = config_keys(build, skip)
    keys = [*required, *(k for k in optional if k in SIZES or draw(st.booleans()))]
    return dict(head, **{key: draw(value(key, depth)) for key in draw(st.permutations(keys))})


def nested(key, depth):
    if key == "pieces":
        return st.lists(nested("profile", depth), min_size=1, max_size=3)
    if key in UNTAGGED:
        return section(UNTAGGED[key], depth)
    tag, kinds = TAGGED[key]
    tagged = st.sampled_from(sorted(kinds)).flatmap(
        lambda kind: section(kinds[kind], depth, head={tag: kind})
    )
    if key == "pair":
        tagged = st.one_of(tagged, section(cli._unnamed_pair, depth))
    return mostly(tagged, st.sampled_from([{tag: "bogus"}, {tag: 3}]))


def value(key, depth):
    """A good value of key eight times in nine, else an invalid number or a
    wrong type; below the nesting depth a section is never good."""
    bad = st.sampled_from(INVALID + WRONG)
    if key in LEAVES:
        return mostly(LEAVES[key], bad)
    if depth == 0:
        return bad
    return mostly(nested(key, depth - 1), bad)


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    cfg = draw(section(COMMANDS[command], 3, skip=3))
    plot = command in PLOTTED and draw(st.booleans())
    return command, cfg, plot


LABELS = {"true", "false", "-", "left", "right"}


def finite_or_label(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return cell in LABELS


def run_config(command, cfg, plot):
    """(exit code, stderr, warnings, {CSV name: lines}) of one in-process run,
    from a temp dir that holds the tables the "path" values name."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("radial.csv").write_text(RADIAL_TABLE)
            Path("grid.csv").write_text(GRID_TABLE)
            Path("config.json").write_text(json.dumps(cfg))
            argv = [command, "--config", "config.json", "--out", "out", *["--plot"] * plot]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(
                err
            ), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv)
            csvs = {p.name: p.read_text().splitlines() for p in Path("out").glob("*.csv")}
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), [str(w.message) for w in caught], csvs


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(runs())
def test_every_config_ends_in_one_of_four_exits(run):
    command, cfg, plot = run
    code, err, caught, csvs = run_config(command, cfg, plot)
    assert code in (0, 1, 2, 3)
    assert caught == []
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert csvs == {}
    else:
        for name, lines in csvs.items():
            cells = [cell for line in lines[1:] for cell in line.split(",")]
            assert lines[1:] and all(map(finite_or_label, cells)), name
