"""Every parameter rule is stated once, by a guard in ``mappings``.

``require_positive`` (positive and finite), ``require_count`` (an integer,
not a bool, of at least some minimum) and ``require_ascending`` (positive and
strictly ascending) raise ``InvalidParameter`` naming the parameter.  The
library tests give each constructor and function that takes such a parameter
a value its rule refuses; the CLI tests give every config key of those rules,
in every kind and command that ``config_keys`` reads, a refused value.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from beltrami_growth import cli
from beltrami_growth.dilatation import (
    CircleQuadrature,
    ConstantProfile,
    GridCoefficient,
    LogProductProfile,
    PiecewiseProfile,
    TableProfile,
    iterated_log,
    tower,
)
from beltrami_growth.errors import InvalidParameter
from beltrami_growth.growth import RadiusLadder
from beltrami_growth.mappings import (
    LogLog,
    Power,
    RadialTable,
    require_ascending,
    require_count,
    require_positive,
)
from beltrami_growth.verify import AnnulusGrid, build_extremal


class TestGuards:
    @pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, -math.inf])
    def test_positive_refuses(self, value):
        with pytest.raises(InvalidParameter, match=f"^alpha must be positive, got {value}$"):
            require_positive("alpha", value)

    @pytest.mark.parametrize("value", [5e-324, 1, 2.5, 1e308])
    def test_positive_accepts(self, value):
        require_positive("alpha", value)

    @pytest.mark.parametrize("value", [2.5, 8.0, True, False, "8", None, np.float64(8.0)])
    def test_count_refuses_non_integers(self, value):
        with pytest.raises(InvalidParameter, match="^n must be an integer$"):
            require_count("n", value, 8)

    def test_count_refuses_below_minimum(self):
        with pytest.raises(InvalidParameter, match="^n must be at least 8, got 7$"):
            require_count("n", 7, 8)

    @pytest.mark.parametrize("value", [8, np.int64(8), np.int32(9), 2**70])
    def test_count_accepts(self, value):
        assert require_count("n", value, 8) is value

    @pytest.mark.parametrize(
        "values", [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0], [1.0, math.nan], [math.nan]]
    )
    def test_ascending_refuses(self, values):
        message = "^radii must be positive and strictly ascending$"
        with pytest.raises(InvalidParameter, match=message):
            require_ascending("radii", values)

    @pytest.mark.parametrize("values", [[], [1.0], (0.5, 1.0, math.inf), np.array([1, 2, 3])])
    def test_ascending_accepts(self, values):
        require_ascending("radii", values)

    def test_is_a_value_error(self):
        # cli._construct turns a ValueError from a reader or constructor into exit 2
        assert issubclass(InvalidParameter, ValueError)


def grid_coefficient(radii):
    return GridCoefficient(radii, [0.0], np.ones((len(radii), 1)))


def extremal(rho0=1.0, knots=128):
    return build_extremal(ConstantProfile(2.0), 1.0, rho0, 16.0, knots)


#: (site, call with a refused value, the message it must match).  Six values
#: passed before the guards: a 100.5-node rule had 101 nodes, a 2.5-step
#: ladder 3 steps, a NaN cut sent every radius to the first piece, a bool
#: depth was 1, and AnnulusGrid and build_extremal raised TypeError on a
#: fractional count
SITES = [
    # require_positive
    ("Power.alpha", lambda: Power(0.0), "alpha must be positive"),
    ("LogLog.alpha", lambda: LogLog(math.nan), "alpha must be positive"),
    ("ConstantProfile.alpha", lambda: ConstantProfile(-1.0), "alpha must be positive"),
    ("LogProductProfile.alpha", lambda: LogProductProfile(math.inf, 2), "alpha must be positive"),
    ("build_extremal.rho0", lambda: extremal(rho0=math.inf), "rho0 must be positive"),
    ("cli._num", lambda: cli._num(0, "r0", positive=True), "r0 must be positive, got 0"),
    # require_count
    ("CircleQuadrature.n", lambda: CircleQuadrature(100.5), "n must be an integer"),
    ("CircleQuadrature.n-min", lambda: CircleQuadrature(4), "n must be at least 8, got 4"),
    ("AnnulusGrid.n_r", lambda: AnnulusGrid(1.0, 2.0, 2.5), "n_r must be an integer"),
    ("AnnulusGrid.n_r-min", lambda: AnnulusGrid(1.0, 2.0, 1), "n_r must be at least 2, got 1"),
    ("AnnulusGrid.n_theta", lambda: AnnulusGrid(1.0, 2.0, 32, 4), "n_theta must be at least 8"),
    ("build_extremal.knots", lambda: extremal(knots=64.5), "knots must be an integer"),
    ("build_extremal.knots-min", lambda: extremal(knots=10), "knots must be at least 64, got 10"),
    ("RadiusLadder.count", lambda: RadiusLadder(1.0, 2.0, 2.5), "count must be an integer"),
    ("RadiusLadder.count-min", lambda: RadiusLadder(1.0, 2.0, 0), "count must be at least 1"),
    ("LogProductProfile.depth", lambda: LogProductProfile(2.0, True), "depth must be an integer"),
    ("LogProductProfile.depth-min", lambda: LogProductProfile(2.0, 0), "depth must be at least 1"),
    ("tower", lambda: tower(0), "tower index must be at least 1, got 0"),
    ("iterated_log", lambda: iterated_log(1.0, 10.0), "log depth must be an integer"),
    *(
        (f"cli.KEY_READERS[{key!r}]", lambda key=key: cli.KEY_READERS[key](2.5), f"{key} must be")
        for key in ("depth", "knots", "count", "n_r", "n_theta", "n")
    ),
    # require_ascending
    ("GridCoefficient.radii", lambda: grid_coefficient([2.0, 1.0]), "radii must be positive"),
    ("TableProfile.radii", lambda: TableProfile([1.0, math.nan], [1.0, 1.0]), "radii must be"),
    ("RadialTable.knots", lambda: RadialTable([1.0, 1.0], [1.0, 2.0]), "knots must be positive"),
    (
        "PiecewiseProfile.cut_radii",
        lambda: PiecewiseProfile((math.nan,), (ConstantProfile(1.0), ConstantProfile(2.0))),
        "cut radii must be positive and strictly ascending",
    ),
]


@pytest.mark.parametrize("call, message", [s[1:] for s in SITES], ids=[s[0] for s in SITES])
def test_site_refuses_through_its_guard(call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}"):
        call()


# ---------------------------------------------------------------------------
# the same rules through the CLI, for every key that config_keys reads

#: keys whose value must be positive and finite, refused at 0
POSITIVE_KEYS = {"alpha", "rho0"}
#: count keys and their minimum; each refuses 2.5 and its minimum - 1
COUNT_MINIMUMS = {"n": 8, "n_r": 2, "n_theta": 8, "knots": 64, "count": 1, "depth": 1}

#: a good value for each key a host config or a kind under test requires
GOOD = {
    "alpha": 2.0,
    "depth": 2,
    "r0": 1.0,
    "R": 16.0,
    "r_inner": 1.0,
    "r_outer": 2.0,
    "radii": [1.0, 2.0],
    "profile": {"kind": "constant", "alpha": 2.0},
    "coefficient": {"kind": "power", "alpha": 2.0},
    "pair": {"name": "power", "alpha": 2.0},
    "example": {"kind": "power", "alpha": 2.0},
    "ladder": {"r0": 1.0, "count": 2},
}

#: section key -> (tag, kind table, the command that hosts the section)
TAGGED = {
    "mapping": ("kind", cli.MAPPING_KINDS, "nonexist"),
    "coefficient": ("kind", cli.COEFFICIENT_KINDS, "kappa"),
    "profile": ("kind", cli.PROFILE_KINDS, "envelope"),
    "pair": ("name", cli.PAIR_NAMES, "verify"),
    "example": ("kind", cli.EXAMPLE_KINDS, "sharpness"),
}
#: section key -> (its one constructor, the command that hosts the section)
UNTAGGED = {"ladder": (cli.RadiusLadder, "envelope"), "grid": (cli.AnnulusGrid, "verify")}


RULE_KEYS = POSITIVE_KEYS | set(COUNT_MINIMUMS)


def rows():
    """(row id, constructor, parameters to skip, tag, host command, section key)
    of every row that config_keys reads."""
    for name, build in cli.COMMANDS.items():
        yield f"command-{name}", build, 3, {}, name, None
    for section, (tag, kinds, host) in TAGGED.items():
        for kind, build in kinds.items():
            yield f"{section}-{kind}", build, 0, {tag: kind}, host, section
    for section, (build, host) in UNTAGGED.items():
        yield section, build, 0, {}, host, section


def filled(build, skip, given):
    """The good value of each required key of build not in given, then given."""
    required, _ = cli.config_keys(build, skip)
    return {**{key: GOOD[key] for key in required if key not in given}, **given}


def refused_values(key):
    return [0] if key in POSITIVE_KEYS else [2.5, COUNT_MINIMUMS[key] - 1]


def cases():
    """(id, command, config, key) of each refused value of each rule key; a
    section under test is read after the host command's other keys."""
    for row_id, build, skip, tag, command, section in rows():
        required, optional = cli.config_keys(build, skip)
        for key in sorted({*required, *optional} & RULE_KEYS):
            for value in refused_values(key):
                cfg = filled(build, skip, {**tag, key: value})
                if section is not None:
                    cfg = filled(cli.COMMANDS[command], 3, {section: cfg})
                yield f"{row_id}-{key}={value}", command, cfg, key


CASES = list(cases())


def test_cases_cover_every_rule_key():
    assert {case[3] for case in CASES} == RULE_KEYS


@pytest.mark.parametrize(
    "command, cfg, key", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_cli_refuses_rule_key(tmp_path, command, cfg, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == cli.EXIT_CONFIG
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {key} must be "), lines
