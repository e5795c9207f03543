"""The config kind registry: every kind of every section takes exactly its
own keys, and a missing key is named together with its kind."""

import contextlib
import io
import json

import pytest

from beltrami_growth import (
    ConstantProfile,
    FieldProfile,
    GridCoefficient,
    Identity,
    Linear,
    LinearCoefficient,
    LogLog,
    LogLogCoefficient,
    LogProductProfile,
    PiecewiseProfile,
    Power,
    PowerCoefficient,
    RadialCoefficient,
    RadialTable,
    Spiral,
    SpiralCoefficient,
    TableProfile,
)
from beltrami_growth.cli import (
    EXIT_CONFIG,
    ConfigError,
    main,
    parse_coefficient,
    parse_mapping,
    parse_pair,
    parse_profile,
)
from beltrami_growth.mappings import Mapping

RHO_CSV = "r,rho\n1,1\n2,3\n4,5\n"
GRID_CSV = "r,theta,k2\n1,0,1\n1,3,2\n2,0,1\n2,3,2\n"
A, B = [0.3, 0.1], [1.2, -0.4]
CONSTANT = {"kind": "constant", "alpha": 2.0}


def run_main(tmp_path, command, cfg):
    """(exit code, stderr) of one CLI run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    return code, err.getvalue()


def parse_example(cfg, tmp_path):
    """The sharpness example, parsed by a short sharpness run."""
    config = {"example": cfg, "ladder": {"r0": 16.0, "count": 1}, "n": 16}
    code, err = run_main(tmp_path, "sharpness", config)
    if code == EXIT_CONFIG:
        raise ConfigError(err)
    return code


# section -> (parser, tag key, {kind: (minimal keys, optional keys, expected type)})
SECTIONS = {
    "mapping": (
        parse_mapping,
        "kind",
        {
            "identity": ({}, {}, Identity),
            "linear": ({"a": A, "b": B}, {"c": [0.0, 0.5]}, Linear),
            "spiral": ({}, {}, Spiral),
            "power": ({"alpha": 2.0}, {}, Power),
            "loglog": ({"alpha": 2.0}, {}, LogLog),
            "radial_table": (
                {"path": "RHO"},
                {"center": [1.0, 0.0], "linear_inner": True},
                RadialTable,
            ),
        },
    ),
    "coefficient": (
        parse_coefficient,
        "kind",
        {
            "linear": ({"a": A, "b": B}, {"center": [1.0, 0.0]}, LinearCoefficient),
            "spiral": ({}, {"center": [1.0, 0.0]}, SpiralCoefficient),
            "power": ({"alpha": 2.0}, {"center": [1.0, 0.0]}, PowerCoefficient),
            "loglog": ({"alpha": 2.0}, {"center": [1.0, 0.0]}, LogLogCoefficient),
            "grid": ({"path": "GRID"}, {"center": [1.0, 0.0]}, GridCoefficient),
            "radial": ({"profile": CONSTANT}, {"center": [1.0, 0.0]}, RadialCoefficient),
        },
    ),
    "profile": (
        parse_profile,
        "kind",
        {
            "constant": ({"alpha": 2.0}, {}, ConstantProfile),
            "log_product": ({"alpha": 1.0, "depth": 2}, {}, LogProductProfile),
            "piecewise": (
                {"breakpoints": [2.0], "pieces": [CONSTANT, CONSTANT]},
                {},
                PiecewiseProfile,
            ),
            "table": ({"radii": [1.0, 2.0], "values": [1.0, 3.0]}, {}, TableProfile),
            "from_field": (
                {"coefficient": {"kind": "power", "alpha": 2.0}},
                {"n": 64},
                FieldProfile,
            ),
        },
    ),
    "pair": (
        parse_pair,
        "name",
        {
            "identity": ({}, {}, tuple),
            "linear": ({"a": A, "b": B}, {"c": [0.0, 0.5]}, tuple),
            "spiral": ({}, {}, tuple),
            "power": ({"alpha": 2.0}, {}, tuple),
            "loglog": ({"alpha": 2.0}, {}, tuple),
            "extremal": (
                {"profile": CONSTANT, "r0": 1.0, "R": 64.0},
                {"rho0": 2.0, "knots": 64},
                tuple,
            ),
        },
    ),
    "sharpness example": (
        parse_example,
        "kind",
        {
            "power": ({"alpha": 2.0}, {}, int),
            "loglog": ({"alpha": 1.0}, {}, int),
        },
    ),
}

CASES = [
    (section, kind)
    for section, (_, _, kinds) in SECTIONS.items()
    for kind in kinds
]
IDS = [f"{section}-{kind}".replace(" ", "_") for section, kind in CASES]


@pytest.fixture
def files(tmp_path):
    (tmp_path / "rho.csv").write_text(RHO_CSV)
    (tmp_path / "grid.csv").write_text(GRID_CSV)
    return {"RHO": str(tmp_path / "rho.csv"), "GRID": str(tmp_path / "grid.csv")}


def config(section, kind, files, *, optional=False):
    _, tag, kinds = SECTIONS[section]
    minimal, extra, _ = kinds[kind]
    cfg = {tag: kind, **minimal, **(extra if optional else {})}
    return {key: files.get(value, value) if isinstance(value, str) else value
            for key, value in cfg.items()}


def parse(section, cfg, tmp_path):
    parser = SECTIONS[section][0]
    return parser(cfg, tmp_path) if parser is parse_example else parser(cfg)


def own_keys(section, kind):
    minimal, extra, _ = SECTIONS[section][2][kind]
    return set(minimal) | set(extra)


@pytest.mark.parametrize("section, kind", CASES, ids=IDS)
class TestKinds:
    def test_minimal_config_parses(self, section, kind, files, tmp_path):
        expected = SECTIONS[section][2][kind][2]
        result = parse(section, config(section, kind, files), tmp_path)
        assert isinstance(result, expected)
        if expected is tuple:
            mapping, coefficient = result
            assert isinstance(mapping, Mapping)
            assert hasattr(coefficient, "abs2")

    def test_optional_keys_parse(self, section, kind, files, tmp_path):
        expected = SECTIONS[section][2][kind][2]
        cfg = config(section, kind, files, optional=True)
        assert isinstance(parse(section, cfg, tmp_path), expected)

    def test_key_of_another_kind_rejected(self, section, kind, files, tmp_path):
        kinds = SECTIONS[section][2]
        foreign = set().union(*(own_keys(section, k) for k in kinds)) - own_keys(section, kind)
        if section == "sharpness example":
            # the example's kinds share their one key; the other mapping kinds' keys
            # are foreign to both
            foreign = {"a", "b", "c", "center", "path", "linear_inner"}
        assert foreign
        for key in sorted(foreign):
            cfg = dict(config(section, kind, files), **{key: 1.0})
            with pytest.raises(ConfigError, match="unknown keys") as info:
                parse(section, cfg, tmp_path)
            assert repr(key) in str(info.value)

    def test_missing_key_named_with_kind(self, section, kind, files, tmp_path):
        minimal = SECTIONS[section][2][kind][0]
        for key in minimal:
            cfg = config(section, kind, files)
            del cfg[key]
            with pytest.raises(ConfigError) as info:
                parse(section, cfg, tmp_path)
            message = str(info.value)
            assert repr(kind) in message and repr(key) in message


@pytest.mark.parametrize("tag_value", [["power"], 1, None, {"kind": "power"}])
@pytest.mark.parametrize("section", SECTIONS, ids=[s.replace(" ", "_") for s in SECTIONS])
def test_non_string_kind_rejected(section, files, tmp_path, tag_value):
    _, tag, kinds = SECTIONS[section]
    cfg = config(section, next(iter(kinds)), files)
    cfg[tag] = tag_value
    with pytest.raises(ConfigError, match="needs a string"):
        parse(section, cfg, tmp_path)


def test_unknown_kind_lists_the_known_ones():
    with pytest.raises(ConfigError, match="'loglog'") as info:
        parse_mapping({"kind": "spiralish"})
    assert "'spiralish'" in str(info.value)


def test_missing_kind_rejected():
    with pytest.raises(ConfigError, match="'kind'"):
        parse_profile({"alpha": 2.0})


def test_catalog_pair_kinds_match_the_catalog():
    mapping, coefficient = parse_pair({"name": "linear", "a": A, "b": B})
    assert mapping == Linear(complex(*A), complex(*B))
    assert coefficient == LinearCoefficient(complex(*A), complex(*B))


def test_sharpness_example_must_be_power_or_loglog(tmp_path):
    for kind, extra in (("spiral", {}), ("identity", {}), ("linear", {"a": A, "b": B})):
        with pytest.raises(ConfigError, match="sharpness example"):
            parse_example({"kind": kind, **extra}, tmp_path)


@pytest.mark.parametrize(
    "command, cfg",
    [
        (
            "verify",
            {"pair": {"name": "spiral", "alpha": 7}, "r0": 1.0, "ladder": {"r0": 1.0}},
        ),
        (
            "verify",
            {"pair": {"name": "power", "alpha": 2, "R": 3}, "r0": 1.0, "ladder": {"r0": 1.0}},
        ),
        (
            "nonexist",
            {
                "mapping": {"kind": "power", "alpha": 2, "center": [5, 0]},
                "ladder": {"r0": 2.0, "count": 2},
                "profile": CONSTANT,
                "r0": 1.0,
            },
        ),
        (
            "envelope",
            {
                "profile": {"kind": "constant", "alpha": 2, "depth": 3},
                "r0": 1.0,
                "ladder": {"r0": 1.0, "count": 2},
            },
        ),
        (
            "kappa",
            {"coefficient": {"kind": "spiral", "alpha": 9, "path": "x"}, "radii": [1.0]},
        ),
    ],
    ids=["spiral-alpha", "power-R", "power-center", "constant-depth", "spiral-path"],
)
def test_ignored_keys_exit_2(tmp_path, command, cfg):
    # these configs used to run with the extra key silently dropped
    code, err = run_main(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert "unknown keys" in err
