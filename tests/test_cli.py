"""Command-line interface: config parsing, outputs, exit codes, determinism."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from beltrami_growth import cli
from beltrami_growth.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    PLOTTED,
    ConfigError,
    _parser,
    _spelled_floats,
    fmt,
    main,
    parse_ladder,
    parse_mapping,
    parse_pair,
    write_csv,
)
from beltrami_growth import CircleQuadrature, Power, RadiusLadder, growth, verify_pair
from beltrami_growth.dilatation import E_2
from test_readme import EXAMPLES, reference_csv


def run(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestFormatting:
    def test_floats_round_trip(self):
        for v in (1.0, math.pi, 1e-300, 0.1 + 0.2):
            assert float(fmt(v)) == v

    def test_bools_and_ints(self):
        assert fmt(True) == "true"
        assert fmt(False) == "false"
        assert fmt(7) == "7"

    def test_numpy_bools(self):
        assert fmt(np.bool_(True)) == "true"
        assert fmt(np.bool_(False)) == "false"

    def test_csv_bytes_of_every_cell_type(self, tmp_path):
        # an int cell is refused: see TestSpelledOnce.WRONG_INPUTS
        row = (0.1, np.float64(1.0 / 3.0), True, np.bool_(False), "x", "-")
        path = write_csv(tmp_path / "row.csv", list("abcdef"), [row, row[::-1]])
        assert path.read_bytes() == (
            b"a,b,c,d,e,f\n"
            b"0.10000000000000001,0.33333333333333331,true,false,x,-\n"
            b"-,x,false,true,0.33333333333333331,0.10000000000000001\n"
        )

    #: floats whose spelling is easy to get wrong: nan, the infinities, a
    #: signed zero, subnormals and numpy scalars
    EDGE_FLOATS = (
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        5e-324,
        2.5e-310,
        np.float64(1.0 / 3.0),
        np.float64(-0.0),
        np.float64(math.nan),
        1e300,
    )

    @pytest.mark.parametrize(
        "last",
        [None, True, False, np.bool_(True), np.bool_(False)],
        ids=["floats", "True", "False", "np.True_", "np.False_"],
    )
    def test_rows_spelled_as_fmt(self, tmp_path, last):
        # a bool is a label, spelled apart from the floats; both must give
        # fmt's bytes (an int last cell is refused: see TestSpelledOnce)
        row = self.EDGE_FLOATS + (() if last is None else (last,))
        header = [f"c{i}" for i in range(len(row))]
        path = write_csv(tmp_path / "row.csv", header, [row, row])
        line = ",".join(fmt(v) for v in row)
        assert path.read_text() == ",".join(header) + "\n" + (line + "\n") * 2
        assert line.startswith("nan,inf,-inf,-0,4.9406564584124654e-324,")
        if isinstance(last, (bool, np.bool_)):
            assert line.endswith("true" if last else "false")


class TestWriteCsvReference:
    """write_csv writes the bytes of a per-row csv.writer over fmt, a string as given."""

    FLOATS = [
        (-0.0, 5e-324, 1e308),
        (math.inf, -math.inf, math.nan),
        (0.1, np.float64(1.0 / 3.0), -2.5e-310),
        (1.0, 2.0, np.float64(-0.0)),
    ]
    #: floats and bools, which write_csv spells as one table
    FLOATS_AND_BOOLS = [
        (-0.0, True, np.bool_(False)),
        (math.nan, np.float64(2.5), False),
        (math.inf, -math.inf, np.bool_(True)),
        (5e-324, np.float64(-0.0), True),
        (np.bool_(False), False, 0.0),
        (1.0, np.float64(1.0), np.bool_(True)),
    ]

    @pytest.mark.parametrize(
        "rows",
        [
            FLOATS,
            FLOATS[:1],
            FLOATS_AND_BOOLS,
            FLOATS_AND_BOOLS[:1],
            [(True, False, np.bool_(True))] * 3,
            FLOATS_AND_BOOLS + [(1.0, True, "x")],
            [],
            np.array(FLOATS, dtype=np.float64),
            # a residual-like table: repeated radii and angles, round-off values
            np.column_stack((
                np.repeat(np.geomspace(0.5, 4.0, 8), 4),
                np.tile(np.linspace(0.0, 6.0, 4), 8),
                np.random.default_rng(5).standard_normal(32) * 1e-17,
            )),
            np.empty((0, 3)),
            np.asfortranarray(np.array(FLOATS, dtype=np.float64)),
        ],
        ids=["floats", "one-row", "floats-and-bools", "one-row-with-bools", "bools",
             "bools-and-a-string", "no-rows", "array", "grid-array", "empty-array",
             "column-major-array"],
    )
    def test_bytes_equal_reference(self, tmp_path, rows):
        header = ["a", "b", "c"]
        path = write_csv(tmp_path / "t.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows)

    def test_labels_spelled_once(self, tmp_path, monkeypatch):
        # kappa.csv's rows: two floats and a piece label, spelled as one table
        spelled = []
        monkeypatch.setattr(
            cli, "_spelled_floats", lambda *args: spelled.append(args) or _spelled_floats(*args)
        )
        header = ["r", "kappa", "piece"]
        rows = [(r, 2.0, "-") for r in (1.5, 3.0)] + [(5.0, 2.0, "left"), (5.0, 3.0, "right")]
        path = write_csv(tmp_path / "k.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows)
        assert len(spelled) == 1 and spelled[0][2] == ["-", "left", "right"]

    def test_growth_table_spelled_once(self, tmp_path, monkeypatch):
        # verify_growth.csv's rows: six floats and a bool, spelled as one table
        spelled = []
        monkeypatch.setattr(
            cli, "_spelled_floats", lambda *args: spelled.append(args) or _spelled_floats(*args)
        )
        header = ["R", "M", "m", "I", "envelope", "v", "bound_ok"]
        radii = np.geomspace(0.5, 0.5 * 2.0**40, 41).tolist()
        rows = [
            (R, 1.5 * R, 0.5 * R, math.log(R), R, 0.75, k % 3 != 0 if k % 2 else np.bool_(k > 9))
            for k, R in enumerate(radii)
        ]
        path = write_csv(tmp_path / "g.csv", header, rows)
        assert path.read_bytes() == reference_csv(header, rows)
        assert len(spelled) == 1

    def test_generator_rows(self, tmp_path):
        header = ["a", "b", "c"]
        path = write_csv(tmp_path / "t.csv", header, (row for row in self.FLOATS))
        assert path.read_bytes() == reference_csv(header, self.FLOATS)
        radii = np.geomspace(0.5, 4.0, 5)
        path = write_csv(tmp_path / "z.csv", ["r", "rho"], zip(radii, np.sqrt(radii)))
        assert path.read_bytes() == reference_csv(["r", "rho"], zip(radii, np.sqrt(radii)))
        path = write_csv(tmp_path / "e.csv", header, iter(()))
        assert path.read_bytes() == reference_csv(header, []) == b"a,b,c\n"


def nan_with(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


class TestSpelledOnce:
    """Cells that compare equal but differ in bits keep their own spelling."""

    #: one column of floats that are easy to spell wrong, each repeated: both
    #: zeros and NaNs of both signs and two payloads, which compare equal or
    #: unordered while their bits differ, subnormals and both infinities
    HARD = [
        0.0,
        -0.0,
        math.nan,
        -math.nan,
        nan_with(0x7FF8000000000001),
        nan_with(0xFFF8000000000002),
        5e-324,
        -5e-324,
        2.5e-310,
        math.inf,
        -math.inf,
        1.0 / 3.0,
    ] * 7

    @pytest.mark.parametrize("as_array", [True, False], ids=["array", "rows"])
    def test_values_that_compare_equal_keep_their_spelling(self, tmp_path, as_array):
        rng = np.random.default_rng(11)
        column = [self.HARD[i] for i in rng.permutation(len(self.HARD))]
        # the second column holds the same cells in reverse order
        rows = list(zip(column, column[::-1]))
        table = np.array(rows, dtype=np.float64)
        path = write_csv(tmp_path / "t.csv", ["x", "y"], table if as_array else rows)
        assert path.read_bytes() == reference_csv(["x", "y"], rows)
        lines = path.read_text().splitlines()[1:]
        spelled = {line.split(",")[0] for line in lines}
        assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"} <= spelled
        assert [line.split(",")[0] == "-0" for line in lines] == [
            v == 0.0 and math.copysign(1.0, v) < 0 for v in column
        ]

    FLOATS = TestWriteCsvReference.FLOATS
    EDGE_ROW = TestFormatting.EDGE_FLOATS
    ABC = ["a", "b", "c"]
    ARRAY = "2-d float64 array of 3 columns"
    CELLS = "floats, bools or strings"
    UNQUOTED = "free of CSV quoting"
    #: (header, rows, message) of every input that no command writes
    WRONG_INPUTS = {
        "narrow": (ABC, np.zeros((4, 2)), ARRAY),
        "wide": (ABC, np.zeros((4, 4)), ARRAY),
        "1-d": (ABC, np.zeros(3), ARRAY),
        "3-d": (ABC, np.zeros((2, 3, 3)), ARRAY),
        "float32": (ABC, np.zeros((4, 3), dtype=np.float32), ARRAY),
        "int64": (ABC, np.zeros((4, 3), dtype=np.int64), ARRAY),
        "object": (ABC, np.zeros((4, 3), dtype=object), ARRAY),
        "bool": (ABC, np.zeros((4, 3), dtype=bool), ARRAY),
        # int cells
        "every-cell-type": (
            list("abcdefg"),
            [(0.1, np.float64(1.0 / 3.0), True, np.bool_(False), 7, np.int64(-3), "x")],
            CELLS,
        ),
        "int-last": ([f"c{i}" for i in range(11)], [EDGE_ROW + (7,)] * 2, CELLS),
        "np.int64-last": ([f"c{i}" for i in range(11)], [EDGE_ROW + (np.int64(-3),)] * 2, CELLS),
        "mixed-first": (ABC, [(1.0, True, "x"), (2.0, np.bool_(False), 7)] + FLOATS, CELLS),
        "mixed-last": (ABC, FLOATS + [(np.int64(3), -1, "a,b")], CELLS),
        "none": (ABC, [(1.0, None, 2.0)], CELLS),
        # rows shorter or longer than the header
        "bools-and-short": (ABC, TestWriteCsvReference.FLOATS_AND_BOOLS + [(1.0, True)], CELLS),
        "short": (ABC, FLOATS + [(1.0, 2.0)], CELLS),
        "long": (ABC, FLOATS[:2] + [(1.0, 2.0, 3.0, 4.0)], CELLS),
        # an empty header
        "no-columns": ([], [(), ()], UNQUOTED),
        "no-columns-array": ([], np.empty((2, 0)), UNQUOTED),
        # strings and names that CSV would quote, or that are empty
        "comma-label": (ABC, [(1.0, 2.0, "a,b")], UNQUOTED),
        "quote-label": (ABC, [(1.0, 2.0, 'say "x"')], UNQUOTED),
        "cr-label": (ABC, [(1.0, 2.0, "a\rb")], UNQUOTED),
        "newline-label": (ABC, [(1.0, 2.0, "a\n")], UNQUOTED),
        "empty-label": (ABC, [(1.0, 2.0, "")], UNQUOTED),
        "comma-name": (["a", "b,c", "d"], [(1.0, 2.0, 3.0)], UNQUOTED),
        "quote-name": (["a", '"b"', "c"], np.zeros((1, 3)), UNQUOTED),
        "empty-name": (["a", "", "c"], [(1.0, 2.0, 3.0)], UNQUOTED),
    }

    @pytest.mark.parametrize(
        "header, rows, message", WRONG_INPUTS.values(), ids=WRONG_INPUTS.keys()
    )
    def test_wrong_array_rejected_before_writing(self, tmp_path, header, rows, message):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=message):
            write_csv(path, header, rows)
        assert not path.exists()

    def test_verify_residual_spelled_as_fmt(self, tmp_path):
        # the README's verify example on the power pair; its ladder top is
        # 2^40, so the residual grid is the default one from r0 to 8 r0
        command, text = EXAMPLES[0]
        cfg = json.loads(text)
        assert command == "verify" and cfg["pair"]["name"] == "power"
        code, out = run(tmp_path, "verify", cfg, "--quiet")
        assert code == EXIT_OK
        mapping, coefficient = parse_pair(cfg["pair"])
        ladder, q = parse_ladder(cfg["ladder"]), CircleQuadrature(cfg["n"])
        residual = next(verify_pair(mapping, coefficient, cfg["r0"], ladder, q)).report
        rows = zip(residual.r.tolist(), residual.theta.tolist(), residual.abs_residual.tolist())
        expected = reference_csv(["r", "theta", "abs_residual"], rows)
        assert (out / "verify_residual.csv").read_bytes() == expected
        assert expected.count(b"\n") == 1 + 32 * 64


class TestKappa:
    def test_loglog_with_breakpoint_rows(self, tmp_path):
        cfg = {
            "coefficient": {"kind": "loglog", "alpha": 1.0},
            "radii": [1.0, E_2, 100.0],
        }
        code, out = run(tmp_path, "kappa", cfg)
        assert code == EXIT_OK
        header, rows = read_csv(out / "kappa.csv")
        assert header == ["r", "kappa", "piece"]
        assert [row[2] for row in rows] == ["-", "left", "right", "-"]
        # one-sided limits at the jump radius: 1 inside, e outside
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-6)
        assert float(rows[2][1]) == pytest.approx(math.e, rel=1e-6)
        assert float(rows[3][1]) == pytest.approx(
            math.log(100.0) * math.log(math.log(100.0)), rel=1e-10
        )

    def test_bad_radii_rejected(self, tmp_path):
        cfg = {"coefficient": {"kind": "power", "alpha": 1.0}, "radii": []}
        code, _ = run(tmp_path, "kappa", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "center, spacing, named",
        [(1e308, "1.99584030953472e+292", "(1e+308+1e+308j)"), (1e16, "2.0", "(1e+16+1e+16j)")],
        ids=["1e308", "1e16"],
    )
    def test_radius_lost_against_a_huge_center(self, tmp_path, capsys, center, spacing, named):
        # center + 1 rounds to the center: the message blames the rounding
        cfg = {
            "coefficient": {"kind": "power", "alpha": 2.0, "center": [center, center]},
            "radii": [1.0],
        }
        code, _ = run(tmp_path, "kappa", cfg)
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric failure: |z - center| = 0.0 below the floor 1e-14: "
            f"radii below {spacing} are lost to rounding against the center {named}\n"
        )


class TestEnvelope:
    def test_constant_profile_closed_form(self, tmp_path):
        cfg = {
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 4.0, "count": 5},
        }
        code, out = run(tmp_path, "envelope", cfg, "--plot")
        assert code == EXIT_OK
        _, rows = read_csv(out / "envelope.csv")
        for R, _, env in ((float(a), float(b), float(c)) for a, b, c in rows):
            assert env == pytest.approx(math.sqrt(R), rel=1e-10)
        # the SVG plot must be well-formed standalone XML
        root = ET.parse(out / "envelope.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 640 480"

    def test_grid_ladder_leaving_the_table(self, tmp_path, capsys):
        # the grid's radial range is the field profile's domain, so the gap
        # that leaves [1, 4] is refused before it is integrated
        path = tmp_path / "grid.csv"
        path.write_text(
            "r,theta,k2\n"
            + "".join(f"{r},{t},1\n" for r in (1, 2, 4) for t in (0, 1.5, 3, 4.5))
        )
        cfg = {
            "profile": {"kind": "from_field", "coefficient": {"kind": "grid", "path": str(path)}},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 1.1, "count": 25},
        }
        code, _ = run(tmp_path, "envelope", cfg)
        assert code == EXIT_NUMERIC
        assert "outside the profile's radial domain [1.0, 4.0]" in capsys.readouterr().err

    def test_subnormal_kappa_is_numeric_failure(self, tmp_path, capsys):
        # 1/kappa overflows on every panel above r0; a numpy warning on the
        # way would be an error under this suite's filterwarnings
        cfg = {
            "profile": {"kind": "constant", "alpha": 1e-310},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 3},
        }
        code, out = run(tmp_path, "envelope", cfg)
        assert code == EXIT_NUMERIC
        assert list(out.glob("*.csv")) == []
        assert capsys.readouterr().err == (
            "numeric failure: attenuation integral panel = inf at gap 1, [1.0, 2.0] "
            "is beyond double precision (3 of 3 samples)\n"
        )

    def test_overflowing_envelope_names_its_rung(self, tmp_path, capsys):
        # every I is finite (about 6.9e299 at R = 2), but not exp(I)
        cfg = {
            "profile": {"kind": "constant", "alpha": 1e-300},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 3},
        }
        code, out = run(tmp_path, "envelope", cfg)
        assert code == EXIT_NUMERIC
        assert list(out.glob("*.csv")) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "numeric failure: envelope exp(I) overflows double precision at R = 2.0, I = 6.9"
        )


class TestVerify:
    CFG = {
        "pair": {"name": "power", "alpha": 2.0},
        "r0": 1.0,
        "ladder": {"r0": 1.0, "factor": 2.0, "count": 8},
        "n": 256,
    }

    def test_solution_pair_passes(self, tmp_path, capsys):
        code, out = run(tmp_path, "verify", self.CFG)
        assert code == EXIT_OK
        text = capsys.readouterr().out
        for check in (
            "pde_residual",
            "differential_inequality",
            "isoperimetric",
            "area_bound",
            "growth_ladder",
        ):
            assert f"PASS {check}" in text
        header, rows = read_csv(out / "verify_growth.csv")
        assert header == ["R", "M", "m", "I", "envelope", "v", "bound_ok"]
        assert len(rows) == 9
        assert all(row[6] == "true" for row in rows)
        header, _ = read_csv(out / "verify_residual.csv")
        assert header == ["r", "theta", "abs_residual"]

    def test_overflowing_envelope_names_its_rung(self, tmp_path, capsys):
        # kappa = 1/1000 gives I = 1000 ln R, whose exp overflows from R = 4;
        # the area bound is still judged, its right-hand side underflowed to 0
        pair = {
            "mapping": {"kind": "power", "alpha": 1},
            "coefficient": {"kind": "power", "alpha": 0.001},
        }
        code, out = run(tmp_path, "verify", dict(self.CFG, pair=pair))
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "FAIL area_bound" in captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "numeric failure: envelope exp(I) overflows double precision at R = 4.0, I = 1386."
        )
        # the residual table was judged before the failure, yet nothing is written
        assert list(out.iterdir()) == []

    def test_no_check_radii_is_config_error_after_the_residual(self, tmp_path, capsys):
        # the ladder tops out at 1.001 r0, so every check radius r lies
        # within the mask's margin 0.1 r of the loglog seam at e^e = 15.154;
        # the residual, judged before the radii are drawn, is printed, and
        # nothing is written
        cfg = {
            "pair": {"name": "loglog", "alpha": 2.0},
            "r0": 15.1,
            "ladder": {"r0": 15.1, "factor": 1.001, "count": 1},
            "n": 256,
        }
        code, out = run(tmp_path, "verify", cfg)
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == (
            "PASS pde_residual max=1.5515838457795457e-17 rms=3.8358104309682909e-18 tol=1e-08\n",
            "config error: no check radii clear of the mapping's excluded bands\n",
        )
        assert list(out.iterdir()) == []

    def test_mismatched_pair_fails(self, tmp_path, capsys):
        cfg = {
            "pair": {
                "mapping": {"kind": "power", "alpha": 2.0},
                "coefficient": {"kind": "power", "alpha": 3.0},
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 4},
            "n": 128,
        }
        code, _ = run(tmp_path, "verify", cfg)
        assert code == EXIT_CHECK_FAILED
        assert "FAIL pde_residual" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(self.CFG, bogus=1)
        code, _ = run(tmp_path, "verify", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "1e400"]
    )
    @pytest.mark.parametrize("key", ["residual_tol", "r0", "h"])
    def test_non_finite_number_rejected(self, tmp_path, key, value):
        # json reads Infinity, NaN and integers beyond the float range; an
        # infinite tolerance would pass any residual
        cfg = dict(self.CFG, **{key: value})
        code, _ = run(tmp_path, "verify", cfg)
        assert code == EXIT_CONFIG

    @staticmethod
    def linear_verify(tmp_path, center, c):
        tmp_path.mkdir()
        cfg = {
            "pair": {
                "mapping": {"kind": "linear", "a": [0.3, 0.1], "b": [1.2, -0.4], "c": c},
                "coefficient": {
                    "kind": "linear", "a": [0.3, 0.1], "b": [1.2, -0.4], "center": center
                },
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 4},
            "n": 256,
        }
        code, out = run(tmp_path, "verify", cfg, "--quiet")
        assert code == EXIT_OK
        _, rows = read_csv(out / "verify_growth.csv")
        return rows

    def test_off_center_linear_pair_verified_about_its_center(self, tmp_path):
        # f(z0 + w) = a conj(w) + b w + (a conj(z0) + b z0 + c): the pair moved
        # to z0 is the centered pair with that constant term
        a, b, c, z0 = 0.3 + 0.1j, 1.2 - 0.4j, 0.5 + 0j, 2.0 - 1.0j
        shifted = a * z0.conjugate() + b * z0 + c
        moved = self.linear_verify(tmp_path / "a", [z0.real, z0.imag], [c.real, c.imag])
        centered = self.linear_verify(tmp_path / "b", [0.0, 0.0], [shifted.real, shifted.imag])
        assert len(moved) == len(centered) == 5
        for x, y in zip(moved, centered):
            assert x[6] == y[6] == "true"
            np.testing.assert_allclose(
                [float(v) for v in x[:6]], [float(v) for v in y[:6]], rtol=1e-12, atol=0
            )

    def test_grid_defaults(self, tmp_path):
        # the power pair has no seam, so every point of the 32 x 64 grid is a row
        grid = {"r_inner": 1.0, "r_outer": 8.0}
        for cfg in (self.CFG, dict(self.CFG, grid=grid)):
            code, out = run(tmp_path, "verify", cfg, "--quiet")
            assert code == EXIT_OK
            _, rows = read_csv(out / "verify_residual.csv")
            assert len(rows) == 32 * 64

    def test_malformed_json_rejected(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_missing_config_rejected(self, tmp_path):
        code = main(
            ["verify", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_CONFIG

    def test_numeric_failure_exit_code(self, tmp_path):
        # orientation-reversing mapping: negative Jacobian is a numeric error
        cfg = {
            "pair": {
                "mapping": {"kind": "linear", "a": [2.0, 0.0], "b": [0.5, 0.0]},
                "coefficient": {"kind": "power", "alpha": 1.0},
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 2},
            "n": 64,
        }
        code, _ = run(tmp_path, "verify", cfg)
        assert code == EXIT_NUMERIC

    def test_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(self.CFG))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = main(
                ["verify", "--config", str(cfg_path), "--out", str(out), "--quiet"]
            )
            assert code == EXIT_OK
            outs.append(out)
        for name in ("verify_growth.csv", "verify_residual.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    EXTREMAL_CFG = {
        "pair": {
            "name": "extremal",
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 1.0,
            "R": 1024.0,
        },
        "r0": 1.0,
        "ladder": {"r0": 1.0, "factor": 2.0, "count": 8},
        "n": 64,
    }

    @pytest.mark.parametrize("cfg", [CFG, EXTREMAL_CFG], ids=["power", "extremal"])
    def test_one_area_sweep(self, tmp_path, monkeypatch, cfg):
        # the extremal table has a seam at r0, so r0 is not a check radius
        # there; its area still comes from the one sweep
        calls = []
        sweep = growth._disk_areas

        def counted(*args, **kwargs):
            calls.append(args[2])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(growth, "_disk_areas", counted)
        code, _ = run(tmp_path, "verify", cfg)
        assert code == EXIT_OK
        assert len(calls) == 1
        assert cfg["r0"] in np.asarray(calls[0]).tolist()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(tmp_path, buffered):
    # the reader of stdout goes away before the first line is written
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TestVerify.CFG))
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = ["verify", "--config", str(cfg_path), "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "beltrami_growth.cli", *command],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK, stderr
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert (out / "verify_residual.csv").exists()
    assert (out / "verify_growth.csv").exists()


class TestExtremal:
    def test_tables_written(self, tmp_path):
        cfg = {
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 1.0,
            "R": 16.0,
            "knots": 64,
        }
        code, out = run(tmp_path, "extremal", cfg)
        assert code == EXIT_OK
        _, rows = read_csv(out / "extremal_rho.csv")
        assert len(rows) == 64
        for r, rho in ((float(a), float(b)) for a, b in rows):
            assert rho == pytest.approx(math.sqrt(r), rel=1e-10)
        _, rows = read_csv(out / "extremal_coefficient.csv")
        assert float(rows[-1][1]) == pytest.approx(2.0)

    def test_rho_table_loadable_as_mapping(self, tmp_path):
        cfg = {
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 1.0,
            "R": 64.0,
            "knots": 96,
        }
        code, out = run(tmp_path, "extremal", cfg)
        assert code == EXIT_OK
        verify_cfg = {
            "pair": {
                "mapping": {
                    "kind": "radial_table",
                    "path": str(out / "extremal_rho.csv"),
                    "linear_inner": True,
                },
                "coefficient": {
                    "kind": "radial",
                    "profile": {
                        "kind": "piecewise",
                        "breakpoints": [1.0],
                        "pieces": [
                            {"kind": "constant", "alpha": 1.0},
                            {"kind": "constant", "alpha": 2.0},
                        ],
                    },
                },
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 5},
            "n": 128,
            "residual_tol": 1e-6,
        }
        code, _ = run(tmp_path, "verify", verify_cfg)
        assert code == EXIT_OK

    def test_overflowing_rho_is_numeric_failure(self, tmp_path, capsys):
        # rho = r^100 leaves the double range at the third knot
        cfg = {"profile": {"kind": "constant", "alpha": 0.01}, "r0": 1.0, "R": 1e300}
        code, out = run(tmp_path, "extremal", cfg)
        assert code == EXIT_NUMERIC
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: rho overflows double precision at r = 53016.30")


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("verify", TestVerify.CFG, "z0"),
        ("extremal", {"profile": {"kind": "constant", "alpha": 2.0}, "r0": 1.0, "R": 16.0},
         "center"),
    ],
)
def test_center_comes_from_the_inputs(tmp_path, capsys, command, cfg, key):
    # verify checks about the coefficient's center, and the extremal tables
    # do not depend on a center, so neither command takes one
    code, _ = run(tmp_path, command, dict(cfg, **{key: [5.0, 0.0]}))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: unknown keys in config: ['{key}']\n"


@pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
def test_unusable_out_is_config_error(tmp_path, capsys, under):
    # --out names a regular file, or a path below one
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"profile": {"kind": "constant", "alpha": 2.0},
                                    "r0": 1.0, "R": 16.0}))
    afile = tmp_path / "afile"
    afile.write_text("")
    code = main(["extremal", "--config", str(cfg_path), "--out", str(afile / under)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [Errno ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestRadialTableConfig:
    @pytest.mark.parametrize("flag", [True, False, "false", "true", 0, 1, None])
    def test_linear_inner_must_be_boolean(self, tmp_path, flag):
        path = tmp_path / "rho.csv"
        path.write_text("r,rho\n1,1\n2,3\n4,5\n")
        cfg = {"kind": "radial_table", "path": str(path), "linear_inner": flag}
        if isinstance(flag, bool):
            assert parse_mapping(cfg).linear_inner is flag
        else:
            with pytest.raises(ConfigError):
                parse_mapping(cfg)

    @staticmethod
    def sqrt_table(tmp_path, lo, hi):
        path = tmp_path / "rho.csv"
        knots = np.geomspace(lo, hi, 60)
        knots[0], knots[-1] = lo, hi
        write_csv(path, ["r", "rho"], zip(knots.tolist(), np.sqrt(knots).tolist()))
        return path

    def translated_config(self, tmp_path, center):
        tmp_path.mkdir()
        path = self.sqrt_table(tmp_path, 0.05, 3.0)
        return {
            "pair": {
                "mapping": {
                    "kind": "radial_table",
                    "path": str(path),
                    "center": center,
                    "linear_inner": True,
                },
                "coefficient": {"kind": "power", "alpha": 2.0, "center": center},
            },
            "r0": 0.1,
            "ladder": {"r0": 0.1, "factor": 2.0, "count": 4},
            "n": 256,
        }

    def translated_verify(self, tmp_path, center):
        code, out = run(tmp_path, "verify", self.translated_config(tmp_path, center), "--quiet")
        assert code == EXIT_OK
        _, rows = read_csv(out / "verify_growth.csv")
        return rows

    def test_library_matches_cli_off_center(self, tmp_path, capsys):
        # verify_pair takes the center from the coefficient, as verify does,
        # so the same call without z0 gives the CLI's reports
        cfg = self.translated_config(tmp_path / "a", [5.0, 0.0])
        code, out = run(tmp_path, "verify", cfg)
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        mapping, K = parse_pair(cfg["pair"])
        assert K.center == mapping.center == 5.0
        ladder = RadiusLadder(0.1, 2.0, 4)
        results = list(verify_pair(mapping, K, 0.1, ladder, CircleQuadrature(256)))
        residual, diff, iso, area, growth_report = (result.report for result in results)
        _, rows = read_csv(out / "verify_residual.csv")
        library = zip(residual.r.tolist(), residual.theta.tolist(), residual.abs_residual.tolist())
        assert [[fmt(x) for x in row] for row in library] == rows
        assert f"max={fmt(residual.max_abs)} rms={fmt(residual.rms)}" in stdout
        assert f"min_ratio={fmt(min(row.ratio for row in diff))}" in stdout
        assert all(rep.ok for rep in iso) and area.ok
        assert f"area_bound slack={fmt(area.slack)}" in stdout
        _, rows = read_csv(out / "verify_growth.csv")
        assert [
            [fmt(x) for x in (r.R, r.M, r.m, r.integral, r.envelope, r.v, r.bound_ok)]
            for r in growth_report.rows
        ] == rows

    def test_translated_table_matches_centered(self, tmp_path):
        # seams, the origin and the domain are measured about the table's center
        centered = self.translated_verify(tmp_path / "a", [0.0, 0.0])
        moved = self.translated_verify(tmp_path / "b", [5.0, 0.0])
        assert len(moved) == len(centered) == 5
        for a, b in zip(centered, moved):
            assert a[6] == b[6] == "true"
            np.testing.assert_allclose(
                [float(x) for x in b[:6]], [float(x) for x in a[:6]], rtol=1e-12, atol=0
            )

    def test_radius_below_table_named(self, tmp_path, capsys):
        # without linear_inner the table starts at 0.5, above the disk sweep's
        # first radius 1e-8 * r0
        path = self.sqrt_table(tmp_path, 0.5, 2000.0)
        cfg = {
            "pair": {
                "mapping": {"kind": "radial_table", "path": str(path)},
                "coefficient": {"kind": "power", "alpha": 2.0},
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 4},
            "n": 64,
        }
        code, _ = run(tmp_path, "verify", cfg, "--quiet")
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err.strip()
        assert len(err) < 200
        assert "[0.5, 2000" in err
        radius = float(re.search(r"radius (\S+)", err).group(1))
        assert 1e-8 <= radius < 1.1e-8


class TestTableFiles:
    """The radial_table mapping and the grid coefficient share one strict CSV
    reader; every bad table is a configuration error."""

    def kappa_grid(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        cfg = {"coefficient": {"kind": "grid", "path": str(path)}, "radii": [1.5], "n": 16}
        return run(tmp_path, "kappa", cfg)[0]

    def test_header_only_radial_table(self, tmp_path):
        path = tmp_path / "rho.csv"
        path.write_text("r,rho\n")
        cfg = {
            "mapping": {"kind": "radial_table", "path": str(path)},
            "ladder": {"r0": 2.0, "count": 2},
            "profile": {"kind": "constant", "alpha": 1.0},
            "r0": 1.0,
        }
        code, _ = run(tmp_path, "nonexist", cfg)
        assert code == EXIT_CONFIG

    def test_header_only_grid(self, tmp_path):
        assert self.kappa_grid(tmp_path, "r,theta,k2\n") == EXIT_CONFIG

    def test_nan_cell_rejected(self, tmp_path):
        text = "r,theta,k2\n1,0,1\n1,3,nan\n2,0,1\n2,3,1\n"
        assert self.kappa_grid(tmp_path, text) == EXIT_CONFIG

    def test_inf_cell_rejected(self, tmp_path):
        text = "r,theta,k2\n1,0,1\n1,3,inf\n2,0,1\n2,3,1\n"
        assert self.kappa_grid(tmp_path, text) == EXIT_CONFIG

    def test_valid_grid_runs(self, tmp_path):
        text = "r,theta,k2\n1,0,1\n1,3,1\n2,0,1\n2,3,1\n"
        assert self.kappa_grid(tmp_path, text) == EXIT_OK

    @pytest.mark.parametrize("path", [0, 1, None, ["grid.csv"]])
    def test_path_must_be_a_string(self, tmp_path, path):
        # an integer path is a file descriptor to open(): 0 would read stdin
        cfg = {"coefficient": {"kind": "grid", "path": path}, "radii": [1.5]}
        code, _ = run(tmp_path, "kappa", cfg)
        assert code == EXIT_CONFIG


class TestSharpness:
    def test_power_constant_ratio(self, tmp_path, capsys):
        cfg = {
            "example": {"kind": "power", "alpha": 2.0},
            "ladder": {"r0": 1.0, "factor": 4.0, "count": 10},
        }
        code, out = run(tmp_path, "sharpness", cfg)
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        _, rows = read_csv(out / "sharpness.csv")
        assert all(float(row[1]) == pytest.approx(1.0, abs=1e-9) for row in rows)

    def test_loglog_decaying_ratio(self, tmp_path, capsys):
        cfg = {
            "example": {"kind": "loglog", "alpha": 1.0},
            "ladder": {"r0": E_2, "factor": 2.0, "count": 28},
        }
        code, out = run(tmp_path, "sharpness", cfg)
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out


LINEAR_1E300 = {"kind": "linear", "a": [0.5, 0], "b": [1e300, 0]}


class TestBeyondDoubleRange:
    """A map, coefficient, circle or growth scale that leaves the double
    range is one numeric failure (exit 3), or one config error (exit 2) when
    the config alone shows it: one stderr line, no CSV, and no numpy warning
    on the way, which this suite's filterwarnings would turn into an error."""

    CASES = {
        # rho = r^1000 overflows on the outer rungs
        "verify-power-0.001": ("verify", {
            "pair": {"name": "power", "alpha": 0.001},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 40},
            "n": 256,
        }, "d_r = (inf+nanj) is beyond double precision (1344 of 2048 samples)"),
        # rho = r^2 overflows from the first rung on
        "verify-power-0.5-ladder-at-1e200": ("verify", {
            "pair": {"name": "power", "alpha": 0.5},
            "r0": 1.0,
            "ladder": {"r0": 1e200, "factor": 10.0, "count": 9},
            "n": 64,
        }, "quadrature sample = inf at r = 1e+200 is beyond double precision (10 of 11 samples)"),
        # rho = (ln r)^(1/alpha) is inf, so |f| is too
        "nonexist-loglog-subnormal-alpha": ("nonexist", {
            "mapping": {"kind": "loglog", "alpha": 5e-324},
            "profile": {"kind": "constant", "alpha": 1.0},
            "r0": 20.0,
            "ladder": {"r0": 20.0},
        }, "quadrature sample = inf at r = 20.0 is beyond double precision (41 of 41 samples)"),
        # R^2 overflows on every rung of a ladder whose top is 1e308
        "sharpness-power-0.5-top-1e308": ("sharpness", {
            "example": {"kind": "power", "alpha": 0.5},
            "ladder": {"r0": 1e299, "factor": 10.0, "count": 9},
        }, "growth scale R^(1/alpha) = inf at R = 1e+299 (rung 0) is beyond double precision "
           "(10 of 10 samples)"),
        # R^1000 underflows to 0 at R = 1e-12
        "sharpness-power-scale-0": ("sharpness", {
            "example": {"kind": "power", "alpha": 0.001},
            "ladder": {"r0": 1e-12, "factor": 1.5, "count": 8},
            "n": 16,
        }, "growth scale R^(1/alpha) = 0.0 at R = 1e-12 (rung 0) is beyond double precision"),
        # (ln 3.7)^(1e300) overflows
        "sharpness-loglog-scale-inf": ("sharpness", {
            "example": {"kind": "loglog", "alpha": 1e-300},
            "ladder": {"r0": 3.7, "factor": 1.0000001, "count": 1},
        }, "growth scale (ln R)^(1/alpha) = inf at R = 3.7 (rung 0) is beyond double precision"),
        # J = |B|^2 - |A|^2 overflows on the residual grid
        "verify-linear-map-b-1e300": ("verify", {
            "pair": {"mapping": LINEAR_1E300, "coefficient": {"kind": "power", "alpha": 2}},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
            "n": 64,
        }, "residual = inf at r = 1.0, theta = 0.0 (J_f = inf, K = (-1.4142135623730951+0j)) "
           "is beyond double precision"),
        # rho^2 J overflows in the disk areas' radial sweep
        "verify-spiral-r0-1e300": ("verify", {
            "pair": {"name": "spiral"},
            "r0": 1e300,
            "ladder": {"r0": 1e300, "count": 1},
            "n": 64,
        }, "area integrand 2 pi rho^2 mean(J_f) = inf at rho = 1.0076487688955337e+292 "
           "is beyond double precision"),
        # alpha ln r overflows in the profile
        "envelope-log-product-1e308": ("envelope", {
            "profile": {"kind": "log_product", "alpha": 1e308, "depth": 1},
            "r0": 3.0,
            "ladder": {"r0": 3.0, "count": 4},
        }, "kappa sample inf at r = 6.03846636375478"),
        # the stencil margin 2 h r overflows near r_outer
        "verify-grid-margin-overflow": ("verify", {
            "pair": {"name": "spiral"},
            "r0": 3.0,
            "ladder": {"r0": 3.0, "count": 1},
            "grid": {"r_inner": 0.5, "r_outer": 1e308, "n_r": 5, "n_theta": 8},
            "h": 3814279.104760214,
            "n": 8,
        }, "no grid points outside the mapping's excluded bands"),
        # A conj(w) - B w overflows at the grid's outer radius
        "verify-linear-coefficient-far-out": ("verify", {
            "pair": {"name": "linear", "a": [-1, 0], "b": [1.2, 0]},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 1},
            "grid": {"r_inner": 1.0, "r_outer": 1e308, "n_r": 2, "n_theta": 8},
            "n": 8,
        }, "residual = nan at r = 1e+308, theta = 0.0 (J_f = 0.43999999999999995, "
           "K = (-inf+nanj)) is beyond double precision"),
        # 2 w overflows in the conversion to Wirtinger derivatives
        "verify-loglog-at-1e308": ("verify", {
            "pair": {"name": "loglog", "alpha": 2},
            "r0": 1e308,
            "ladder": {"r0": 1e308, "factor": 1.5, "count": 1},
            "n": 8,
        }, "d_z = (nan+nanj) is beyond double precision (92 of 2048 samples)"),
        # center + r overflows at the circle's theta = 0 node
        "kappa-circle-beyond-range": ("kappa", {
            "coefficient": {"kind": "spiral", "center": [1e308, 1e308]},
            "radii": [1e308],
            "n": 8,
        }, "circle node = (inf+1e+308j) at r = 1e+308 about (1e+308+1e+308j) "
           "is beyond double precision (1 of 1 samples)"),
    }

    @pytest.mark.parametrize("command, cfg, message", CASES.values(), ids=CASES.keys())
    def test_one_numeric_failure(self, tmp_path, capsys, command, cfg, message):
        code, out = run(tmp_path, command, cfg, "--quiet")
        assert code == EXIT_NUMERIC
        assert list(out.glob("*.csv")) == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"numeric failure: {message}")

    CONFIG_ERRORS = {
        "verify-linear-pair-b-1e300": ("verify", {
            "pair": {"name": "linear", "a": [0.5, 0], "b": [1e300, 0]},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
        }, "|B|^2 - |A|^2 is beyond double precision: |A| = 0.5, |B| = 1e+300"),
        "verify-linear-coefficient-b-1e300": ("verify", {
            "pair": {"mapping": {"kind": "identity"}, "coefficient": LINEAR_1E300},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
        }, "|B|^2 - |A|^2 is beyond double precision: |A| = 0.5, |B| = 1e+300"),
        # both parts are finite, but the modulus |b| is not
        "verify-linear-pair-b-modulus": ("verify", {
            "pair": {"name": "linear", "a": [1e308, 1e308], "b": [1.5e308, 1.5e308]},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
        }, "|b| = inf is not finite: b = (1.5e+308+1.5e+308j)"),
        "verify-linear-pair-a-modulus": ("verify", {
            "pair": {"name": "linear", "a": [1.5e308, 1.5e308], "b": [1, 0]},
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
        }, "|a| = inf is not finite: a = (1.5e+308+1.5e+308j)"),
        "verify-linear-mapping-b-modulus": ("verify", {
            "pair": {
                "mapping": {"kind": "linear", "a": [1e308, 1e308], "b": [1.5e308, 1.5e308]},
                "coefficient": {"kind": "power", "alpha": 2.0},
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
        }, "|b| = inf is not finite: b = (1.5e+308+1.5e+308j)"),
        "verify-linear-coefficient-b-modulus": ("verify", {
            "pair": {
                "mapping": {"kind": "identity"},
                "coefficient": {"kind": "linear", "a": [1e308, 1e308], "b": [1.5e308, 1.5e308]},
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
        }, "|b| = inf is not finite: b = (1.5e+308+1.5e+308j)"),
        # the default grid would run from r0 down to the top rung
        "verify-ladder-below-r0": ("verify", {
            "pair": {"name": "spiral"},
            "r0": 1e300,
            "ladder": {"r0": 1.0, "count": 4},
        }, "the default grid needs a top rung above r0 = 1e+300, got 16.0"),
        # the top rung 5e-324 * 1e308^2 is finite, but 1e308^2 is not
        "sharpness-ladder-factor-power": ("sharpness", {
            "example": {"kind": "loglog", "alpha": 2},
            "ladder": {"r0": 5e-324, "factor": 1e308, "count": 2},
        }, "ladder factor^count = 1e+308^2 overflows double precision"),
    }

    @pytest.mark.parametrize(
        "command, cfg, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys()
    )
    def test_one_config_error(self, tmp_path, capsys, command, cfg, message):
        code, out = run(tmp_path, command, cfg, "--quiet")
        assert code == EXIT_CONFIG
        assert list(out.glob("*.csv")) == []
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_rms_finite_where_every_residual_is(self, tmp_path, capsys):
        # |K| = 1e154 on the identity: each residual is about 1e154, whose
        # square overflows, yet their root mean square is about 1e154 too
        cfg = {
            "pair": {
                "mapping": {"kind": "identity"},
                "coefficient": {"kind": "radial", "profile": {"kind": "constant", "alpha": 1e308}},
            },
            "r0": 1.0,
            "ladder": {"r0": 1.0, "count": 4},
            "n": 64,
        }
        code, _ = run(tmp_path, "verify", cfg)
        assert code == EXIT_CHECK_FAILED
        line = capsys.readouterr().out.splitlines()[0]
        biggest, rms = (float(x) for x in re.findall(r"(?:max|rms)=(\S+)", line))
        assert biggest == 1.0000000000000003e154
        assert rms == pytest.approx(biggest, rel=1e-15)


class TestNearTheEndsOfTheRange:
    """A config whose |f| stays within the double range runs to its verdict,
    however far out or far in its ladder lies: f = rho(r) (w / r) overflows
    only with rho, and w / r is exactly 1 on a ladder's theta = 0 nodes."""

    CASES = {
        # rho(R) * R passes 1.8e308 from R = 1e206 on, but |f| <= 1e104.5
        "sharpness-power-ladder-at-1e200": ("sharpness", {
            "example": {"kind": "power", "alpha": 2.0},
            "ladder": {"r0": 1e200, "factor": 10.0, "count": 9},
            "n": 64,
        }),
        # the top rung is 1e308
        "sharpness-power-top-1e308": ("sharpness", {
            "example": {"kind": "power", "alpha": 2.0},
            "ladder": {"r0": 1e299, "factor": 10.0, "count": 9},
        }),
        "sharpness-subnormal-r0": ("sharpness", {
            "example": {"kind": "power", "alpha": 1},
            "ladder": {"r0": 5e-324},
        }),
        "verify-ladder-at-1e300": ("verify", {
            "pair": {"name": "power", "alpha": 2},
            "r0": 1.0,
            "ladder": {"r0": 1e300, "factor": 1.0000001},
            "n": 64,
        }),
    }

    @pytest.mark.parametrize("command, cfg", CASES.values(), ids=CASES.keys())
    def test_modulus_is_rho(self, tmp_path, command, cfg):
        code, out = run(tmp_path, command, cfg, "--quiet")
        assert code == EXIT_OK
        if command == "sharpness":
            _, rows = read_csv(out / "sharpness.csv")
            assert [float(ratio) for _, ratio in rows] == [1.0] * len(rows)
        else:
            _, rows = read_csv(out / "verify_growth.csv")
            for R, M, m in (map(float, row[:3]) for row in rows):
                assert M == m == float(Power(2.0)._rho_of_r(np.array([R]))[0])

    def test_loglog_far_ladder_fails_to_halve(self, tmp_path):
        # from 1e299 to 1e308 (ln R)^(1/2) barely moves, so the ratio of
        # the doubly-log map does not halve: a FAIL, not a numeric failure
        cfg = {
            "example": {"kind": "loglog", "alpha": 2.0},
            "ladder": {"r0": 1e299, "factor": 10.0, "count": 9},
        }
        code, _ = run(tmp_path, "sharpness", cfg, "--quiet")
        assert code == EXIT_CHECK_FAILED


class TestNonexist:
    def test_bounded_observations_inconsistent(self, tmp_path, capsys):
        cfg = {
            "observed": [[2.0**k, 1.0] for k in range(1, 12)],
            "profile": {"kind": "constant", "alpha": 1.0},
            "r0": 1.0,
        }
        code, out = run(tmp_path, "nonexist", cfg)
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "verdict: inconsistent" in text
        assert "not a proof" in text
        _, rows = read_csv(out / "nonexist.csv")
        assert len(rows) == 11

    def test_mapping_based_consistent(self, tmp_path, capsys):
        cfg = {
            "mapping": {"kind": "power", "alpha": 2.0},
            "ladder": {"r0": 2.0, "factor": 2.0, "count": 8},
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 1.0,
            "n": 128,
        }
        code, _ = run(tmp_path, "nonexist", cfg)
        assert code == EXIT_OK
        assert "verdict: consistent" in capsys.readouterr().out

    def test_mapping_ladder_starting_at_r0(self, tmp_path, capsys):
        cfg = {
            "mapping": {"kind": "power", "alpha": 2.0},
            "ladder": {"r0": 1.0, "factor": 2.0, "count": 8},
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 1.0,
            "n": 128,
        }
        code, out = run(tmp_path, "nonexist", cfg)
        assert code == EXIT_OK
        assert "verdict: consistent" in capsys.readouterr().out
        _, rows = read_csv(out / "nonexist.csv")
        assert len(rows) == 9
        # the first gap [r0, r0] is empty, so v = M there
        assert rows[0][0] == "1" and rows[0][2] == rows[0][1]

    PROFILE = {"kind": "constant", "alpha": 1.0}

    def rejected(self, tmp_path, capsys, sources, message):
        cfg = {**sources, "profile": self.PROFILE, "r0": 1.0}
        code, _ = run(tmp_path, "nonexist", cfg)
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err

    def test_both_sources_rejected(self, tmp_path, capsys):
        sources = {"observed": [[2.0, 1.0], [4.0, 1.0]], "mapping": {"kind": "identity"}}
        self.rejected(
            tmp_path, capsys, sources, "give either observed data or a mapping, not both"
        )

    def test_neither_source_rejected(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, {}, "need observed data or a mapping plus ladder")

    def test_mapping_without_ladder_rejected(self, tmp_path, capsys):
        sources = {"mapping": {"kind": "identity"}}
        self.rejected(tmp_path, capsys, sources, "a mapping-based diagnostic needs a ladder")

    @pytest.mark.parametrize("r0", [1.0, 0.001])
    def test_ladder_beside_observed_rejected(self, tmp_path, capsys, r0):
        # observed data brings its own radii, so a ladder would be ignored
        sources = {"observed": [[2.0, 1.0], [4.0, 1.0]], "ladder": {"r0": r0}}
        self.rejected(
            tmp_path, capsys, sources, "a ladder goes with a mapping, not with observed data"
        )

    def test_single_observation_rejected(self, tmp_path, capsys):
        sources = {"observed": [[2.0, 1.0]]}
        self.rejected(
            tmp_path, capsys, sources, "number of observations must be at least 2, got 1"
        )

    def test_descending_observations_rejected(self, tmp_path, capsys):
        sources = {"observed": [[4.0, 1.0], [2.0, 1.0]]}
        self.rejected(
            tmp_path, capsys, sources, "observed radii must be positive and strictly ascending"
        )

    def test_malformed_ladder_beside_observed_rejected(self, tmp_path, capsys):
        # a ladder is read whenever it is given, even where observed data is used
        cfg = {
            "observed": [[2.0, 1.0], [4.0, 1.0]],
            "ladder": {"r0": 1.0, "factor": 0.5},
            "profile": self.PROFILE,
            "r0": 1.0,
        }
        code, _ = run(tmp_path, "nonexist", cfg)
        assert code == EXIT_CONFIG
        assert "ladder factor must exceed 1" in capsys.readouterr().err

    def translated_nonexist(self, tmp_path, center):
        tmp_path.mkdir()
        path = TestRadialTableConfig.sqrt_table(tmp_path, 0.05, 3.0)
        cfg = {
            "mapping": {
                "kind": "radial_table",
                "path": str(path),
                "center": center,
                "linear_inner": True,
            },
            "profile": {"kind": "constant", "alpha": 2.0},
            "r0": 0.1,
            "ladder": {"r0": 0.1, "factor": 2.0, "count": 4},
        }
        code, out = run(tmp_path, "nonexist", cfg, "--quiet")
        assert code == EXIT_OK
        _, rows = read_csv(out / "nonexist.csv")
        return np.array(rows, dtype=float)

    def test_translated_table_matches_centered(self, tmp_path):
        # M is measured about the mapping's center, not about the origin
        centered = self.translated_nonexist(tmp_path / "a", [0.0, 0.0])
        moved = self.translated_nonexist(tmp_path / "b", [5.0, 0.0])
        assert moved.shape == centered.shape == (5, 3)
        np.testing.assert_allclose(moved, centered, rtol=1e-13, atol=0)


def test_first_bad_value_in_document_order_named(tmp_path, capsys):
    cfg = {"radii": "1.0", "coefficient": {"kind": "bogus"}}
    code, _ = run(tmp_path, "kappa", cfg)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: radii must be a list\n"


def test_extremal_command_and_pair_take_the_same_keys():
    # both build the extremal solution from the same keys, so their defaults
    # may not drift apart
    command = list(inspect.signature(cli.cmd_extremal).parameters.values())[3:]
    assert command == list(inspect.signature(cli.PAIR_NAMES["extremal"]).parameters.values())


def test_verify_command_defaults_are_verify_pairs():
    # n, h, grid and residual_tol of the command are q, h, grid and
    # residual_tol of the library routine, so its defaults are stated once
    def defaults(build, skip):
        params = list(inspect.signature(build).parameters.values())[skip:]
        return [p.default for p in params if p.default is not p.empty]

    assert defaults(cli.cmd_verify, 3) == defaults(verify_pair, 0)


@pytest.mark.parametrize(
    "command, text", EXAMPLES, ids=[f"{c}-{i}" for i, (c, _) in enumerate(EXAMPLES)]
)
def test_plot_on_a_command_that_does_not_plot_is_noted(tmp_path, capsys, command, text):
    # --plot only adds the SVG of envelope and sharpness; every other command
    # says on stderr that it writes none, and its exit code and files stay
    runs = []
    for extra in ([], ["--plot"]):
        out = tmp_path / f"out{len(runs)}"
        (tmp_path / "config.json").write_text(text)
        code = main([command, "--config", str(tmp_path / "config.json"), "--out", str(out),
                     "--quiet", *extra])
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        runs.append((code, files, capsys.readouterr()))
    (code, files, plain), (plot_code, plot_files, plotted) = runs
    assert code == plot_code == EXIT_OK
    assert plain.out == plotted.out == "" and plain.err == ""
    svgs = {name for name in plot_files if name.endswith(".svg")}
    assert {name: plot_files[name] for name in plot_files if name not in svgs} == files
    if command in PLOTTED:
        assert svgs and plotted.err == ""
    else:
        assert not svgs and plotted.err == f"note: --plot writes no SVG for {command}\n"


class TestParserBuiltOnce:
    def test_same_parser_every_call(self):
        assert _parser() is _parser()

    def test_in_process_calls_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # main's parser outlives each call, so a call must leave nothing in it
        # that the next call sees: one interpreter runs a verify, an argv
        # without --config, a kappa with --plot and the same verify again, and
        # each call's exit code, output and files equal a fresh process's
        configs = dict(EXAMPLES)
        calls = [
            ["verify", "--config", "verify.json", "--out", "out0"],
            ["verify", "--out", "out1"],
            ["kappa", "--config", "kappa.json", "--out", "out2", "--plot"],
            ["verify", "--config", "verify.json", "--out", "out3"],
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def outputs(where, argv, code, out, err):
            written = where / argv[argv.index("--out") + 1]
            files = {p.name: p.read_bytes() for p in written.iterdir()} if written.exists() else {}
            return code, out, err, files

        results = {}
        for side in ("fresh", "in_process"):
            where = tmp_path / side
            where.mkdir()
            for command in ("verify", "kappa"):
                (where / f"{command}.json").write_text(configs[command])
            results[side] = []
            for argv in calls:
                if side == "fresh":
                    proc = subprocess.run(
                        [sys.executable, "-m", "beltrami_growth.cli", *argv],
                        cwd=where, env=env, capture_output=True, text=True, timeout=120,
                    )
                    results[side].append(
                        outputs(where, argv, proc.returncode, proc.stdout, proc.stderr)
                    )
                    continue
                monkeypatch.chdir(where)
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results[side].append(outputs(where, argv, code, captured.out, captured.err))
        fresh, in_process = results["fresh"], results["in_process"]
        # argparse exits 2 on a usage error
        assert [r[0] for r in fresh] == [EXIT_OK, 2, EXIT_OK, EXIT_OK]
        assert "the following arguments are required: --config" in fresh[1][2]
        assert fresh[2][2] == "note: --plot writes no SVG for kappa\n"
        assert fresh[0][3] and fresh[0][3] == fresh[3][3]
        assert in_process == fresh
