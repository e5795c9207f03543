"""One radial-domain rule: every radius-in-domain check goes through
require_radii_within, which takes a radius within DOMAIN_SLOP (relative) of
an edge as the edge and refuses anything farther out with OutOfDomain."""

import json
import math
import re

import numpy as np
import pytest

from beltrami_growth import (
    DomainError,
    GridCoefficient,
    LogProductProfile,
    OutOfDomain,
    RadialCoefficient,
    RadialTable,
    TableProfile,
    build_extremal,
    circle_length,
    envelope_integral,
    kappa,
)
from beltrami_growth.cli import EXIT_OK, main
from beltrami_growth.mappings import DOMAIN_SLOP, require_radii_within


def _table_profile():
    return TableProfile([1.0, 2.0], [1.0, 3.0])


def _grid():
    return GridCoefficient([1.0, 2.0], [0.0, math.pi], [[1.0, 1.0], [3.0, 3.0]])


def _radial_table():
    knots = np.geomspace(0.5, 4.0, 16)
    return RadialTable(knots, knots**1.5)


def _extremal_rho(lo, hi):
    sol = build_extremal(_table_profile(), lo, 1.0, hi)
    return np.concatenate([sol.knots, sol.rho])


# (site, domain, probe): probe(r) evaluates the site at one radius r, and
# every edge of the domain is probed
SITES = [
    ("log_product_profile", (math.exp(math.e), math.inf), LogProductProfile(2.0, 2)),
    ("table_profile", (1.0, 2.0), _table_profile()),
    (
        "radial_coefficient",
        (1.0, 2.0),
        lambda r: RadialCoefficient(_table_profile()).abs2(complex(r)),
    ),
    ("grid_coefficient", (1.0, 2.0), lambda r: _grid().abs2(complex(r))),
    ("radial_table", (0.5, 4.0), lambda r: _radial_table().evaluate(complex(r))),
    ("envelope_integral_r0", (1.0, 2.0), lambda r: envelope_integral(_table_profile(), r, 2.0)),
    ("envelope_integral_R", (1.0, 2.0), lambda r: envelope_integral(_table_profile(), 1.0, r)),
    ("build_extremal_r0", (1.0, 2.0), lambda r: _extremal_rho(r, 2.0)),
    ("build_extremal_R", (1.0, 2.0), lambda r: _extremal_rho(1.0, r)),
]

# one case per probed edge: the lower edge, then the upper one where finite;
# a probe that fixes one end of an interval is probed only at the other
EDGE_CASES = [
    pytest.param(probe, domain, edge, side, id=f"{site}-{name}")
    for site, domain, probe in SITES
    for edge, side, name in ((domain[0], -1.0, "below"), (domain[1], 1.0, "above"))
    if math.isfinite(edge)
    and not (site.endswith("_r0") and side > 0 or site.endswith("_R") and side < 0)
]


@pytest.mark.parametrize("probe, domain, edge, side", EDGE_CASES)
def test_beyond_the_slop_is_refused_with_radius_and_domain(probe, domain, edge, side):
    r = edge * (1.0 + side * 1e-9)
    lo, hi = domain
    named = rf"radius {re.escape(str(r))} outside .*\[{re.escape(str(lo))}, {re.escape(str(hi))}\]"
    with pytest.raises(OutOfDomain, match=named) as excinfo:
        probe(r)
    assert isinstance(excinfo.value, DomainError)


@pytest.mark.parametrize("probe, domain, edge, side", EDGE_CASES)
def test_within_the_slop_is_taken_at_the_edge(probe, domain, edge, side):
    r = edge * (1.0 + side * 1e-13)
    assert r != edge
    # extrapolating past the edge instead would move the value by ~1e-13
    np.testing.assert_allclose(probe(r), probe(edge), rtol=1e-15, atol=0.0)


class TestGuard:
    def test_inside_returns_the_input_itself(self):
        r = np.array([1.0, 1.5, 2.0])
        assert require_radii_within(r, (1.0, 2.0), "the test's") is r

    def test_clips_rounding_and_leaves_the_input(self):
        r = np.array([1.0 - 1e-16, 1.5, 2.0 * (1.0 + 0.5 * DOMAIN_SLOP)])
        out = require_radii_within(r, (1.0, 2.0), "the test's")
        assert out.tolist() == [1.0, 1.5, 2.0]
        assert r[0] < 1.0

    def test_names_the_radius_farthest_out(self):
        r = np.array([0.5, 0.25, 3.0])
        named = r"radius 0\.25 outside the test's radial domain \[1\.0, 2\.0\]"
        with pytest.raises(OutOfDomain, match=named):
            require_radii_within(r, (1.0, 2.0), "the test's")

    def test_nan_is_refused(self):
        r = np.array([1.5, math.nan])
        named = r"radius nan outside the test's radial domain \[1\.0, inf\]"
        with pytest.raises(OutOfDomain, match=named):
            require_radii_within(r, (1.0, math.inf), "the test's")
        with pytest.raises(DomainError):
            envelope_integral(_table_profile(), math.nan, 2.0)

    def test_out_of_domain_is_a_domain_error(self):
        assert issubclass(OutOfDomain, DomainError)


class TestRoundingAtTheEdges:
    """|z - center| on a circle rounds a little to either side of r."""

    def _kappa_csv(self, workdir, coefficient):
        workdir.mkdir()
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps({"coefficient": coefficient, "radii": [1.0, 1.5, 2.0]}))
        out = workdir / "out"
        assert main(["kappa", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = (out / "kappa.csv").read_text().splitlines()[1:]
        return {float(r): float(k) for r, k, _ in (row.split(",") for row in rows)}

    def test_radial_table_kappa_at_its_knots_matches_the_grid(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("r,theta,k2\n1,0,1\n1,3,1\n2,0,3\n2,3,3\n")
        radial = {"kind": "radial", "profile": {"kind": "table", "radii": [1, 2], "values": [1, 3]}}
        got = self._kappa_csv(tmp_path / "radial", radial)
        want = self._kappa_csv(tmp_path / "grid", {"kind": "grid", "path": str(grid)})
        for r, k in ((1.0, 1.0), (2.0, 3.0)):
            assert got[r] == pytest.approx(want[r], rel=1e-14)
            assert got[r] == pytest.approx(k, rel=1e-14)

    def test_log_product_kappa_at_its_domain_start(self):
        K = RadialCoefficient(LogProductProfile(1.0, 2))
        assert kappa(K, math.exp(math.e)) == pytest.approx(math.e, rel=1e-14)

    def test_circle_length_at_the_top_knot(self):
        knots = np.geomspace(0.05, 3.0, 60)
        c = 5.0 - 2.0j
        table = RadialTable(knots, np.sqrt(knots), c, linear_inner=True)
        expected = 2.0 * math.pi * math.sqrt(3.0)
        assert circle_length(table, c, 3.0) == pytest.approx(expected, rel=1e-13)
