"""Negative controls: each of verify's five verdicts is shown to fail.

A check that cannot fail passes vacuously.  Two mutant pairs between them
fail every verdict, and each mutant's whole verdict vector (which checks
fail and which pass) is pinned through the library and through the CLI:

- kappa too small: the power map of alpha = 2 with the power coefficient of
  alpha = 1.  The map does not solve the equation and grows more slowly than
  the coefficient demands, so the residual, the area bound and the growth
  ladder fail; the differential and isoperimetric checks read the map alone
  and pass.
- derivatives that disagree with the map: the power map of alpha = 2 whose
  analytic f_z is doubled.  The residual and the two checks that read the
  derivatives fail; the area bound and the ladder read only ``evaluate`` and
  K, and pass.

The sharp-constant property ties the ladder and the area-bound verdicts to
the theorem's constant: for Power(alpha) against PowerCoefficient(beta),
M(R) e^{-I} = R^{1/alpha - 1/beta} r0^{1/beta}, so both flip at beta = alpha.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_growth import (
    CircleQuadrature,
    Power,
    PowerCoefficient,
    RadiusLadder,
    area_bound_check,
    cli,
    theorem1_check,
    verify_pair,
)
from beltrami_growth.cli import EXIT_CHECK_FAILED, main
from beltrami_growth.complex_polar import WirtingerPair, jacobian_wirtinger

Q = CircleQuadrature(256)
R0 = 1.0
LADDER = RadiusLadder(R0, 2.0, 10)
CHECKS = ("pde_residual", "differential_inequality", "isoperimetric", "area_bound", "growth_ladder")


class DoubledFz(Power):
    """Power(alpha) whose analytic f_z is twice the true one.  Its J =
    4|f_z|^2 - |f_zbar|^2 still depends on r alone, so it keeps the radial
    Jacobian that Power's symmetry claims and the disk sweep's one node per
    circle."""

    def _wirtinger_array(self, z):
        wp = super()._wirtinger_array(z)
        return WirtingerPair(2.0 * wp.d_z, wp.d_zbar)


def test_doubled_f_z_keeps_a_radial_jacobian():
    mapping = DoubledFz(2.0)
    assert mapping.symmetry_about(0j)
    for r in (0.5, 3.0, 40.0):
        jac = jacobian_wirtinger(mapping.wirtinger_analytic(Q.points(0j, r)))
        assert np.ptp(jac) <= 1e-14 * np.max(jac)


#: mutant -> (mapping, coefficient, mapping config, verdict of each check)
MUTANTS = {
    "kappa_too_small": (
        Power(2.0),
        PowerCoefficient(1.0),
        {"kind": "power", "alpha": 2.0},
        {"coefficient": {"kind": "power", "alpha": 1.0}},
        (False, True, True, False, False),
    ),
    "doubled_f_z": (
        DoubledFz(2.0),
        PowerCoefficient(2.0),
        {"kind": "doubled_f_z", "alpha": 2.0},
        {"coefficient": {"kind": "power", "alpha": 2.0}},
        (False, False, False, True, True),
    ),
}


def library_verdicts(mapping, K):
    """The five verdicts of verify_pair, with the residual, differential,
    area-bound and growth reports they were judged from."""
    results = list(verify_pair(mapping, K, R0, LADDER, Q))
    assert tuple(result.name for result in results) == CHECKS
    residual, rows, _, area, growth = (result.report for result in results)
    return tuple(result.ok for result in results), residual, rows, area, growth


@pytest.mark.parametrize("name", MUTANTS)
def test_library_verdicts(name):
    mapping, K, _, _, expected = MUTANTS[name]
    verdicts, *_ = library_verdicts(mapping, K)
    assert verdicts == expected


def test_kappa_too_small_margins():
    _, residual, rows, area, growth = library_verdicts(*MUTANTS["kappa_too_small"][:2])
    # S(1) = pi against S(100) e^{-2I} = pi * 100 * 100^{-2}
    assert area.slack == pytest.approx(np.pi / 100.0 - np.pi, rel=1e-12)
    # v(R) = R^{1/2} / R = R^{-1/2} falls below m(1) = 1 from the second rung on
    assert growth.liminf_proxy == pytest.approx(2.0**-5, rel=1e-12)
    assert [row.bound_ok for row in growth.rows] == [True] + [False] * 10
    assert residual.max_abs == pytest.approx(1.0 - np.sqrt(0.5), rel=1e-12)
    assert min(row.ratio for row in rows) == pytest.approx(1.0, rel=1e-12)


def test_doubled_f_z_margins():
    _, residual, rows, area, growth = library_verdicts(*MUTANTS["doubled_f_z"][:2])
    # with |f_z| = 3/2 r^{-1/2} in place of 3/4 r^{-1/2}, J scales S and S'
    # alike, while D falls from 2 to 49/35, so S' r D / (2 S) = 0.7
    assert min(row.ratio for row in rows) == pytest.approx(0.7, rel=1e-12)
    # the residual is (sqrt(70) - 7)/4 r^{-1/2}, largest at r0 = 1
    assert residual.max_abs == pytest.approx((np.sqrt(70.0) - 7.0) / 4.0, rel=1e-12)
    assert area.equality and growth.all_ok


@pytest.mark.parametrize("name", MUTANTS)
def test_cli_verdicts(tmp_path, capsys, monkeypatch, name):
    _, _, mapping_cfg, coefficient_cfg, expected = MUTANTS[name]
    monkeypatch.setitem(cli.MAPPING_KINDS, "doubled_f_z", DoubledFz)
    cfg = {
        "pair": {"mapping": mapping_cfg, **coefficient_cfg},
        "r0": R0,
        "ladder": {"r0": R0, "factor": 2.0, "count": 10},
        "n": Q.n,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    verdicts = {check: word for word, check in re.findall(r"^(PASS|FAIL) (\w+)", out, flags=re.M)}
    assert code == EXIT_CHECK_FAILED
    assert list(verdicts) == list(CHECKS)
    assert tuple(verdicts[check] == "PASS" for check in CHECKS) == expected
    failed = [check for check, ok in zip(CHECKS, expected) if not ok]
    assert f"FAILED checks: {', '.join(failed)}" in out
    if name == "kappa_too_small":
        assert "FAIL area_bound slack=-3.11" in out


LADDER_Q = CircleQuadrature(64)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.5, 4.0),
    r0=st.floats(0.1, 10.0),
    count=st.integers(1, 12),
    delta=st.floats(0.02, 0.5),
)
def test_sharp_constant(alpha, r0, count, delta):
    # the ladder and the area bound hold when kappa = beta exceeds the map's
    # alpha, and fail when it falls short, by a margin of delta
    mapping, ladder = Power(alpha), RadiusLadder(r0, 2.0, count)
    top = float(ladder.radii()[-1])
    for beta, holds in ((alpha * (1.0 + delta), True), (alpha * (1.0 - delta), False)):
        K = PowerCoefficient(beta)
        assert theorem1_check(mapping, K, 0j, r0, ladder, LADDER_Q).all_ok is holds
        assert area_bound_check(mapping, K, r0, top, LADDER_Q).ok is holds
