"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Criteria
run at desk scale (n = 1024, length = 40) except where a check needs a finer
lattice to resolve a chirp or a point-mass approximant, in which case the
derived grid is part of the criterion's fixed parameters.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrep import make_grid, run_suite
from qrep.operators import moments
from qrep.states import GaussianSpec, gaussian, hermite

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def g():
    return make_grid(1024, 40.0)


def _report(num, title, reports):
    failing = [r for r in reports if not r.passed]
    status = "FAIL" if failing else "PASS"
    print(f"{status} criterion {num}: {title} ({len(reports)} checks)")
    assert not failing, [(r.name, r.parameters, r.observed, r.tolerance) for r in failing]


def test_criterion_1_commutators(g):
    reports = run_suite("commutators", g)
    xp = [r for r in reports if r.name == "xp_commutator"]
    rot = [r for r in reports if r.name == "rotation_commutator"]
    assert len(xp) == 6 and all(r.tolerance == 1e-8 for r in xp)
    assert len(rot) == 10 and all(r.tolerance == 1e-7 for r in rot)
    _report(1, "canonical and rotated-pair commutators", reports)


def test_criterion_2_eigen_residuals(g):
    reports = run_suite("eigen_residuals", g)
    assert all(r.tolerance == 1e-6 for r in reports)
    by_name = {}
    for r in reports:
        by_name.setdefault(r.name, []).append(r)
    assert len(by_name["momentum_eigenfunction"]) == 3
    assert len(by_name["interp_eigenfunction"]) == 12
    assert len(by_name["rotation_eigenfunction"]) == 12
    assert len(by_name["correlation_eigenfunction"]) == 6
    _report(2, "windowed eigenfunction residuals <= 1e-6", reports)


def test_criterion_3_roundtrips(g):
    reports = run_suite("roundtrips", g)
    tol = {r.name: r.tolerance for r in reports}
    assert tol["fourier_roundtrip"] == 1e-12
    assert tol["interp_unitarity"] == 1e-8 and tol["interp_oracle"] == 1e-8
    assert tol["rotation_unitarity"] == 1e-8 and tol["rotation_oracle"] == 1e-8
    assert tol["correlation_roundtrip"] == 1e-5
    assert tol["correlation_parseval"] == 1e-6
    _report(3, "round trips, unitarity, oracle agreement", reports)


def test_criterion_4_limits(g):
    reports = run_suite("limits", g)
    finest = [
        r
        for r in reports
        if r.name in ("interp_limit_fourier", "interp_limit_identity")
        and r.parameters.get("alpha") in (1e-3, 1.0 - 1e-3)
    ]
    assert len(finest) == 2 and all(r.tolerance == 1e-2 for r in finest)
    _report(4, "endpoint limits with monotone improvement", reports)


def test_criterion_5_fresnel_delta(g):
    reports = run_suite("delta_limit", g)
    pairing = [r for r in reports if r.name == "fresnel_delta_pairing"]
    assert {r.parameters["eps"] for r in pairing} == {1e-1, 1e-2, 1e-3}
    assert all(r.tolerance == 0.5 for r in pairing)  # within a factor 1.5
    _report(5, "point-mass pairing tracks the closed-form deviation", reports)


def test_criterion_6_uncertainty(g):
    reports = run_suite("uncertainty", g)
    _report(6, "strengthened uncertainty bound", reports)
    m = moments(gaussian(g, GaussianSpec(s=1.0, c=2.0)))
    assert m.lhs == pytest.approx(1.25, abs=1e-8)
    assert m.rhs == pytest.approx(1.25, abs=1e-8)
    m1 = moments(hermite(g, 1))
    assert m1.lhs - 0.25 >= 1.0
    assert m1.lhs - 0.25 == pytest.approx(2.0, abs=1e-8)


def test_criterion_7_correlation_cross_checks(g):
    reports = run_suite("oracle_agreement", g)
    wanted = [
        r for r in reports if r.name in ("correlation_mean_c", "conjugation_rule")
    ]
    assert len([r for r in wanted if r.name == "conjugation_rule"]) == 6
    assert any(r.name == "correlation_mean_c" for r in wanted)
    _report(7, "spectral mean and conjugation-rule agreement", wanted)


def test_criterion_8_unbiasedness(g):
    reports = run_suite("unbiasedness", g)
    spreads = [
        r
        for r in reports
        if r.name in ("plane_wave_unbiased", "interp_unbiased")
    ]
    assert spreads and all(r.tolerance == 1e-15 for r in spreads)
    _report(8, "constant kernel moduli", reports)


def test_criterion_9_cli_contract(tmp_path):
    r = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qrep", "verify", "--suite", "all",
         "--out", str(tmp_path / "all.json")],
        capture_output=True,
        text=True,
    )
    golden_ok = True
    probe = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qrep", "moments", "--state", "gaussian:s=1,c=2"],
        capture_output=True,
        text=True,
    )
    golden_ok = probe.stdout == (GOLDEN / "moments_gaussian_c2.json").read_text()
    status = "PASS" if (r.returncode == 0 and golden_ok) else "FAIL"
    print(f"{status} criterion 9: CLI verify exits 0 and output schemas are pinned")
    assert r.returncode == 0, r.stderr
    assert golden_ok
    records = json.loads((tmp_path / "all.json").read_text())
    assert all(rec["passed"] for rec in records)
