import numpy as np
import pytest

from qrep import SUITE_NAMES, make_grid, run_all_suites, run_suite, verify
from qrep.verify import REQUIRED_COVERAGE


@pytest.fixture(scope="module")
def all_reports(g1024):
    return run_all_suites(g1024)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes(all_reports, suite):
    reports = all_reports[suite]
    assert reports, suite
    failing = [r for r in reports if not r.passed]
    assert not failing, [(r.name, r.parameters, r.observed, r.tolerance) for r in failing]


def test_unknown_suite(g1024):
    with pytest.raises(ValueError, match="unknown_suite"):
        run_suite("nosuch", g1024)


def test_uncertainty_suite_report_count(g1024):
    # five saturating packets plus four strict oscillator states
    reports = run_suite("uncertainty", g1024)
    assert len(reports) == 9
    sat = [r for r in reports if r.name == "uncertainty_saturation"]
    strict = [r for r in reports if r.name == "uncertainty_strict"]
    assert len(sat) == 5 and len(strict) == 4


def test_suites_deterministic(g1024):
    a = run_suite("roundtrips", g1024)
    b = run_suite("roundtrips", g1024)
    assert [(r.name, r.parameters) for r in a] == [(r.name, r.parameters) for r in b]
    assert [r.observed for r in a] == [r.observed for r in b]


def test_reports_sorted_by_name(all_reports):
    for suite, reports in all_reports.items():
        names = [r.name for r in reports]
        assert names == sorted(names), suite


def test_passed_definition(all_reports):
    for reports in all_reports.values():
        for r in reports:
            assert r.passed == (r.observed <= r.tolerance)


def test_claim_coverage_manifest(all_reports):
    # the union of suites must exercise every claim family the library is
    # built around
    seen = {r.name for reports in all_reports.values() for r in reports}
    missing = REQUIRED_COVERAGE - seen
    assert not missing, sorted(missing)


def test_each_check_runs_in_one_suite(all_reports):
    seen = {}
    for suite, reports in all_reports.items():
        for r in reports:
            key = (r.name, repr(sorted(r.parameters.items(), key=str)))
            assert key not in seen, (key, seen.get(key), suite)
            seen[key] = suite


@pytest.mark.parametrize("n", [256, 4096])
def test_eigen_residuals_ignore_base_grid(all_reports, n):
    # the residuals test the kernel formulas on fixed grids
    reports = run_suite("eigen_residuals", make_grid(n, 40.0))
    assert [(r.name, r.parameters, r.observed, r.tolerance) for r in reports] == [
        (r.name, r.parameters, r.observed, r.tolerance) for r in all_reports["eigen_residuals"]
    ]


@pytest.mark.parametrize("n", [256, 4096])
def test_windowed_conjugation_diagnostic_ignores_base_grid(all_reports, n):
    # the diagnostic tests the C kernel formula on the grid its tolerances were set on
    def diagnostic(reports):
        return [(r.parameters, r.observed, r.tolerance) for r in reports
                if r.name == "conjugation_windowed_diagnostic"]

    reports = run_suite("oracle_agreement", make_grid(n, 40.0))
    assert len(diagnostic(reports)) == 4
    assert diagnostic(reports) == diagnostic(all_reports["oracle_agreement"])


def test_commutators_pass_at_2_18():
    # nested products applied P to P psi, whose momentum edge is p_max
    # times the FFT rounding: momentum_decay refused it at 1.0e-12
    reports = run_suite("commutators", make_grid(2**18, 40.0))
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_runs_on_smaller_grid():
    g = make_grid(512, 40.0)
    reports = run_suite("commutators", g)
    assert all(r.passed for r in reports)


def test_limits_run_on_the_base_grid(g1024, monkeypatch):
    # both endpoint ladders resolve on the base grid, so limits builds none
    def refuse(*args, **kwargs):
        raise AssertionError("limits built a grid of its own")

    monkeypatch.setattr(verify, "make_grid", refuse)
    reports = run_suite("limits", g1024)
    assert len(reports) == 8 and all(r.passed for r in reports)


def test_oracle_records_check_no_more_eigenvalues_above_1024(g1024, monkeypatch):
    # each oracle sum is O(n), so subsets that grew with n would make the
    # oracle work O(n^2)
    real = verify.quadrature_oracle
    counts = []

    def counting(psi, family, lams, **kwargs):
        counts[-1] += len(lams)
        return real(psi, family, lams, **kwargs)

    monkeypatch.setattr(verify, "quadrature_oracle", counting)
    for g in (g1024, make_grid(2048, 40.0)):
        counts.append(0)
        for suite in ("roundtrips", "oracle_agreement"):
            run_suite(suite, g)
    assert counts[0] == counts[1] > 0
