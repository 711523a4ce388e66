import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrep import (
    MOMENTUM,
    POSITION,
    SUITE_NAMES,
    Parity,
    Wavefunction,
    apply_s_theta,
    correlation_kernel,
    correlation_transform,
    dual_grid,
    grid,
    inner,
    interp_kernel,
    interp_transform,
    make_grid,
    plane_wave,
    rotation_kernel,
    run_all_suites,
    run_suite,
    to_momentum,
    verify,
)
from qrep.kernels import _interp_chirp, _rotation_chirp
from qrep.transforms import _FAMILIES, _default_u_window
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


def test_unbiasedness_keeps_one_record_per_family_and_claim(all_reports):
    # each at its family's hardest case; the sweeps over p, a, alpha, lambda
    # and theta are the constant-modulus tests of test_kernels.py
    chirp = {"alpha": 0.9, "lam": 1.0}
    assert [(r.name, r.parameters) for r in all_reports["unbiasedness"]] == [
        ("interp_modulus_value", chirp), ("interp_unbiased", chirp),
        ("plane_wave_unbiased", {"p": 72.382295}), ("position_kernel_unbiased", {"a": 2.0}),
        ("rotation_modulus_value", {"theta": 0.523598775598}),
        ("rotation_unbiased", {"theta": 0.523598775598}),
    ]


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
def test_correlation_conjugation_ignores_base_grid(all_reports, n):
    # the spectral conjugation rule runs on its own self-dual grid
    def conjugation(reports):
        return [(r.parameters, r.observed, r.tolerance) for r in reports
                if r.name == "correlation_conjugation"]

    reports = run_suite("oracle_agreement", make_grid(n, 40.0))
    assert len(conjugation(reports)) == 2
    assert conjugation(reports) == conjugation(all_reports["oracle_agreement"])


# the grid and window of the correlation_conjugation records
G_SELF_DUAL = make_grid(1024, float(np.sqrt(2.0 * np.pi * 1024)))
DEEP_WINDOW = (-30.0, float(np.log(0.45 * G_SELF_DUAL.length)))


def _identity_map(psi):
    # gamma is not reversed: the spectrum comes back as it went in
    return Wavefunction(psi.grid, psi.samples, MOMENTUM)


def _inverse_fourier_map(psi):
    # moduli reversed as the Fourier map's, but the odd phase at gamma = 0 is +i
    phi = to_momentum(Wavefunction(psi.grid, np.conj(psi.samples), POSITION))
    return Wavefunction(phi.grid, np.conj(phi.samples), MOMENTUM)


@pytest.mark.parametrize(
    "fault,state",
    [(_identity_map, "gaussian_chirped"), (_identity_map, "gaussian_moved"),
     (_inverse_fourier_map, "gaussian_moved")],
)
def test_correlation_conjugation_sees_a_wrong_rule(monkeypatch, fault, state):
    psi = verify._state(G_SELF_DUAL, state)
    assert verify._spectral_conjugation_defect(psi, DEEP_WINDOW) <= 2e-6
    monkeypatch.setattr(verify, "to_momentum", fault)
    assert verify._spectral_conjugation_defect(psi, DEEP_WINDOW) >= 0.1


def test_reversed_rotation_pairs_are_conjugate_bit_for_bit(g1024):
    # why rotation_commutator checks each pair once: (theta', theta) reads the
    # conjugate of (theta, theta'), and theta = theta' reads 0
    psi = verify._state(g1024, "gaussian")
    rotated = [apply_s_theta(psi, t) for t in verify._ANGLES]
    for i, a in enumerate(rotated):
        assert inner(a, a).imag == 0.0
        for b in rotated[i + 1:]:
            ab, ba = inner(a, b), inner(b, a)
            assert ab.real == ba.real and ab.imag == -ba.imag


def test_commutators_pass_at_2_18():
    # nested products applied P to P psi, whose momentum edge is p_max
    # times the FFT rounding: momentum_decay refused it at 1.0e-12
    reports = run_suite("commutators", make_grid(2**18, 40.0))
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_runs_on_smaller_grid():
    # every check passes from n = 512; correlation_mean_c is the closest,
    # at 9.95e-6 against its 1e-5 tolerance
    grouped = run_all_suites(make_grid(512, 40.0))
    assert set(grouped) == set(SUITE_NAMES)
    failed = [r for reports in grouped.values() for r in reports if not r.passed]
    assert not failed, failed


def test_two_known_records_fail_at_256():
    # the cubic spline of the log resampling is too coarse at dx = 0.156: these
    # two records fail, as the README states, and no third may join them
    grouped = run_all_suites(make_grid(256, 40.0))
    failed = [r.name for reports in grouped.values() for r in reports if not r.passed]
    assert sorted(failed) == ["correlation_mean_c", "correlation_parseval"], failed


def test_only_the_fresnel_ladder_moves_with_the_blas_thread_count():
    # grid.inner is a BLAS dot product that a second thread may split; every
    # other record must read the same bits on one thread or two
    root = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        r = subprocess.run([sys.executable, "-m", "qrep", "verify", "--suite", "all", "--n", "512",
                            "--length", "40"], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        runs.append(json.loads(r.stdout))
    fixed = [[{**rec, "observed": None, "passed": None} for rec in run] for run in runs]
    assert fixed[0] == fixed[1]
    moved = {a["name"] for a, b in zip(*runs) if a["observed"] != b["observed"]}
    assert moved <= {"fresnel_delta_pairing", "fresnel_delta_monotone"}, moved


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


@pytest.mark.parametrize("n", [256, 4096])
def test_gram_check_ignores_base_grid(all_reports, n):
    # the Gram check tests the kernel family on the grid its tolerance was set on
    def gram(reports):
        return [(r.parameters, r.observed) for r in reports if r.name == "delta_normalization_gram"]

    assert gram(run_suite("oracle_agreement", make_grid(n, 40.0))) == gram(
        all_reports["oracle_agreement"]
    )


def _checked_coefficients(g, psi, family, kwargs):
    """The lattice and coefficients a verify record holds against the oracle."""
    if family == "plane_wave":
        out = to_momentum(psi)
    elif _FAMILIES[family].chirp is not None:
        # the oracle sums on a refinement of g, whose every (n'/n)-th point is g's
        member = _FAMILIES[family]
        base = Wavefunction(g, psi.samples[:: psi.grid.n // g.n], POSITION)
        out = member.transform(base, kwargs[member.param])
    else:
        spec = correlation_transform(psi, u_window=_default_u_window(g))
        return spec.gamma_grid.points, spec.even if family == "correlation_even" else spec.odd
    return out.grid.points, out.samples


@pytest.mark.parametrize("n", [4096, 2**14])
def test_oracle_records_check_where_the_coefficient_carries_weight(n, monkeypatch):
    # a stride over the whole lattice read the empty tails at large n: from
    # n = 4096 the Hermite fourier_oracle records checked no eigenvalue where
    # the transform reaches 1e-3 of its peak
    g = make_grid(n, 40.0)
    real = verify.quadrature_oracle
    records = []

    def recording(psi, family, lams, **kwargs):
        points, values = _checked_coefficients(g, psi, family, kwargs)
        idx = np.searchsorted(points, lams)
        mod = np.abs(values)
        weighty = mod >= 1e-3 * mod.max()
        records.append((family, np.array_equal(points[idx], lams), len(lams),
                        int(weighty[idx].sum()), int(weighty.sum())))
        return real(psi, family, lams, **kwargs)

    monkeypatch.setattr(verify, "quadrature_oracle", recording)
    for suite in ("roundtrips", "oracle_agreement"):
        run_suite(suite, g)
    assert len(records) == 20
    for family, on_lattice, checked, in_support, support in records:
        assert on_lattice and in_support == checked == min(32, support), records


def test_support_of_an_all_zero_channel_spans_the_lattice():
    idx = verify._support(np.zeros(1024, dtype=complex))
    assert len(idx) == 32 and idx[0] == 0 and idx[-1] == 1023
    assert np.all(np.diff(idx) >= 32)


@pytest.mark.parametrize("width", [1, 20, 100])
def test_support_spreads_over_the_weighty_coefficients(width):
    values = np.zeros(1024, dtype=complex)
    values[500 : 500 + width] = 1.0
    values[[100, 900]] = 0.999e-3  # under the floor
    idx = verify._support(values)
    assert len(idx) == min(32, width)
    assert idx[0] == 500 and idx[-1] == 499 + width and np.all(np.diff(idx) > 0)


def test_limit_targets_are_the_old_exponentials(all_reports, g1024):
    # e^(-i lam^2/2) at lam = +0 had a -0 imaginary part; the target is that
    # phase times a real sample, whose imaginary part is +0 either way
    psi = verify._state(g1024, "gaussian")
    old_phases = {"interp_limit_fourier": lambda lam: np.exp(-1j * np.pi / 4.0),
                  "interp_limit_identity": lambda lam: np.exp(-0.5j * lam**2)}
    observed = {(r.name, r.parameters["alpha"]): r.observed
                for r in all_reports["limits"] if not r.name.endswith("_monotone")}
    assert len(observed) == 6
    for (name, alpha), value in observed.items():
        out = interp_transform(psi, alpha)
        lam = out.grid.points
        target = old_phases[name](lam) * (np.pi**-0.25 * np.exp(-(lam**2) / 2.0))
        old = float(np.abs(out.samples - target).max())
        assert np.float64(value).view(np.uint64) == np.float64(old).view(np.uint64), name


# --- every kernel record is the one the public samplers give ----------------


def _bits(value):
    return np.float64(value).view(np.uint64)


def _key(name, params):
    return name, repr(sorted(params.items(), key=str))


def _whole_grid_residual(kernel, eigenvalue, window, a, b, c):
    """The relative eigen-residual formed on every sample of the lattice, then masked."""
    x, f, dx = kernel.grid.points, kernel.samples, kernel.grid.dx
    deriv = np.full(len(f), np.nan, dtype=complex)
    deriv[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * dx)
    resid = (a * x - 0.5j * c) * f - 1j * ((b + c * x) * deriv) - eigenvalue * f
    mask = window & np.isfinite(resid.real)
    return float(np.sqrt(np.sum(np.abs(resid[mask]) ** 2)) / np.sqrt(np.sum(np.abs(f[mask]) ** 2)))


# Each eigen-residual's grid spans its window at the step it has always had.
_EIGEN_GRIDS = {"wave": make_grid(4096, 20.0), "chirp": make_grid(8192, 10.0),
                "corr": make_grid(2048, 10.0)}


@pytest.mark.parametrize("name,wide,lo,sampler", [
    ("wave", (8192, 40.0), 2048, lambda g: plane_wave(g, 3 * np.pi / 20.0)),
    ("chirp", (16384, 20.0), 4096, lambda g: interp_kernel(g, 0.75, 2.0)),
    ("corr", (8192, 40.0), 3072, lambda g: correlation_kernel(g, -2.0, Parity.ODD)),
])
def test_eigen_grids_are_windows_of_the_wide_grids_bit_for_bit(name, wide, lo, sampler):
    # each window-sized grid holds the wide grid's points on its window bit
    # for bit, so a kernel sampled on it is the wide grid's kernel there
    g, g_wide = _EIGEN_GRIDS[name], make_grid(*wide)
    assert g.dx == g_wide.dx
    window = slice(lo, lo + g.n)
    assert np.array_equal(g.points.view(np.uint64), g_wide.points[window].view(np.uint64))
    assert np.array_equal(sampler(g).samples.view(np.uint64),
                          sampler(g_wide).samples[window].view(np.uint64))


def test_eigen_records_are_the_public_samplers_whole_grid_residuals(all_reports):
    g_wave, g_chirp, g_corr = _EIGEN_GRIDS["wave"], _EIGEN_GRIDS["chirp"], _EIGEN_GRIDS["corr"]
    expected = {}
    dp = 2.0 * np.pi / 40.0
    every = np.ones(g_wave.n, dtype=bool)
    for p in (round(t / dp) * dp for t in (-2.0, 0.5, 1.0)):
        res = _whole_grid_residual(plane_wave(g_wave, p), p, every, 0.0, 1.0, 0.0)
        expected[_key("momentum_eigenfunction", {"p": round(p, 12)})] = res
    for family, param, sampler, chirp_of, values in (
        ("interp", "alpha", interp_kernel, _interp_chirp, (0.25, 0.5, 0.75)),
        ("rotation", "theta", rotation_kernel, _rotation_chirp, (np.pi / 6, np.pi / 4, np.pi / 3)),
    ):
        every = np.ones(g_chirp.n, dtype=bool)
        for value in values:
            a, b = chirp_of(value).a, chirp_of(value).b
            for lam in (-1.0, 0.0, 0.5, 2.0):
                k = sampler(g_chirp, value, lam)
                res = _whole_grid_residual(k, lam, every, a, b, 0.0)
                expected[_key(f"{family}_eigenfunction", {param: round(value, 12), "lam": lam})] = res
    outside_unit = np.abs(g_corr.points) >= 1.0
    for gamma in (-2.0, 0.0, 1.0):
        for par in (Parity.EVEN, Parity.ODD):
            k = correlation_kernel(g_corr, gamma, par)
            res = _whole_grid_residual(k, gamma, outside_unit, 0.0, 0.0, 1.0)
            expected[_key("correlation_eigenfunction", {"gamma": gamma, "parity": par.value})] = res
    got = {_key(r.name, r.parameters): r.observed for r in all_reports["eigen_residuals"]}
    assert len(expected) == 33 and set(got) == set(expected)
    for key, value in expected.items():
        assert _bits(got[key]) == _bits(value), key


def test_gram_record_is_the_public_samplers_gram(all_reports):
    gk = make_grid(1024, 40.0)
    lams = 0.5 * dual_grid(gk).points[::32]
    window = np.exp(-gk.points**2 / (2.0 * (gk.length / 8.0) ** 2))
    kernels = [interp_kernel(gk, 0.5, lam).samples for lam in lams]
    gram = np.abs([[np.vdot(ka, window * kb) * gk.dx for kb in kernels] for ka in kernels])
    diag = np.diag(gram)
    ratio = float(((gram.sum(axis=1) - diag) / diag).max())
    (record,) = [r for r in all_reports["oracle_agreement"] if r.name == "delta_normalization_gram"]
    assert _bits(record.observed) == _bits(ratio)


def _span_size(window):
    """The samples an eigen-residual on ``window`` reads: its extent and 2 more each side."""
    idx = np.flatnonzero(window)
    return min(int(idx[-1]) + 3, len(window)) - max(int(idx[0]) - 2, 0)


def test_eigen_residuals_form_no_more_phasors_than_their_spans_hold(monkeypatch):
    # each kernel is sampled on its window's own grid: no more phasors than
    # the samples a residual on the wide grids reads, and exactly one per sample
    real = grid._cis
    formed = []

    def counting(phase):
        out = real(phase)
        formed.append(out.size)
        return out

    patched = [name for name, mod in sorted(sys.modules.items())
               if name.startswith("qrep") and getattr(mod, "_cis", None) is real]
    assert {"qrep.grid", "qrep.kernels", "qrep.verify"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "_cis", counting)
    verify._suite_eigen_residuals(make_grid(1024, 40.0))
    g_wide, g_fine = make_grid(8192, 40.0), make_grid(16384, 20.0)
    ax = np.abs(g_wide.points)
    spans = (3 * _span_size(ax <= 10.0) + 24 * _span_size(np.abs(g_fine.points) <= 5.0)
             + 6 * _span_size((ax >= 1.0) & (ax <= 8.0)))
    assert spans == 228_717
    assert len(formed) == 33 and sum(formed) <= spans
    assert sum(formed) == 3 * 4096 + 24 * 8192 + 6 * 2048 == 221_184
