import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qrep
from qrep import (
    POSITION,
    GaussianSpec,
    Wavefunction,
    apply_p,
    conjugation_defect,
    correlation_inverse,
    correlation_transform,
    dual_grid,
    from_momentum,
    gaussian,
    hermite,
    inner,
    interp_kernel,
    interp_transform,
    log_grid,
    log_resample,
    make_grid,
    moments,
    norm,
    plane_wave,
    quadrature_oracle,
    rotation_kernel,
    rotation_transform,
    to_momentum,
)
from qrep.grid import Grid, _spline_window, cubic_interpolate, fourier_sum, inverse_fourier_sum
from qrep.kernels import _chirp_resolved, _interp_chirp, _rotation_chirp
from qrep.transforms import (_DU_REFINE, _FAMILIES, _default_n_gamma, _default_u_window,
                             _exp_minus_i, _plane_wave_sums, _state_n_gamma, _tail_mass,
                             _tail_radius)
from qrep.verify import _factory_states, _oracle_grid, _readback_checks

# the default correlation window at length 40
CORR_WINDOW = (-14.0, float(np.log(18.0)))


def hermite_closed(t, k):
    h = np.pi**-0.25 * np.exp(-(t**2) / 2.0)
    if k == 0:
        return h
    prev, h = h, np.sqrt(2.0) * t * h
    for j in range(2, k + 1):
        h, prev = np.sqrt(2.0 / j) * t * h - np.sqrt((j - 1) / j) * prev, h
    return h


# --- Fourier -----------------------------------------------------------------


def test_gaussian_self_dual(g1024, unit_gaussian):
    ft = to_momentum(unit_gaussian)
    p = ft.grid.points
    expected = np.pi**-0.25 * np.exp(-(p**2) / 2.0)
    assert np.abs(ft.samples - expected).max() < 1e-10


@pytest.mark.parametrize("k", range(7))
def test_hermite_fourier_eigenrelation(g1024, k):
    ft = to_momentum(hermite(g1024, k))
    expected = (-1j) ** k * hermite_closed(ft.grid.points, k)
    assert np.abs(ft.samples - expected).max() < 1e-9


def test_shift_theorem(g1024):
    # momentum boost moves the momentum density without reshaping it
    ft = to_momentum(gaussian(g1024, GaussianSpec(p0=2.0)))
    p = ft.grid.points
    expected_mod = np.pi**-0.25 * np.exp(-((p - 2.0) ** 2) / 2.0)
    assert np.abs(np.abs(ft.samples) - expected_mod).max() < 1e-10
    assert p[np.argmax(np.abs(ft.samples))] == pytest.approx(2.0, abs=ft.grid.dx)


def test_fourier_roundtrips(factory_states):
    for name, psi in factory_states:
        ft = to_momentum(psi)
        assert np.abs(from_momentum(ft).samples - psi.samples).max() < 1e-12, name
        assert np.abs(to_momentum(from_momentum(ft)).samples - ft.samples).max() < 1e-12
        assert abs(norm(ft) - 1.0) < 1e-12


def test_offset_position_grid_comes_back_on_the_centred_grid(g1024):
    # the momentum samples of an offset grid lie on the centred dual, and the
    # inverse reads psi on that dual's dual, the centred grid of the same spacing
    offset = Grid(1024, 40.0 / 1024, -19.63)
    phi = to_momentum(gaussian(offset, GaussianSpec()))
    assert phi.grid == dual_grid(g1024) and phi.grid.centred
    back = from_momentum(phi)
    assert back.grid == g1024
    assert np.abs(back.samples - gaussian(g1024, GaussianSpec()).samples).max() < 1e-14


def test_to_momentum_rejects_uncontained(g1024):
    with pytest.raises(ValueError, match="boundary_decay"):
        to_momentum(plane_wave(g1024, 0.0))


def test_fourier_oracle_agreement(g1024, unit_gaussian):
    ft = to_momentum(unit_gaussian)
    sub = np.arange(0, g1024.n, 8)
    oracle = quadrature_oracle(unit_gaussian, "plane_wave", ft.grid.points[sub])
    assert np.abs(ft.samples[sub] - oracle).max() < 1e-10


def test_kernel_norm_diverges_linearly_with_length():
    # the continuum families are not normalizable; their grid norms scale
    # with the domain, which is the operational form of that statement
    norms = []
    for length in (20.0, 40.0, 80.0):
        g = make_grid(int(1024 * length / 40.0), length)
        norms.append(norm(plane_wave(g, 1.0)) ** 2)
    assert norms[1] / norms[0] == pytest.approx(2.0, rel=1e-12)
    assert norms[2] / norms[1] == pytest.approx(2.0, rel=1e-12)


# --- one Fourier sum per state ------------------------------------------------


def _count_forward_sums(monkeypatch) -> list[int]:
    """Wrap ``fourier_sum`` wherever a qrep module binds it; returns the list
    the wrapper appends each call's length to."""
    calls, original = [], qrep.grid.fourier_sum

    def counting(values, g):
        calls.append(len(values))
        return original(values, g)

    for module in (qrep.grid, qrep.operators, qrep.transforms, qrep.verify):
        if hasattr(module, "fourier_sum"):
            monkeypatch.setattr(module, "fourier_sum", counting)
    return calls


def test_a_state_pays_for_its_fourier_sum_once(monkeypatch):
    g = make_grid(1024, 40.0)
    spec = GaussianSpec(s=1.2, x0=0.7, p0=-0.3, c=0.5)
    chirp = _interp_chirp(0.9)
    assert not _chirp_resolved(chirp.a, chirp.b, g)  # the momentum side
    readers = (to_momentum, correlation_transform, moments, lambda psi: interp_transform(psi, 0.9))
    alone = [reader(gaussian(g, spec)) for reader in readers]  # each on a fresh state
    calls = _count_forward_sums(monkeypatch)
    psi = gaussian(g, spec)
    together = [reader(psi) for reader in readers]
    assert calls == [g.n]
    # the kept sum changes no result
    assert np.array_equal(together[0].samples, alone[0].samples)
    assert np.array_equal(together[1].even, alone[1].even)
    assert np.array_equal(together[1].odd, alone[1].odd)
    assert together[2] == alone[2]
    assert np.array_equal(together[3].samples, alone[3].samples)


def test_kept_sum_is_read_only_and_belongs_to_its_state(unit_gaussian):
    kgrid, tilde = unit_gaussian._fourier
    assert unit_gaussian._fourier[1] is tilde
    with pytest.raises(ValueError, match="read-only"):
        tilde[0] = 0.0
    ref_grid, ref = fourier_sum(unit_gaussian.samples, unit_gaussian.grid)
    assert kgrid == ref_grid and np.array_equal(tilde.view(np.uint64), ref.view(np.uint64))
    # a new state with the same samples takes its own sum
    twin = Wavefunction(unit_gaussian.grid, unit_gaussian.samples, POSITION)
    assert "_fourier" not in vars(twin)
    assert not np.shares_memory(twin._fourier[1], tilde)
    assert np.array_equal(twin._fourier[1], tilde)


def test_momentum_guard_fires_on_every_call_on_the_kept_sum():
    # to_momentum refuses this state (|phi| = 0.16 at the momentum edge)
    psi = gaussian(make_grid(256, 40.0), GaussianSpec(s=1.0, c=15.0))
    for op in (to_momentum, apply_p, to_momentum, moments, apply_p):
        with pytest.raises(ValueError, match="^momentum_decay:"):
            op(psi)
        assert "_fourier" in vars(psi)


# --- interpolating family ----------------------------------------------------


def test_interp_alpha_zero_is_phased_fourier(g1024, unit_gaussian):
    out = interp_transform(unit_gaussian, 0.0)
    ft = to_momentum(unit_gaussian)
    assert np.abs(out.samples - np.exp(-1j * np.pi / 4.0) * ft.samples).max() < 1e-12
    assert out.label.kind == "interp" and out.label.parameter == 0.0


def test_interp_alpha_one_is_phase_multiplied_identity(g1024, unit_gaussian):
    out = interp_transform(unit_gaussian, 1.0)
    assert np.abs(np.abs(out.samples) - np.abs(unit_gaussian.samples)).max() < 1e-12
    x = g1024.points
    expected = np.exp(-0.5j * x**2) * unit_gaussian.samples
    assert np.abs(out.samples - expected).max() < 1e-12


def test_interp_output_lattice_scaling(g1024, unit_gaussian):
    alpha = 0.5
    out = interp_transform(unit_gaussian, alpha)
    dp = dual_grid(g1024).dx
    assert out.grid.dx == pytest.approx((1 - alpha) * dp, rel=1e-15)
    assert out.grid.x_min == pytest.approx(-(g1024.n // 2) * out.grid.dx, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_interp_unitarity(g1024, alpha, factory_states):
    for name, psi in factory_states:
        out = interp_transform(psi, alpha)
        assert abs(norm(out) - 1.0) < 1e-8, (name, alpha)


def test_interp_matches_quadrature_oracle(g1024, factory_states):
    sub = np.arange(0, g1024.n, 8)
    for name, psi in factory_states:
        out = interp_transform(psi, 0.5)
        oracle = quadrature_oracle(psi, "interp", out.grid.points[sub], alpha=0.5)
        assert np.abs(out.samples[sub] - oracle).max() < 1e-8, name


def test_interp_limit_towards_identity():
    errs = []
    for eps, n in ((1e-1, 2048), (1e-2, 16384), (1e-3, 131072)):
        g = make_grid(n, 16.0)
        psi = gaussian(g, GaussianSpec())
        out = interp_transform(psi, 1.0 - eps)
        lam = out.grid.points
        target = np.exp(-0.5j * lam**2) * np.pi**-0.25 * np.exp(-(lam**2) / 2.0)
        errs.append(np.abs(out.samples - target).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-2


def test_interp_formerly_refused_chirp_is_unitary():
    # the position-side chirp steps by ~6e3 rad here; the momentum side by ~2e-3
    g = make_grid(128, 40.0)
    psi = gaussian(g, GaussianSpec(s=2.0))
    out = interp_transform(psi, 0.999)
    assert abs(norm(out) - 1.0) <= 1e-12
    assert out.grid.dx == pytest.approx(0.999 * g.dx, rel=1e-15)


def test_interp_near_identity_keeps_norm(g1024, unit_gaussian):
    out = interp_transform(unit_gaussian, 1.0 - 5e-4)
    assert abs(norm(out) - 1.0) <= 1e-12
    lam = out.grid.points
    assert lam[0] == pytest.approx((1.0 - 5e-4) * g1024.x_min, rel=1e-15)
    target = np.exp(-0.5j * lam**2) * np.pi**-0.25 * np.exp(-(lam**2) / 2.0)
    assert np.abs(out.samples - target).max() < 1e-3


@pytest.mark.parametrize(
    "family, value",
    [("interp", 0.85), ("interp", 0.9), ("rotation", 0.1), ("rotation", 0.15), ("rotation", 0.2)],
)
def test_momentum_side_matches_resolved_oracle(g1024, factory_states, family, value):
    # these chirps alias on g1024, so the oracle sums on a grid that resolves them
    member = _FAMILIES[family]
    chirp = member.chirp(value)
    fine_states = dict(_factory_states(_oracle_grid(g1024, chirp)))
    sub = np.arange(0, g1024.n, 64)
    for name, psi in factory_states:
        out = member.transform(psi, value)
        assert out.grid.dx == pytest.approx(chirp.a * g1024.dx, rel=1e-15)  # the momentum side
        oracle = quadrature_oracle(fine_states[name], family, out.grid.points[sub],
                                   **{member.param: value})
        assert np.abs(out.samples[sub] - oracle).max() <= 1e-8, name


@pytest.mark.parametrize("n, length, s", [(1024, 40.0, 1.0), (128, 40.0, 2.0), (64, 16.0, 1.0)])
def test_chirp_transforms_unitary_for_every_parameter(n, length, s):
    g = make_grid(n, length)
    psi = gaussian(g, GaussianSpec(s=s))
    alphas = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-12, 5e-4, 0.999, 1.0 - 5e-4]])
    for alpha in alphas:
        assert abs(norm(interp_transform(psi, float(alpha))) - 1.0) <= 1e-12, alpha
    for theta in np.concatenate([np.linspace(np.pi / 200, np.pi / 2, 100), [1e-9]]):
        assert abs(norm(rotation_transform(psi, float(theta))) - 1.0) <= 1e-12, theta


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_chirp_transforms_take_either_side_without_momentum_guard(alpha):
    # to_momentum refuses this state (|phi| = 0.16 at the momentum edge), but
    # the side a transform takes is its own choice: alpha = 0.5 takes the
    # position side and 0.9 the momentum side, and both return unitary
    g = make_grid(256, 40.0)
    psi = gaussian(g, GaussianSpec(s=1.0, c=15.0))
    with pytest.raises(ValueError, match="^momentum_decay:"):
        to_momentum(psi)
    out = interp_transform(psi, alpha)
    side_dx = (1.0 - alpha) * dual_grid(g).dx if alpha == 0.5 else alpha * g.dx
    assert out.grid.dx == pytest.approx(side_dx, rel=1e-15)
    assert abs(norm(out) - 1.0) <= 1e-12


def test_output_spacing_is_continuous_across_the_side_switch(g1024, unit_gaussian):
    # sides switch where (1-alpha) dp = alpha dx, at alpha/(1-alpha) = 2 pi / (n dx^2)
    dx, dp = g1024.dx, dual_grid(g1024).dx
    rate = 2.0 * np.pi / (g1024.n * dx**2)
    switch = rate / (1.0 + rate)
    below = interp_transform(unit_gaussian, switch * (1.0 - 1e-9))
    above = interp_transform(unit_gaussian, switch * (1.0 + 1e-9))
    assert below.grid.dx == pytest.approx((1.0 - switch) * dp, rel=1e-8)
    assert above.grid.dx == pytest.approx(switch * dx, rel=1e-8)
    sub = np.arange(0, g1024.n, 8)
    assert np.abs(below.samples[sub] - above.samples[sub]).max() < 1e-7


def test_interp_rejects_bad_alpha(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="interp_alpha_range"):
        interp_transform(unit_gaussian, -0.1)


def test_interp_label_mismatch(g1024, unit_gaussian):
    ft = to_momentum(unit_gaussian)
    with pytest.raises(ValueError, match="position_label"):
        interp_transform(ft, 0.5)


# --- rotation family ---------------------------------------------------------


def test_rotation_right_angle_equals_phased_fourier(g1024, unit_gaussian):
    out = rotation_transform(unit_gaussian, np.pi / 2)
    ft = to_momentum(unit_gaussian)
    assert np.abs(out.samples - np.exp(-1j * np.pi / 4.0) * ft.samples).max() < 1e-12


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_rotation_unitarity(theta, factory_states):
    for name, psi in factory_states:
        out = rotation_transform(psi, theta)
        assert abs(norm(out) - 1.0) < 1e-8, (name, theta)


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4])
def test_rotation_matches_quadrature_oracle(g1024, unit_gaussian, theta):
    out = rotation_transform(unit_gaussian, theta)
    sub = np.arange(0, g1024.n, 8)
    oracle = quadrature_oracle(unit_gaussian, "rotation", out.grid.points[sub], theta=theta)
    assert np.abs(out.samples[sub] - oracle).max() < 1e-8


def test_rotation_rejects_bad_theta(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="rotation_theta_range"):
        rotation_transform(unit_gaussian, 0.0)


def test_rotation_tiny_theta_is_silent_and_unitary(unit_gaussian):
    # kappa = (1 - sin)/(2 cos sin) overflows here; the momentum side never reads it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = rotation_transform(unit_gaussian, 5e-324)
    assert abs(norm(out) - 1.0) <= 1e-12


def test_rotation_lattice_scaling(g1024, unit_gaussian):
    theta = np.pi / 6
    out = rotation_transform(unit_gaussian, theta)
    dp = dual_grid(g1024).dx
    assert out.grid.dx == pytest.approx(np.sin(theta) * dp, rel=1e-15)


# --- correlation (log-Fourier) -----------------------------------------------


def test_correlation_even_state_has_zero_odd_channel(g1024, unit_gaussian):
    spec = correlation_transform(unit_gaussian)
    assert np.abs(spec.odd).max() <= 1e-14
    assert np.abs(spec.even).max() > 0.1


def test_correlation_odd_state_has_zero_even_channel(g1024):
    spec = correlation_transform(hermite(g1024, 1))
    assert np.abs(spec.even).max() <= 1e-14


def test_correlation_oracle_agreement(g1024, factory_states):
    # on the 2n points a given window gets, whose whole gamma range the
    # 4n-point oracle reaches
    for name, psi in [factory_states[0], factory_states[2], factory_states[3]]:
        spec = correlation_transform(psi, u_window=CORR_WINDOW)
        sub = np.arange(0, spec.gamma_grid.n, 64)
        gams = spec.gamma_grid.points[sub]
        for channel, values in (("even", spec.even), ("odd", spec.odd)):
            oracle = quadrature_oracle(psi, f"correlation_{channel}", gams)
            assert np.abs(values[sub] - oracle).max() < 1e-5, (name, channel)


def test_correlation_roundtrip_asymmetric_state(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.5, x0=1.0, p0=-0.5))
    for report in _readback_checks(psi, correlation_transform(psi), "gaussian_moved", 10.0):
        assert report.passed, report


def test_correlation_inverse_zero_spectrum(g1024, unit_gaussian):
    spec = correlation_transform(unit_gaussian)
    zeroed = type(spec)(
        even=np.zeros_like(spec.even),
        odd=np.zeros_like(spec.odd),
        tail_mass=spec.tail_mass,
        u_grid=spec.u_grid,
    )
    rec = correlation_inverse(zeroed, g1024)
    assert np.abs(rec.samples).max() == 0.0


def _correlation_inverse_reference(spec, g):
    # whole-length inverse sums, their sum and difference, then one
    # cubic_interpolate per half-line
    sqrt_2pi = np.sqrt(2.0 * np.pi)
    h_even = inverse_fourier_sum(spec.even, spec.u_grid) / sqrt_2pi
    h_odd = inverse_fourier_sum(spec.odd, spec.u_grid) / sqrt_2pi
    r_min, r_max = np.exp(spec.u_grid.x_min), np.exp(spec.u_grid.x_max)
    out = np.zeros(g.n, dtype=complex)
    for x, h in ((g.points, h_even + h_odd), (-g.points, h_even - h_odd)):
        covered = (x >= r_min) & (x <= r_max) & (x > 0.0)
        r = x[covered]
        out[covered] = cubic_interpolate(spec.u_grid, h, np.log(r)) / np.sqrt(2.0 * r)
    return out


@pytest.mark.parametrize("offset", [None, 0.37])
def test_windowed_correlation_inverse_is_bit_identical_to_whole_sum_reference(offset):
    # offset 0.37: the target grid is [0.37, 160.37), so the annulus meets
    # the positive half-line only.  The state's lattice has 4096 knots here, of
    # which the offset target's queries fit 1246; on make_grid(1024, 40.0) its
    # lattice has 2048, and the queries' window of under 569 knots is widened
    # to all of them.
    g = make_grid(4096, 160.0)
    spec = correlation_transform(gaussian(g, GaussianSpec(s=1.0, x0=0.7, p0=-0.3, c=0.5)))
    target = g if offset is None else Grid(g.n, g.dx, offset)
    x = np.abs(target.points)
    t = np.log(x[(x >= np.exp(spec.u_grid.x_min)) & (x <= np.exp(spec.u_grid.x_max))])
    lo, hi = _spline_window(spec.u_grid, t.min(), t.max())
    assert hi - lo < spec.u_grid.n  # only some knots are copied
    rec = correlation_inverse(spec, target).samples
    ref = _correlation_inverse_reference(spec, target)
    assert np.array_equal(rec.view(np.uint64), ref.view(np.uint64))
    assert np.count_nonzero(rec) > g.n // 4


@pytest.mark.parametrize("offset,half_lines", [(None, 2), (0.37, 1)])
def test_read_back_fits_and_reads_only_the_queried_half_lines(offset, half_lines, monkeypatch):
    # on [0.37, 40.37) the annulus meets x > 0 alone, so the difference of
    # the channels, which x < 0 would read, is neither fitted nor read
    g = make_grid(1024, 40.0)
    spec = correlation_transform(gaussian(g, GaussianSpec(s=1.0, x0=0.7, p0=-0.3, c=0.5)))
    target = g if offset is None else Grid(g.n, g.dx, offset)
    calls = {"_spline_coeffs": 0, "_spline_eval": 0}
    for name in calls:
        def counted(*args, _real=getattr(qrep.grid, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(qrep.grid, name, counted)
    rec = correlation_inverse(spec, target).samples
    assert calls == {"_spline_coeffs": half_lines, "_spline_eval": half_lines}
    ref = _correlation_inverse_reference(spec, target)
    assert np.array_equal(rec.view(np.uint64), ref.view(np.uint64))


def _tail_mass_reference(psi, r_min, r_max):
    # _tail_mass's sums, over index sets taken by masks
    g, samples = psi.grid, psi.samples
    x = g.points
    outer = np.sum(np.abs(samples[(x < -r_max) | (x > r_max)]) ** 2) * g.dx
    a, b = np.count_nonzero(x <= -r_min), np.count_nonzero(x < r_min)
    knots = x[a - 1 : b + 1].copy()
    w = np.abs(samples[a - 1 : b + 1]) ** 2
    w_lo = w[0] + (-r_min - knots[0]) / g.dx * (w[1] - w[0])
    w_hi = w[-1] + (knots[-1] - r_min) / g.dx * (w[-2] - w[-1])
    knots[0], knots[-1], w[0], w[-1] = -r_min, r_min, w_lo, w_hi
    return float(outer + np.sum((w[1:] + w[:-1]) * np.diff(knots)) / 2.0)


@pytest.mark.parametrize("edge,n,m", [("u_max", 256, 128), ("u_min", 2048, 1)])
def test_annulus_edge_on_a_lattice_sample(edge, n, m):
    # the target lattice Grid(n, 2r/m, -r) has -r at sample 0 and r at
    # sample m exactly, for r = e^edge: the annulus includes its edges on
    # both half-lines, as the masks do
    g = make_grid(1024, 40.0)
    psi = gaussian(g, GaussianSpec(s=1.0, x0=0.7, p0=-0.3, c=0.5))
    spec = correlation_transform(psi, (-14.5, float(np.log(18.0))))
    r_min, r_max = np.exp(spec.u_grid.x_min), np.exp(spec.u_grid.x_max)
    r = r_max if edge == "u_max" else r_min
    target = Grid(n, 2.0 * r / m, -r)
    assert target.points[0] == -r and target.points[m] == r
    rec = correlation_inverse(spec, target).samples
    ref = _correlation_inverse_reference(spec, target)
    assert ref[0] != 0.0 and ref[m] != 0.0
    assert np.array_equal(rec.view(np.uint64), ref.view(np.uint64))
    noise = np.random.default_rng(n).normal(size=(2, n))
    state = Wavefunction(target, noise[0] + 1j * noise[1], POSITION)
    assert _tail_mass(state, r_min, r_max) == _tail_mass_reference(state, r_min, r_max)


@pytest.mark.parametrize("k_min,k_max", [(3, 400), (3, None), (None, 400)])
def test_tail_mass_annulus_edges_on_lattice_samples(g1024, k_min, k_max):
    # r_min = k_min dx and r_max = k_max dx are samples on both half-lines
    # (None: a radius between samples)
    noise = np.random.default_rng(7).normal(size=(2, g1024.n))
    psi = Wavefunction(g1024, noise[0] + 1j * noise[1], POSITION)
    x = g1024.points
    r_min = 2.5 * g1024.dx if k_min is None else x[g1024.n // 2 + k_min]
    r_max = 12.34 if k_max is None else x[g1024.n // 2 + k_max]
    assert (-r_min in x) == (k_min is not None) and (-r_max in x) == (k_max is not None)
    assert _tail_mass(psi, r_min, r_max) == _tail_mass_reference(psi, r_min, r_max)


def test_read_back_skips_the_origin_where_e_u_min_underflows(g1024, unit_gaussian):
    # e^-800 is 0.0, so the annulus starts at |x| >= 0; the sample at x = 0,
    # where ln|x| is -inf, lies on neither half-line, and the hole is empty.
    # log_grid refuses that window, so the spectrum's lattice is built directly.
    spec = correlation_transform(unit_gaussian, CORR_WINDOW)
    n, u_max = spec.u_grid.n, float(np.log(18.0))
    spec = dataclasses.replace(spec, u_grid=Grid(n, (u_max + 800.0) / n, -800.0))
    r_min = np.exp(spec.u_grid.x_min)
    assert r_min == 0.0
    x, samples = g1024.points, unit_gaussian.samples
    r_max = np.exp(u_max)
    outer = np.sum(np.abs(samples[(x < -r_max) | (x > r_max)]) ** 2) * g1024.dx
    assert _tail_mass(unit_gaussian, r_min, r_max) == outer
    rec = correlation_inverse(spec, g1024).samples
    ref = _correlation_inverse_reference(spec, g1024)
    assert rec[g1024.n // 2] == 0.0
    assert np.array_equal(rec.view(np.uint64), ref.view(np.uint64))


def test_correlation_spectrum_rejects_short_channel(unit_gaussian):
    spec = correlation_transform(unit_gaussian)
    with pytest.raises(ValueError, match="channel_length"):
        dataclasses.replace(spec, odd=spec.odd[:-1])


def test_correlation_inverse_rejects_large_tail(g1024, unit_gaussian):
    # a window that starts at 4*dx leaves most of the near-origin
    # probability of a unit Gaussian unseen
    window = (float(np.log(4.0 * g1024.dx)), float(np.log(18.0)))
    spec = correlation_transform(unit_gaussian, u_window=window)
    assert spec.tail_mass > 1e-6
    with pytest.raises(ValueError, match="inverse_tail_mass"):
        correlation_inverse(spec, g1024)


def test_tail_mass_sees_the_hole_of_an_odd_state(g1024):
    # hermite_1 vanishes at the origin, where an estimate from |psi(0)|^2 read
    # 5.6e-140 while 1.9e-3 of the probability lies in |x| < 4 dx
    psi = hermite(g1024, 1)
    window = (float(np.log(4.0 * g1024.dx)), float(np.log(18.0)))
    spec = correlation_transform(psi, u_window=window)
    x = g1024.points
    hole = np.sum(np.abs(psi.samples[np.abs(x) < 4.0 * g1024.dx]) ** 2) * g1024.dx
    assert hole / 2.0 <= spec.tail_mass <= 2.0 * hole
    with pytest.raises(ValueError, match="inverse_tail_mass"):
        correlation_inverse(spec, g1024)


def test_tail_mass_on_the_default_window(g1024, unit_gaussian):
    # the unit Gaussian holds 2 e^-14 / sqrt(pi) = 9.4e-7 in |x| < e^-14;
    # hermite_1 holds ~1e-40 there
    expected = 2.0 * np.exp(-14.0) / np.sqrt(np.pi)
    assert correlation_transform(unit_gaussian).tail_mass == pytest.approx(expected, rel=1e-2)
    assert correlation_transform(hermite(g1024, 1)).tail_mass <= 1e-6


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_default_window_sees_a_unit_state_and_reads_it_back(n):
    g = make_grid(n, 40.0)
    psi = gaussian(g, GaussianSpec())
    spec = correlation_transform(psi)
    assert spec.u_grid == log_grid(spec.u_grid.n, *CORR_WINDOW)
    assert spec.tail_mass <= 1e-6
    # both round trips; Parseval is the known failure at n = 256
    *readback, _ = _readback_checks(psi, spec, "gaussian", 10.0)
    assert all(r.passed for r in readback), readback


def _tail_radius_reference(g, samples):
    """The smallest radius, in whole cells, beyond which ``|samples|^2`` sums
    below 1e-16 of its total: every radius tried from the origin out."""
    cells = np.rint(np.abs(g.points) / g.dx)
    weight = np.abs(samples) ** 2
    for cell in np.unique(cells):
        if weight[cells > cell].sum() < 1e-16 * weight.sum():
            return cell * g.dx
    raise AssertionError("no radius holds the whole weight")


def _lattice_states(g):
    return (gaussian(g, GaussianSpec()), gaussian(g, GaussianSpec(c=2.0)), hermite(g, 5),
            gaussian(g, GaussianSpec(x0=10.0, p0=5.0)))


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_tail_radius_is_the_smallest_radius_that_holds_the_state(n):
    g = make_grid(n, 40.0)
    for psi in _lattice_states(g):
        kgrid, tilde = fourier_sum(psi.samples, g)
        for lattice, samples in ((g, psi.samples), (kgrid, tilde)):
            assert _tail_radius(lattice, samples) == _tail_radius_reference(lattice, samples)
    # an offset grid bins both half-lines by their radius in cells
    offset = Grid(n, g.dx, -0.3 * g.length)
    spike = np.zeros(n)
    spike[[3, n // 2, n - 5]] = (1e-9, 1.0, 1e-7)
    assert _tail_radius(offset, spike) == _tail_radius_reference(offset, spike)
    assert _tail_radius(offset, spike) == np.rint(abs(offset.points[n - 5]) / g.dx) * g.dx


@pytest.mark.parametrize("n,n_gamma", [(256, 16 * 256), (1024, 8 * 1024), (4096, 8 * 4096)])
def test_lattice_resolves_the_state_up_to_the_grid_count(n, n_gamma):
    # The cap is the count the window alone gave: 2n for a given window, and
    # for the default one 2n doubled until du is no coarser than 2n points
    # over (ln(4 dx), u_max), so reaching down to u = -14 never coarsens du
    # below that.  Under the cap the lattice is the fewest points, a power of
    # two and at least 8, with du <= pi/(m r p): h(u) oscillates at the
    # u-frequency x p.
    g = make_grid(n, 40.0)
    default = _default_u_window(g)
    assert default == CORR_WINDOW
    assert _default_n_gamma(g, default) == n_gamma
    assert (default[1] - default[0]) / n_gamma <= (default[1] - np.log(4.0 * g.dx)) / (2 * n)
    start_at_4dx = (float(np.log(4.0 * g.dx)), default[1])
    uncapped = 0
    for psi in _lattice_states(g):
        kgrid, tilde = fourier_sum(psi.samples, g)
        gamma_max = _tail_radius_reference(g, psi.samples) * _tail_radius_reference(kgrid, tilde)
        du_need = np.pi / (_DU_REFINE * gamma_max)
        for window, cap in ((None, n_gamma), (default, 2 * n), (start_at_4dx, 2 * n)):
            u = correlation_transform(psi, window).u_grid
            assert u == log_grid(u.n, *(window or default))
            assert u.n <= cap
            if u.n < cap:
                uncapped += 1
                assert u.dx <= du_need
                assert u.n == 8 or 2.0 * u.dx > du_need
    assert uncapped


def test_unit_gaussian_needs_exactly_2n_points_on_the_session_window(g1024, unit_gaussian):
    # the state's own count and the cap agree, so qrep transform writes
    # 2 * 2n rows for it, as it did when the window alone set the lattice
    span = CORR_WINDOW[1] - CORR_WINDOW[0]
    assert _state_n_gamma(unit_gaussian, span, 2**30) == 2 * g1024.n
    assert correlation_transform(unit_gaussian, CORR_WINDOW).u_grid.n == 2 * g1024.n
    # A moved, chirped session packet needs 8n points and the cap gives it 2n.
    # The benchmark's cli_session pins those 2 * 2n rows, so lifting the cap
    # on a given window needs a benchmark change first.
    moved = gaussian(g1024, GaussianSpec(s=1.5, x0=1.0, p0=0.5, c=1.0))
    assert _state_n_gamma(moved, span, 2**30) > 2 * g1024.n
    assert correlation_transform(moved, CORR_WINDOW).u_grid.n == 2 * g1024.n


def _outer_roundtrip_error(psi, **window):
    return _readback_checks(psi, correlation_transform(psi, **window), "moving", 17.0)[0].observed


@pytest.mark.parametrize("n,p0,tol", [(1024, 45.0, 2e-2), (4096, 20.0, 1e-5)])
def test_default_lattice_reads_back_a_moving_state_away_from_the_origin(n, p0, tol):
    # h(u) of a packet at x0 = 10 oscillates at p x up to ~600 (p0 = 45); on a
    # 2n-point default lattice, pi/du = 381 at n = 1024, the round trip read 1.2.
    # At p0 = 45 the position grid holds 3.6 points per wavelength, and its
    # spline, not the log lattice, sets the 1e-2 scale.
    g = make_grid(n, 40.0)
    psi = gaussian(g, GaussianSpec(x0=10.0, p0=p0))
    err = _outer_roundtrip_error(psi)
    start_at_4dx = (float(np.log(4.0 * g.dx)), CORR_WINDOW[1])
    assert err <= min(tol, _outer_roundtrip_error(psi, u_window=start_at_4dx))


def test_spectrum_gamma_lattice_is_the_dual_of_its_log_lattice(unit_gaussian):
    # the gamma lattice is derived, so it follows any log lattice a spectrum holds
    spec = correlation_transform(unit_gaussian)
    assert spec.gamma_grid == dual_grid(spec.u_grid)
    moved = dataclasses.replace(spec, u_grid=log_grid(spec.u_grid.n, -10.0, 2.0))
    assert moved.gamma_grid == dual_grid(log_grid(spec.u_grid.n, -10.0, 2.0))


def test_correlation_window_guard(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="log_window_support"):
        correlation_transform(unit_gaussian, u_window=(-5.0, np.log(25.0)))


# --- conjugate-transform property and oracle misc ------------------------------


@pytest.mark.parametrize("n,s", [(2**15, 1.0), (1024, 2.6)])
def test_conjugation_defect_guards_only_the_state(n, s):
    # C psi is no state: at n = 2^15 its edge is x times the rounding of
    # P psi (1.1e-12), and for s = 2.6 the edge of x psi is 20 times the
    # state's 7.4e-14; neither may be refused with boundary_decay
    psi = gaussian(make_grid(n, 40.0), GaussianSpec(s=s))
    assert conjugation_defect(psi) < 1e-8


# Members of both chirp families; those a grid does not resolve are skipped
# there, so alpha = 0.85 and theta = 0.15 (momentum side on 1024 points) are
# summed at n = 4096.
_MEMBERS = (("interp", 0.0), ("interp", 0.5), ("interp", 0.85), ("interp", 1.0),
            ("rotation", 0.15), ("rotation", np.pi / 4), ("rotation", np.pi / 2))
_LONG = np.longdouble


def _resolved_members(g):
    chirps = {"interp": _interp_chirp, "rotation": _rotation_chirp}
    for family, value in _MEMBERS:
        chirp = chirps[family](value)
        if chirp.b == 0.0 or _chirp_resolved(chirp.a, chirp.b, g):
            yield family, value, chirp


def _spread(lattice):
    """32 points spread over the whole lattice."""
    return lattice.points[:: lattice.n // 32]


def _correlation_gammas(g):
    # the gamma lattice of the 2n-point default window, all of which the oracle reaches
    return _spread(dual_grid(log_grid(2 * g.n, *CORR_WINDOW)))


def _long_double_sum(g, target, phases):
    """``(2 pi)^(-1/2) sum_j e^(i phase_j) target_j dx`` in long double on the
    exact lattice ``x_min + j dx``, one row of ``phases(x)`` per eigenvalue."""
    x = _LONG(g.x_min) + np.arange(g.n).astype(_LONG) * _LONG(g.dx)
    t_re, t_im = target.real.astype(_LONG), target.imag.astype(_LONG)
    scale = _LONG(g.dx) / np.sqrt(2 * _LONG(np.pi))
    out = []
    for phase in phases(x):
        c, s = np.cos(phase), np.sin(phase)
        out.append(complex(float(np.sum(c * t_re - s * t_im) * scale),
                           float(np.sum(c * t_im + s * t_re) * scale)))
    return np.array(out)


def _exact_coefficients(psi, family, lams, chirp=None):
    """What ``quadrature_oracle`` sums, every phase taken in long double."""
    g, lams_l = psi.grid, lams.astype(_LONG)
    if family == "plane_wave":
        return _long_double_sum(g, psi.samples, lambda x: [-lam * x for lam in lams_l])
    if family.startswith("correlation"):
        ugrid = log_grid(4 * g.n, *CORR_WINDOW)
        channel = log_resample(psi, ugrid)[family == "correlation_odd"]
        return _long_double_sum(ugrid, channel, lambda u: [-lam * u for lam in lams_l])
    if chirp.b == 0.0:  # the alpha = 1 point mass e^(i lam^2/2) / dx on the nearest sample
        j = np.rint((lams - g.x_min) / g.dx).astype(int)
        return np.exp(-0.5j * lams_l**2).astype(complex) * psi.samples[j]
    a, b, kappa = _LONG(chirp.a), _LONG(chirp.b), _LONG(chirp.kappa)
    quarter = _LONG(np.pi / 4.0)

    def phases(x):
        return [kappa * lam**2 - quarter + a * x**2 / (2 * b) - lam * x / b for lam in lams_l]

    return _long_double_sum(g, psi.samples, phases) / np.sqrt(float(b))


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_oracle_matches_the_long_double_direct_sum(factory_states_on, n):
    # Each phase is a few ulps from exact however large lam x is.  The old
    # formula, one exp(-i lam x_j) per sample and a dot product, rounds
    # lam x_j, which reaches 2e4 on the correlation lattice at n = 4096; it
    # read 3.4e-15 off this sum on the correlation channels, and its
    # plane-wave and correlation errors are checked to be larger here.
    g = make_grid(n, 40.0)
    ugrid = log_grid(4 * n, *CORR_WINDOW)
    lams = {"plane_wave": _spread(dual_grid(g)), "correlation_even": _correlation_gammas(g),
            "correlation_odd": _correlation_gammas(g)}
    err, old_err = {}, {}
    for name, psi in factory_states_on(n):
        for family, fs in lams.items():
            exact = _exact_coefficients(psi, family, fs)
            err[family] = max(err.get(family, 0.0),
                              np.abs(quadrature_oracle(psi, family, fs) - exact).max())
            if family == "plane_wave":
                old = [inner(plane_wave(g, p), psi) for p in fs]
            else:
                h = log_resample(psi, ugrid)[family == "correlation_odd"]
                channel = Wavefunction(ugrid, h, POSITION)
                old = [inner(plane_wave(ugrid, gam), channel) for gam in fs]
            old_err[family] = max(old_err.get(family, 0.0), np.abs(np.array(old) - exact).max())
        for family, value, chirp in _resolved_members(g):
            fs = _spread(_FAMILIES[family].transform(psi, value).grid)
            got = quadrature_oracle(psi, family, fs, **{_FAMILIES[family].param: value})
            assert np.abs(got - _exact_coefficients(psi, family, fs, chirp)).max() <= 4e-15, (
                name, family, value)
    for family in lams:
        assert err[family] <= 4e-15, family
        assert err[family] < old_err[family], family


def test_oracle_matches_the_public_samplers(factory_states):
    # the oracle calls no sampler, so it is tied to them here
    g = factory_states[0][1].grid
    ugrid = log_grid(4 * g.n, *CORR_WINDOW)
    samplers = {"interp": interp_kernel, "rotation": rotation_kernel}
    ps, gams = _spread(dual_grid(g)), _correlation_gammas(g)
    for name, psi in factory_states:
        expected = [inner(plane_wave(g, p), psi) for p in ps]
        assert np.abs(quadrature_oracle(psi, "plane_wave", ps) - expected).max() <= 1e-13
        for family, value, _ in _resolved_members(g):
            lams = _spread(_FAMILIES[family].transform(psi, value).grid)
            got = quadrature_oracle(psi, family, lams, **{_FAMILIES[family].param: value})
            expected = [inner(samplers[family](g, value, lam), psi) for lam in lams]
            assert np.abs(got - expected).max() <= 1e-13, (name, family, value)
        for parity, h in zip(("even", "odd"), log_resample(psi, ugrid)):
            channel = Wavefunction(ugrid, h, POSITION)
            expected = [inner(plane_wave(ugrid, gam), channel) for gam in gams]
            got = quadrature_oracle(psi, f"correlation_{parity}", gams)
            assert np.abs(got - expected).max() <= 1e-13, (name, parity)


_THREADED_ORACLE = """
import sys
import numpy as np
from qrep import GaussianSpec, gaussian, make_grid, quadrature_oracle
psi = gaussian(make_grid(4096, 40.0), GaussianSpec(s=1.5, x0=1.0, p0=-0.5))
out = quadrature_oracle(psi, "correlation_even", np.linspace(-40.0, 40.0, 33))
sys.stdout.write(out.tobytes().hex())
"""


def test_oracle_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot product splits a 16384-point sum across threads
    root = str(Path(qrep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        r = subprocess.run([sys.executable, "-c", _THREADED_ORACLE],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        runs.append(r.stdout)
    assert runs[0] == runs[1]


def test_oracle_rejects_unknown_family(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="oracle_family"):
        quadrature_oracle(unit_gaussian, "nosuch", np.array([0.0]))


def test_oracle_requires_parameters(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="oracle_family"):
        quadrature_oracle(unit_gaussian, "interp", np.array([0.0]))


def test_oracle_sums_exactly_the_families_the_table_marks(unit_gaussian):
    params = {"interp": {"alpha": 0.5}, "rotation": {"theta": 0.8}}
    summed = []
    for family in _FAMILIES:
        try:
            quadrature_oracle(unit_gaussian, family, np.array([0.0]), **params.get(family, {}))
        except ValueError as exc:
            assert str(exc) == f"oracle_family: unknown kernel family {family!r}"
        else:
            summed.append(family)
    assert summed == [name for name, f in _FAMILIES.items() if f.summed]
    assert set(_FAMILIES) - set(summed) == {"position_in_momentum", "fresnel"}


ORACLE_FAMILY_REFUSALS = [
    ("nosuch", {}, "unknown kernel family 'nosuch'"),
    ("position_in_momentum", {}, "unknown kernel family 'position_in_momentum'"),
    ("fresnel", {}, "unknown kernel family 'fresnel'"),
    ("interp", {}, "interp family requires alpha"),
    ("rotation", {}, "rotation family requires theta"),
    ("plane_wave", {"alpha": 0.3}, "plane_wave family takes no alpha"),
    ("plane_wave", {"alpha": 0.3, "theta": 1.0}, "plane_wave family takes no alpha or theta"),
    ("interp", {"theta": 1.0}, "interp family takes no theta"),
    ("rotation", {"alpha": 0.5, "theta": 1.2}, "rotation family takes no alpha"),
    ("correlation_even", {"theta": 1.0}, "correlation_even family takes no theta"),
    ("correlation_odd", {"alpha": 0.1, "theta": 1.0},
     "correlation_odd family takes no alpha or theta"),
]


@pytest.mark.parametrize("family,params,text", ORACLE_FAMILY_REFUSALS)
def test_oracle_family_refusals_carry_their_full_text(unit_gaussian, family, params, text):
    with pytest.raises(ValueError) as refused:
        quadrature_oracle(unit_gaussian, family, np.array([0.0]), **params)
    assert str(refused.value) == f"oracle_family: {text}"


@pytest.mark.parametrize("lambdas", [0.5, np.zeros((2, 2))], ids=["scalar", "2d"])
@pytest.mark.parametrize("family,params", [
    ("plane_wave", {}), ("interp", {"alpha": 0.5}), ("interp", {"alpha": 1.0}),
    ("rotation", {"theta": 0.5}), ("correlation_even", {}), ("correlation_odd", {}),
], ids=["plane_wave", "interp", "point_mass", "rotation", "correlation_even", "correlation_odd"])
def test_oracle_refuses_eigenvalues_that_are_not_1d(unit_gaussian, family, params, lambdas):
    shape = re.escape(str(np.shape(lambdas)))
    with pytest.raises(ValueError, match=rf"^oracle_eigenvalue_shape: .* got shape {shape}$"):
        quadrature_oracle(unit_gaussian, family, lambdas, **params)


def test_conjugation_defect_refuses_a_state_of_subnormal_scale(g1024, unit_gaussian):
    # one 1e-320 sample read a defect of 1.001 with no refusal
    tiny = np.zeros(g1024.n, dtype=complex)
    tiny[g1024.n // 2 + 7] = 1e-320
    with pytest.raises(ValueError, match="^conjugation_state_scale:"):
        conjugation_defect(Wavefunction(g1024, tiny, POSITION))
    floor = np.finfo(float).tiny / np.finfo(float).eps
    peak = np.abs(unit_gaussian.samples).max()
    at_floor = Wavefunction(g1024, unit_gaussian.samples * (floor / peak), POSITION)
    assert np.abs(at_floor.samples).max() >= floor
    assert conjugation_defect(at_floor) < 1e-8
    below = Wavefunction(g1024, unit_gaussian.samples * (0.5 * floor / peak), POSITION)
    with pytest.raises(ValueError, match="^conjugation_state_scale:"):
        conjugation_defect(below)


def test_conjugation_defect_refuses_the_zero_state(g1024):
    # warnings are errors here, so a 0/0 would fail with a RuntimeWarning
    zero = Wavefunction(g1024, np.zeros(g1024.n, dtype=complex), POSITION)
    with pytest.raises(ValueError, match="^conjugation_zero_state:"):
        conjugation_defect(zero)


def test_oracle_rejects_unresolved_chirp():
    # cot(0.15) = 6.6 steps the kernel chirp by 5.2 rad at the edge of this
    # lattice, where the rectangle sum aliases
    psi = hermite(make_grid(1024, 40.0), 2)
    with pytest.raises(ValueError, match="nyquist_chirp_step"):
        quadrature_oracle(psi, "rotation", np.array([0.0]), theta=0.15)


def test_oracle_refuses_tiny_theta_silently(unit_gaussian):
    # cot(5e-324) overflows a float; the refusal compares a dx with b dp instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nyquist_chirp_step"):
            quadrature_oracle(unit_gaussian, "rotation", np.array([0.0]), theta=5e-324)


def test_correlation_rejects_uncontained_state():
    # |psi| = 2.5e-5 at the domain edge; the spline read presumes a decayed state
    psi = gaussian(make_grid(64, 16.0), GaussianSpec(s=1.5, x0=1.0, p0=-0.5))
    with pytest.raises(ValueError, match="boundary_decay"):
        correlation_transform(psi)


def test_correlation_default_window_stays_inside_small_grid():
    # on n = 16, ln(0.45 L) would reach past the last positive sample x_max;
    # exp(-x^2) has decayed at x = -8, as the containment check requires
    g = make_grid(16, 16.0)
    psi = Wavefunction(g, np.exp(-g.points**2), POSITION)
    spec = correlation_transform(psi)
    assert np.exp(spec.u_grid.points[-1]) <= g.x_max
    assert np.all(np.isfinite(spec.even)) and np.all(np.isfinite(spec.odd))


def test_default_window_reaches_only_the_shorter_half_line():
    # x_max = 24.96 but x_min = -15: a window to 0.45 L = 18 would read past
    # the last negative sample, which log_resample refuses
    g = Grid(1024, 40.0 / 1024, -15.0)
    spec = correlation_transform(gaussian(g, GaussianSpec()))
    assert _default_u_window(g)[1] == np.log(15.0)
    assert spec.tail_mass < 1e-6


@pytest.mark.parametrize("n,length", [(16, 16.0), (256, 40.0), (1024, 40.0), (2**14, 640.0)])
def test_default_window_is_unchanged_on_centred_grids(n, length):
    # there x_max < -x_min, so the shorter half-line bound adds nothing
    g = make_grid(n, length)
    assert _default_u_window(g) == (min(-14.0, float(np.log(4.0 * g.dx))),
                                    float(np.log(min(0.45 * g.length, g.x_max))))


# --- the chirp phasors are the old np.exp(+-1j * ...), bit for bit -----------


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def _old_linear_transform(psi, chirp):
    a, b, kappa, mu = chirp.a, chirp.b, chirp.kappa, chirp.mu
    g = psi.grid
    if _chirp_resolved(a, b, g):
        pre = np.exp(1j * (a / b) * g.points**2 / 2.0)
        kgrid, big_g = fourier_sum(pre * psi.samples, g)
        dlam = b * kgrid.dx
        lam = Grid(g.n, dlam, -(g.n // 2) * dlam).points
        return (np.exp(-1j * np.pi / 4.0) * np.exp(1j * kappa * lam**2) * big_g
                / np.sqrt(2.0 * np.pi * b))
    kgrid, tilde = fourier_sum(psi.samples, g)
    pre = np.exp(-1j * (b / a) * kgrid.points**2 / 2.0)
    s = inverse_fourier_sum(pre * (tilde / np.sqrt(2.0 * np.pi)), g)
    lam = Grid(g.n, a * g.dx, a * g.x_min).points
    return np.exp(-1j * mu * lam**2) * s / np.sqrt(2.0 * np.pi * a)


CHIRP_SIDES = [("interp", 0.0, True), ("interp", 0.3, True), ("interp", 0.9, False),
               ("interp", 1.0, False), ("rotation", 1e-3, False), ("rotation", 0.15, False),
               ("rotation", np.pi / 4, True), ("rotation", np.pi / 2, True)]


@pytest.mark.parametrize("family,value,position_side", CHIRP_SIDES)
def test_chirp_transforms_are_the_old_exponentials(factory_states, family, value, position_side):
    member = _FAMILIES[family]
    chirp = member.chirp(value)
    for name, psi in factory_states:
        assert bool(_chirp_resolved(chirp.a, chirp.b, psi.grid)) is position_side
        out = member.transform(psi, value).samples
        assert np.array_equal(_bits(out), _bits(_old_linear_transform(psi, chirp))), name


def test_exp_minus_i_is_the_old_exponential():
    rng = np.random.default_rng(2303)
    hi = np.concatenate([[0.0, -0.0, 0.0, -0.0, np.pi], rng.normal(scale=1e3, size=4096)])
    lo = np.concatenate([[0.0, 0.0, -0.0, -0.0, 1e-17], rng.normal(scale=1e-13, size=4096)])
    # hi = +0 (every ladder's k = 0 term) has an old imaginary part of -0
    assert np.array_equal(_bits(_exp_minus_i(hi, lo)),
                          _bits(np.exp(-1j * hi) * (1.0 - 1j * lo)))


def test_chirp_oracle_is_the_old_exponentials(g1024, factory_states):
    # at alpha = 0.3 this lam makes pi/4 - kappa lam^2 exactly +0, where the
    # old scale's imaginary part was -0 and _cis(-0.0)'s is +0
    zero_phase_lam = 1.4683306706413022
    chirp = _interp_chirp(0.3)
    assert np.pi / 4.0 - chirp.kappa * np.array([zero_phase_lam]) ** 2 == 0.0
    lambdas = np.array([-2.0, -0.0, 0.0, 0.5, zero_phase_lam, 3.75])
    for family, value in (("interp", 0.3), ("interp", 0.0), ("rotation", 0.8)):
        chirp = _FAMILIES[family].chirp(value)
        a, b = chirp.a, chirp.b
        for name, psi in factory_states:
            g = psi.grid
            pre = np.exp(1j * (a * g.points**2 / (2.0 * b))) * psi.samples
            scale = (np.exp(-1j * (np.pi / 4.0 - chirp.kappa * lambdas**2))
                     / np.sqrt(2.0 * np.pi * b))
            old = scale * _plane_wave_sums(g, pre, lambdas / b)
            out = quadrature_oracle(psi, family, lambdas, **{_FAMILIES[family].param: value})
            assert np.array_equal(_bits(out), _bits(old)), (family, name)
