import warnings

import numpy as np
import pytest

from qrep import (
    POSITION,
    GaussianSpec,
    Parity,
    Wavefunction,
    conjugation_defect,
    correlation_inverse,
    correlation_transform,
    dual_grid,
    from_momentum,
    gaussian,
    hermite,
    inner,
    interp_transform,
    make_grid,
    moments,
    norm,
    plane_wave,
    quadrature_oracle,
    rotation_transform,
    to_momentum,
    windowed_conjugation_defect,
)
from qrep.kernels import chirp_step_bound

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


def test_interp_limit_towards_fourier(g1024, unit_gaussian):
    errs = []
    for alpha in (1e-1, 1e-2, 1e-3):
        out = interp_transform(unit_gaussian, alpha)
        lam = out.grid.points
        target = np.exp(-1j * np.pi / 4.0) * np.pi**-0.25 * np.exp(-(lam**2) / 2.0)
        errs.append(np.abs(out.samples - target).max())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-2


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


def resolving_grid(g, rate):
    """Power-of-two refinement of ``g`` on which ``chirp_step_bound`` admits ``rate``."""
    n = g.n
    while True:
        fine = make_grid(n, g.length)
        try:
            chirp_step_bound(rate, fine)
            return fine
        except ValueError:
            n *= 2


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
    if family == "interp":
        transform, a, b, param = interp_transform, value, 1.0 - value, {"alpha": value}
    else:
        transform, a, b, param = rotation_transform, np.cos(value), np.sin(value), {"theta": value}
    fine = resolving_grid(g1024, a / b)
    fine_states = dict(
        [
            ("gaussian", gaussian(fine, GaussianSpec())),
            ("gaussian_chirped", gaussian(fine, GaussianSpec(s=1.0, c=2.0))),
            ("gaussian_moved", gaussian(fine, GaussianSpec(s=1.5, x0=1.0, p0=-0.5))),
        ]
        + [(f"hermite_{k}", hermite(fine, k)) for k in (1, 2, 3)]
    )
    sub = np.arange(0, g1024.n, 64)
    for name, psi in factory_states:
        out = transform(psi, value)
        assert out.grid.dx == pytest.approx(a * g1024.dx, rel=1e-15)  # the momentum side
        oracle = quadrature_oracle(fine_states[name], family, out.grid.points[sub], **param)
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
    spec = correlation_transform(unit_gaussian, u_window=CORR_WINDOW)
    assert np.abs(spec.odd).max() <= 1e-14
    assert np.abs(spec.even).max() > 0.1


def test_correlation_odd_state_has_zero_even_channel(g1024):
    spec = correlation_transform(hermite(g1024, 1), u_window=CORR_WINDOW)
    assert np.abs(spec.even).max() <= 1e-14


def test_correlation_parseval(g1024, unit_gaussian):
    spec = correlation_transform(unit_gaussian, u_window=CORR_WINDOW, n_gamma=2048)
    assert abs(spec.channel_power() - (1.0 - spec.tail_mass)) <= 1e-6
    assert spec.tail_mass < 1e-6


def test_correlation_mean_from_spectrum(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.0, c=2.0))
    spec = correlation_transform(psi, u_window=(-28.0, float(np.log(18.0))), n_gamma=4096)
    dg = spec.gamma_grid.dx
    mean_c = float(
        np.sum(spec.gamma_grid.points * (np.abs(spec.even) ** 2 + np.abs(spec.odd) ** 2)) * dg
    )
    assert abs(mean_c - moments(psi).mean_c) < 1e-5


def test_correlation_oracle_agreement(g1024, factory_states):
    for name, psi in [factory_states[0], factory_states[2], factory_states[3]]:
        spec = correlation_transform(psi, u_window=CORR_WINDOW)
        sub = np.arange(0, spec.gamma_grid.n, 64)
        gams = spec.gamma_grid.points[sub]
        for channel, values in (("even", spec.even), ("odd", spec.odd)):
            oracle = quadrature_oracle(psi, f"correlation_{channel}", gams, u_window=CORR_WINDOW)
            assert np.abs(values[sub] - oracle).max() < 1e-5, (name, channel)


def test_correlation_roundtrip(g1024, unit_gaussian):
    spec = correlation_transform(unit_gaussian, u_window=CORR_WINDOW)
    rec = correlation_inverse(spec, g1024)
    x = g1024.points
    window = (np.abs(x) >= 4 * g1024.dx) & (np.abs(x) <= 10.0)
    assert np.abs(rec.samples - unit_gaussian.samples)[window].max() <= 1e-5
    n_rec = np.sqrt(np.sum(np.abs(rec.samples[window]) ** 2) * g1024.dx)
    n_in = np.sqrt(np.sum(np.abs(unit_gaussian.samples[window]) ** 2) * g1024.dx)
    assert abs(n_rec - n_in) <= 1e-5


def test_correlation_roundtrip_asymmetric_state(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.5, x0=1.0, p0=-0.5))
    spec = correlation_transform(psi, u_window=CORR_WINDOW)
    rec = correlation_inverse(spec, g1024)
    x = g1024.points
    window = (np.abs(x) >= 4 * g1024.dx) & (np.abs(x) <= 10.0)
    assert np.abs(rec.samples - psi.samples)[window].max() <= 1e-5


def test_correlation_inverse_zero_spectrum(g1024, unit_gaussian):
    spec = correlation_transform(unit_gaussian, u_window=CORR_WINDOW)
    zeroed = type(spec)(
        gamma_grid=spec.gamma_grid,
        even=np.zeros_like(spec.even),
        odd=np.zeros_like(spec.odd),
        tail_mass=spec.tail_mass,
        u_grid=spec.u_grid,
    )
    rec = correlation_inverse(zeroed, g1024)
    assert np.abs(rec.samples).max() == 0.0


def test_correlation_inverse_rejects_large_tail(g1024, unit_gaussian):
    # default window starts at 4*dx, which leaves most of the near-origin
    # probability of a unit Gaussian unseen
    spec = correlation_transform(unit_gaussian)
    assert spec.tail_mass > 1e-6
    with pytest.raises(ValueError, match="inverse_tail_mass"):
        correlation_inverse(spec, g1024)


def test_correlation_window_guard(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="log_window_support"):
        correlation_transform(unit_gaussian, u_window=(-5.0, np.log(25.0)))


def test_correlation_rejects_bad_n_gamma(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="power_of_two"):
        correlation_transform(unit_gaussian, u_window=CORR_WINDOW, n_gamma=1000)


# --- conjugate-transform property and oracle misc ------------------------------


def test_conjugation_rule_operator_level(g1024, factory_states):
    for name, psi in factory_states:
        assert conjugation_defect(psi) < 1e-8, name


def test_conjugation_windowed_diagnostic(g1024):
    # window-limited diagnostic; the odd channel's fitted phase is close
    # to -i, a constant the conjugate pairing leaves free
    defect, fitted_phase = windowed_conjugation_defect(g1024, 0.0, Parity.ODD)
    assert defect < 0.05
    assert abs(fitted_phase - (-1j)) < 0.05
    defect_even, _ = windowed_conjugation_defect(g1024, 0.0, Parity.EVEN)
    assert defect_even < 0.2


def test_oracle_rejects_unknown_family(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="oracle_family"):
        quadrature_oracle(unit_gaussian, "nosuch", np.array([0.0]))


def test_oracle_requires_parameters(g1024, unit_gaussian):
    with pytest.raises(ValueError, match="oracle_family"):
        quadrature_oracle(unit_gaussian, "interp", np.array([0.0]))


def test_oracle_rejects_unresolved_chirp():
    # cot(0.15) = 6.6 steps the kernel chirp by 5.2 rad at the edge of this
    # lattice, where the rectangle sum aliases
    psi = hermite(make_grid(1024, 40.0), 2)
    with pytest.raises(ValueError, match="nyquist_chirp_step"):
        quadrature_oracle(psi, "rotation", np.array([0.0]), theta=0.15)


def test_correlation_default_window_stays_inside_small_grid():
    # on n = 16, ln(0.45 L) would reach past the last positive sample x_max
    g = make_grid(16, 16.0)
    psi = Wavefunction(g, np.exp(-g.points**2 / 2.0), POSITION)
    spec = correlation_transform(psi)
    assert np.exp(spec.u_grid.points[-1]) <= g.x_max
    assert np.all(np.isfinite(spec.even)) and np.all(np.isfinite(spec.odd))
