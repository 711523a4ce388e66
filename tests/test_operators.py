import numpy as np
import pytest

from qrep import (
    POSITION,
    GaussianSpec,
    Parity,
    Wavefunction,
    apply_c,
    apply_p,
    apply_s,
    apply_s_theta,
    apply_x,
    correlation_kernel,
    dual_grid,
    gaussian,
    hermite,
    inner,
    interp_kernel,
    make_grid,
    moments,
    parity_flip,
    plane_wave,
    to_momentum,
)
from qrep.grid import require_contained
from qrep.verify import _fd_derivative, _windowed_eigen_residual


def gaussian_moment_oracle(s, x0, p0, c):
    """Closed-form moments of the chirped packet (Gaussian integrals)."""
    var_x = s**2 / 2.0
    var_p = (1.0 + c**2 * s**4) / (2.0 * s**2)
    mean_c = c * s**2 / 2.0 + x0 * p0
    return var_x, var_p, mean_c


def test_apply_x_parity_flip(g1024):
    psi = gaussian(g1024, GaussianSpec())  # even
    out = apply_x(psi)
    flipped = parity_flip(out)
    assert np.abs(flipped.samples + out.samples).max() < 1e-12


def test_apply_x_mean(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.0, x0=1.5))
    assert inner(psi, apply_x(psi)).real == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_apply_x_hermite_mean_zero(g1024, k):
    h = hermite(g1024, k)
    assert abs(inner(h, apply_x(h))) < 1e-10


def _one_sample(g, j, value):
    """``value`` at sample ``j`` and ``-0`` at every other."""
    samples = np.full(g.n, -0.0, dtype=complex)
    samples[j] = value
    return Wavefunction(g, samples, POSITION)


_WIDE = make_grid(4096, 640.0)
APPLY_X_SUPPORTS = {
    "interior": lambda: gaussian(_WIDE, GaussianSpec(s=0.7, x0=-5.0, p0=1.2, c=0.3)),
    "left_end": lambda: gaussian(_WIDE, GaussianSpec(s=1.0, x0=_WIDE.x_min, p0=0.4)),
    "single": lambda: _one_sample(_WIDE, 1234, -0.5 + 0.25j),
    "whole": lambda: gaussian(make_grid(1024, 40.0), GaussianSpec(s=1.3, x0=0.7, p0=-0.3, c=0.5)),
    # x = 0 at sample n/2, so x psi is the all-zero state
    "single_at_origin": lambda: _one_sample(_WIDE, _WIDE.n // 2, 2.0 - 1.0j),
    "zero": lambda: Wavefunction(_WIDE, np.full(_WIDE.n, -0.0), POSITION),
}


@pytest.mark.parametrize("case", APPLY_X_SUPPORTS)
def test_apply_x_on_the_support_is_the_whole_grid_product(case, whole_grid):
    psi = APPLY_X_SUPPORTS[case]()
    out = apply_x(psi)
    whole_grid.assert_support_bits(out.samples, whole_grid.apply_x(psi), out._support)
    assert Wavefunction(out.grid, out.samples, POSITION)._support == out._support
    if case not in ("single_at_origin", "zero"):
        assert out._support == psi._support


def test_apply_p_mean(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.0, p0=0.7))
    assert inner(psi, apply_p(psi)).real == pytest.approx(0.7, abs=1e-9)


def test_apply_p_plane_wave_eigenrelation():
    # non-decaying kernel, so the residual is checked with the independent
    # finite-difference derivative on the interior
    g = make_grid(8192, 40.0)
    dp = dual_grid(g).dx
    p = round(1.0 / dp) * dp
    w = plane_wave(g, p)
    window = np.abs(g.points) <= 10.0
    res = _windowed_eigen_residual(w, p, window, 0.0, 1.0, 0.0)
    assert res < 1e-9


def test_apply_p_containment_guard(g1024):
    w = plane_wave(g1024, 1.0)
    with pytest.raises(ValueError, match="boundary_decay"):
        apply_p(w)


def test_commutator_xp(factory_states):
    for name, psi in factory_states:
        comm = inner(psi, apply_x(apply_p(psi))) - inner(psi, apply_p(apply_x(psi)))
        assert abs(comm - 1j) < 1e-8, name


def test_apply_s_endpoints(g1024, unit_gaussian):
    psi = unit_gaussian
    assert np.abs(apply_s(psi, 1.0).samples - apply_x(psi).samples).max() == 0.0
    assert np.abs(apply_s(psi, 0.0).samples - apply_p(psi).samples).max() == 0.0


def test_apply_s_expectation_linearity(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.0, x0=1.0, p0=1.0))
    for alpha in (0.25, 0.5, 0.75):
        val = inner(psi, apply_s(psi, alpha)).real
        assert val == pytest.approx(1.0, abs=1e-8), alpha


def test_interp_kernel_eigen_residual():
    g = make_grid(16384, 20.0)
    window = np.abs(g.points) <= 5.0
    k = interp_kernel(g, 0.5, 0.5)
    res = _windowed_eigen_residual(k, 0.5, window, 0.5, 0.5, 0.0)
    assert res <= 1e-6


def test_apply_s_theta_is_momentum_at_right_angle(g1024, unit_gaussian):
    out = apply_s_theta(unit_gaussian, np.pi / 2)
    ref = apply_p(unit_gaussian)
    assert np.abs(out.samples - ref.samples).max() < 1e-15


def test_rotation_commutator_pair(g1024, unit_gaussian):
    psi = unit_gaussian
    t1, t2 = np.pi / 6, np.pi / 3
    comm = inner(psi, apply_s_theta(apply_s_theta(psi, t2), t1)) - inner(
        psi, apply_s_theta(apply_s_theta(psi, t1), t2)
    )
    assert abs(comm - 0.5j) < 1e-7


def test_rotation_commutator_canonical_pair(g1024, unit_gaussian):
    psi = unit_gaussian
    t1 = np.pi / 5
    t2 = t1 + np.pi / 2
    comm = inner(psi, apply_s_theta(apply_s_theta(psi, t2), t1)) - inner(
        psi, apply_s_theta(apply_s_theta(psi, t1), t2)
    )
    assert abs(comm - 1j) < 1e-7


def test_apply_c_mean_on_chirped(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.0, c=2.0))
    assert inner(psi, apply_c(psi)).real == pytest.approx(1.0, abs=1e-8)


def test_apply_c_guards_only_the_state(g1024):
    # the state's edge, 7.4e-14, passes boundary_decay; x psi's, 1.48e-12,
    # would not, and x psi is no state
    psi = gaussian(g1024, GaussianSpec(s=2.6))
    x, f = g1024.points, psi.samples
    k = 2.0 * np.pi * np.fft.fftfreq(g1024.n, g1024.dx)
    ref = 0.5 * (x * np.fft.ifft(k * np.fft.fft(f)) + np.fft.ifft(k * np.fft.fft(x * f)))
    assert np.abs(apply_c(psi).samples - ref).max() < 1e-12


def test_apply_c_commutes_with_parity(g1024):
    psi = gaussian(g1024, GaussianSpec(s=1.2, x0=0.7, p0=0.3, c=1.0))
    lhs = parity_flip(apply_c(psi))
    rhs = apply_c(parity_flip(psi))
    assert np.abs(lhs.samples - rhs.samples).max() < 1e-10


@pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0])
@pytest.mark.parametrize("par", [Parity.EVEN, Parity.ODD])
def test_correlation_kernel_eigen_residual(gamma, par):
    g = make_grid(8192, 40.0)
    k = correlation_kernel(g, gamma, par)
    ax = np.abs(g.points)
    window = (ax >= 1.0) & (ax <= 8.0)
    res = _windowed_eigen_residual(k, gamma, window, 0.0, 0.0, 1.0)
    assert res <= 1e-6


def test_correlation_kernel_pointwise_residual():
    # pointwise version on the positive axis for one eigenvalue
    g = make_grid(8192, 40.0)
    k = correlation_kernel(g, 1.0, Parity.EVEN)
    # on the interior, where the derivative is defined
    x, f = g.points[2:-2], k.samples[2:-2]
    deriv = _fd_derivative(k.samples, g.dx)
    resid = -1j * (x * deriv + 0.5 * f) - 1.0 * f
    mask = (x >= 1.0) & (x <= 8.0)
    assert np.abs(resid[mask]).max() <= 1e-6


@pytest.mark.parametrize(
    "spec,expected",
    [
        (GaussianSpec(), (0.25, 0.25)),
        (GaussianSpec(c=2.0), (1.25, 1.25)),
        (GaussianSpec(s=1.5, x0=1.0, p0=-0.5, c=-1.0), None),
    ],
)
def test_moments_gaussian_saturation(g1024, spec, expected):
    m = moments(gaussian(g1024, spec))
    var_x, var_p, mean_c = gaussian_moment_oracle(spec.s, spec.x0, spec.p0, spec.c)
    assert m.var_x == pytest.approx(var_x, abs=1e-9)
    assert m.var_p == pytest.approx(var_p, abs=1e-9)
    assert m.mean_c == pytest.approx(mean_c, abs=1e-9)
    assert abs(m.lhs - m.rhs) < 1e-8  # every chirped packet saturates
    if expected is not None:
        assert m.lhs == pytest.approx(expected[0], abs=1e-8)
        assert m.rhs == pytest.approx(expected[1], abs=1e-8)


def test_moments_hermite_one(g1024):
    m = moments(hermite(g1024, 1))
    assert m.var_x == pytest.approx(1.5, abs=1e-9)
    assert m.var_p == pytest.approx(1.5, abs=1e-9)
    assert m.corr_term == pytest.approx(0.0, abs=1e-9)
    assert m.lhs == pytest.approx(2.25, abs=1e-8)
    assert m.rhs == pytest.approx(0.25, abs=1e-9)
    assert m.lhs >= m.rhs


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_moments_hermite_oscillator_oracle(g1024, k):
    # oscillator moment oracle: <x^2> = <p^2> = k + 1/2
    m = moments(hermite(g1024, k))
    assert m.var_x == pytest.approx(k + 0.5, abs=1e-9)
    assert m.var_p == pytest.approx(k + 0.5, abs=1e-9)
    assert m.lhs - m.rhs >= 1.0


def test_moments_rejects_unresolved(g1024):
    # a plane wave is neither contained nor resolved
    with pytest.raises(ValueError, match="boundary_decay"):
        moments(plane_wave(g1024, 1.0))


@pytest.mark.parametrize("c", [5.0, 15.0])
@pytest.mark.parametrize("op", [to_momentum, apply_p, moments])
def test_momentum_edge_guard(op, c):
    # contained in position, but the chirp carries momentum past pi/dx = 20.1:
    # |phi| at the momentum edge is 2.8e-4 for c = 5 and 0.16 for c = 15
    psi = gaussian(make_grid(256, 40.0), GaussianSpec(s=1.0, c=c))
    require_contained(psi)
    with pytest.raises(ValueError, match="^momentum_decay:"):
        op(psi)


def test_hermiticity_cross_expectations(g1024):
    a = gaussian(g1024, GaussianSpec(s=1.0, c=1.0))
    b = hermite(g1024, 2)
    ops = [
        apply_x,
        apply_p,
        lambda w: apply_s(w, 0.3),
        lambda w: apply_s_theta(w, np.pi / 3),
        apply_c,
    ]
    for op in ops:
        assert abs(inner(a, op(b)) - np.conj(inner(b, op(a)))) < 1e-9


def test_fd_derivative_matches_analytic():
    g = make_grid(4096, 20.0)
    x = g.points
    f = np.exp(-(x**2) / 2.0) * np.exp(0.8j * x)
    exact = (-x + 0.8j) * f
    d = _fd_derivative(f, g.dx)
    assert d.shape == (g.n - 4,)
    assert np.abs(d - exact[2:-2]).max() < 1e-9


# --- the eigen-residual is the whole-grid residual, masked ------------------


def _residual_cases():
    g_wide, g_fine = make_grid(8192, 40.0), make_grid(16384, 20.0)
    dp = dual_grid(g_wide).dx
    p = round(0.5 / dp) * dp
    wave = (plane_wave(g_wide, p), p, (0.0, 1.0, 0.0))
    chirp = (interp_kernel(g_fine, 0.75, 2.0), 2.0, (0.75, 0.25, 0.0))
    corr = (correlation_kernel(g_wide, -2.0, Parity.ODD), -2.0, (0.0, 0.0, 1.0))
    n = g_wide.n
    head, tail = np.arange(n) < 40, np.arange(n) >= n - 40
    ax = np.abs(g_wide.points)
    return [
        pytest.param(wave, ax <= g_wide.length / 4.0, id="quarter"),
        pytest.param(chirp, np.abs(g_fine.points) <= g_fine.length / 4.0, id="quarter_fine"),
        pytest.param(corr, (ax >= 1.0) & (ax <= 8.0), id="annulus"),
        pytest.param(wave, head, id="first_sample"),
        pytest.param(wave, tail, id="last_sample"),
        pytest.param(wave, head | tail, id="both_ends"),
        pytest.param(corr, np.ones(n, dtype=bool), id="whole_lattice"),
        pytest.param(chirp, None, id="no_window"),
        pytest.param(wave, np.arange(n) == 2, id="third_sample"),
        pytest.param(wave, np.arange(n) == n - 3, id="third_to_last_sample"),
    ]


@pytest.mark.parametrize("case,window", _residual_cases())
def test_windowed_residual_is_the_whole_grid_residual_bit_for_bit(case, window,
                                                                   whole_grid_residual):
    kernel, eigenvalue, (a, b, c) = case
    mask = np.ones(kernel.grid.n, dtype=bool) if window is None else window
    ref = whole_grid_residual(kernel, eigenvalue, mask, a, b, c)
    got = _windowed_eigen_residual(kernel, eigenvalue, window, a, b, c)
    assert np.float64(got).view(np.uint64) == np.float64(ref).view(np.uint64)


@pytest.mark.parametrize("edge", ["none", "first_two", "last_two"])
def test_windowed_residual_refuses_a_window_with_no_derivative(edge):
    # the two samples at each lattice end have no finite-difference derivative
    g = make_grid(64, 16.0)
    window = np.zeros(g.n, dtype=bool)
    window[{"none": slice(0), "first_two": slice(0, 2), "last_two": slice(-2, None)}[edge]] = True
    with pytest.raises(ValueError, match="eigen_window_empty"):
        _windowed_eigen_residual(plane_wave(g, 0.5), 0.5, window, 0.0, 1.0, 0.0)
