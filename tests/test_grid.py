import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from qrep import (
    GaussianSpec,
    POSITION,
    Wavefunction,
    Grid,
    dual_grid,
    gaussian,
    hermite,
    inner,
    log_grid,
    log_resample,
    make_grid,
    norm,
)
from qrep.grid import cubic_interpolate, fourier_sum, inverse_fourier_sum


def test_make_grid_basic():
    g = make_grid(8, 8.0)
    assert g.dx == 1.0
    assert g.x_min == -4.0
    assert np.array_equal(g.points, np.arange(-4.0, 4.0))


def test_make_grid_dual_spacing():
    g = make_grid(1024, 40.0)
    assert g.dx == 0.0390625
    assert dual_grid(g).dx == pytest.approx(2 * np.pi / 40.0, abs=0, rel=1e-15)


@pytest.mark.parametrize("n", [6, 0, 7, 4, 1000])
def test_make_grid_rejects_bad_n(n):
    with pytest.raises(ValueError, match="power_of_two"):
        make_grid(n, 8.0)


@pytest.mark.parametrize("length", [0.0, -1.0, np.inf])
def test_make_grid_rejects_bad_length(length):
    with pytest.raises(ValueError, match="length"):
        make_grid(8, length)


def test_dual_grid_values():
    g = make_grid(8, 8.0)
    d = dual_grid(g)
    assert d.dx == pytest.approx(np.pi / 4)
    assert d.x_min == pytest.approx(-np.pi)
    assert d.points[-1] < np.pi / g.dx  # half-open monotone interval


@pytest.mark.parametrize("n,length", [(8, 8.0), (1024, 40.0), (4096, 12.5), (1024, 37.3)])
def test_dual_grid_involution_bit_exact(n, length):
    g = make_grid(n, length)
    gg = dual_grid(dual_grid(g))
    assert gg.dx == g.dx and gg.x_min == g.x_min and gg.n == g.n


def test_inner_normalized_gaussian(g1024):
    psi = gaussian(g1024, GaussianSpec())
    assert inner(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_inner_hermite_orthogonality_vs_quadrature(g1024):
    # independent check: direct adaptive quadrature of the closed forms
    f = lambda x: (np.pi**-0.25) ** 2 * np.sqrt(2.0) * x * np.exp(-(x**2))
    oracle, _ = quad(f, -20, 20)
    grid_val = inner(hermite(g1024, 0), hermite(g1024, 1))
    assert abs(oracle) < 1e-12
    assert abs(grid_val) < 1e-12


def test_inner_conjugate_symmetry(g1024):
    a = gaussian(g1024, GaussianSpec(s=1.0, c=1.0))
    b = hermite(g1024, 2)
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-15)


def test_inner_positive_definite(g1024):
    a = gaussian(g1024, GaussianSpec(x0=0.5))
    assert inner(a, a).real > 0


def test_inner_rejects_mismatched_grids():
    a = gaussian(make_grid(1024, 40.0), GaussianSpec())
    b = gaussian(make_grid(512, 40.0), GaussianSpec())
    with pytest.raises(ValueError, match="grid_mismatch"):
        inner(a, b)


def test_inner_rejects_mismatched_labels(g1024):
    from qrep import MOMENTUM

    psi = gaussian(g1024, GaussianSpec())
    relabelled = Wavefunction(g1024, psi.samples, MOMENTUM)
    with pytest.raises(ValueError, match="label_mismatch"):
        inner(psi, relabelled)


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(7))
def test_hermite_pair_orthonormality(g1024, m, n):
    val = inner(hermite(g1024, m), hermite(g1024, n))
    assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


def test_log_resample_even_state_side_independent(g1024):
    psi = gaussian(g1024, GaussianSpec())
    u = log_grid(512, -10.0, np.log(10.0))
    h_plus = log_resample(psi, u, +1)
    h_minus = log_resample(psi, u, -1)
    assert np.abs(h_plus - h_minus).max() < 1e-12


def test_log_resample_constant_profile(g1024):
    const = Wavefunction(g1024, np.full(g1024.n, 0.3 + 0.0j), POSITION)
    u = log_grid(256, -8.0, np.log(8.0))
    h = log_resample(const, u, +1)
    expected = np.sqrt(2.0) * 0.3 * np.exp(u.points / 2.0)
    assert np.abs(h - expected).max() < 1e-12


def test_log_resample_norm_preservation(g1024):
    # change of variables oracle: int |psi|^2 over the covered range,
    # computed by adaptive quadrature of the closed form
    psi = gaussian(g1024, GaussianSpec())
    u = log_grid(2048, -14.0, np.log(18.0))
    h = log_resample(psi, u, +1)
    lhs = np.sum(np.abs(h) ** 2) * u.dx
    density = lambda x: (np.pi**-0.5) * np.exp(-(x**2))
    rhs = 2 * quad(density, np.exp(-14.0), 18.0, limit=400)[0]
    assert abs(lhs - rhs) < 1e-6


def test_log_resample_rejects_window_beyond_support(g1024):
    psi = gaussian(g1024, GaussianSpec())
    u = log_grid(256, -5.0, np.log(30.0))
    with pytest.raises(ValueError, match="log_window_support"):
        log_resample(psi, u, +1)


def _window_ending_at(x_end, n=256, u_min=-5.0):
    du = (np.log(x_end) - u_min) / (n - 1)
    return Grid(n, du, u_min)


@pytest.mark.parametrize("x_end", [20.0, 19.99])
def test_log_resample_rejects_window_past_last_sample_on_plus_side(g1024, x_end):
    # On side +1 the last sample is x_max = L/2 - dx = 19.9609375, so a window
    # ending in (x_max, L/2] would be read by extrapolation.
    psi = gaussian(g1024, GaussianSpec())
    u = _window_ending_at(x_end)
    assert g1024.x_max < np.exp(u.points[-1])
    with pytest.raises(ValueError, match="log_window_support"):
        log_resample(psi, u, +1)


def test_log_resample_minus_side_reaches_x_min(g1024):
    psi = gaussian(g1024, GaussianSpec())
    u = _window_ending_at(19.99)
    h_minus = log_resample(psi, u, -1)
    assert np.all(np.isfinite(h_minus))


def _spline_queries(g, rng):
    # every knot, random interior points, and up to one cell past each end
    x = g.points
    inside = rng.uniform(x[0], x[-1], size=4096)
    outside = np.concatenate(
        [x[0] - g.dx * rng.uniform(0, 1, 32), x[-1] + g.dx * rng.uniform(0, 1, 32)]
    )
    return np.concatenate([x, inside, outside, [x[0] - g.dx, x[-1] + g.dx]])


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("n", [8, 16, 1024, 2**18])
def test_cubic_interpolate_matches_scipy_not_a_knot(n, complex_data):
    g = make_grid(n, 40.0)
    rng = np.random.default_rng(n + complex_data)
    y = rng.normal(size=n)
    if complex_data:
        y = y + 1j * rng.normal(size=n)
    t = _spline_queries(g, rng)
    got = cubic_interpolate(g, y, t)
    ref = CubicSpline(g.points, y)(t)
    assert got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    at_knots = cubic_interpolate(g, y, g.points)
    assert np.abs(at_knots - y).max() <= 1e-14 * np.abs(y).max()


def test_cubic_interpolate_reproduces_knots_on_offset_grid():
    # knot offsets are taken from the computed knots, so non-dyadic spacings
    # and far-off origins reproduce the samples too
    g = Grid(2**14, 0.013, -20.123)
    y = np.random.default_rng(5).normal(size=g.n)
    assert np.abs(cubic_interpolate(g, y, g.points) - y).max() <= 1e-14 * np.abs(y).max()


def test_cubic_interpolate_is_exact_on_cubics():
    # not-a-knot reproduces any cubic, including extrapolation past both ends
    g = Grid(8, 0.5, -1.75)
    poly = lambda x: 0.3 - 1.2 * x + 0.7 * x**2 - 0.25j * x**3
    t = np.linspace(g.x_min - g.dx, g.x_max + g.dx, 101)
    assert np.abs(cubic_interpolate(g, poly(g.points), t) - poly(t)).max() < 1e-13


def test_cubic_interpolate_rejects_wrong_sample_count():
    with pytest.raises(ValueError, match="sample_count"):
        cubic_interpolate(make_grid(8, 8.0), np.zeros(7), np.zeros(3))


def test_wavefunction_rejects_nonfinite(g1024):
    bad = np.zeros(g1024.n, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="sample_finite"):
        Wavefunction(g1024, bad, POSITION)


def test_wavefunction_samples_frozen(g1024):
    psi = gaussian(g1024, GaussianSpec())
    with pytest.raises(ValueError):
        psi.samples[0] = 1.0


def test_factory_norms(factory_states):
    for name, psi in factory_states:
        assert abs(norm(psi) - 1.0) < 1e-9, name


def test_fourier_sum_matches_direct_sum():
    g = make_grid(64, 11.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    kgrid, fast = fourier_sum(f, g)
    x = g.points
    direct = np.array([np.sum(f * np.exp(-1j * k * x)) * g.dx for k in kgrid.points])
    assert np.abs(fast - direct).max() < 1e-12


def test_inverse_fourier_sum_matches_direct_sum_offset_grid():
    u = log_grid(64, -3.0, 2.0)
    kgrid = dual_grid(u)
    rng = np.random.default_rng(11)
    F = rng.normal(size=64) + 1j * rng.normal(size=64)
    fast = inverse_fourier_sum(F, kgrid, u)
    direct = np.array(
        [np.sum(F * np.exp(1j * kgrid.points * uj)) * kgrid.dx for uj in u.points]
    )
    assert np.abs(fast - direct).max() < 1e-11
