import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import qrep
from qrep import (
    GaussianSpec,
    correlation_inverse,
    correlation_transform,
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
from qrep.grid import (
    _FIT_MARGIN,
    MOMENTUM,
    _cis,
    _phase_table,
    _read_radius,
    _require_log_support,
    _spline_coeffs,
    _spline_eval,
    _spline_slopes,
    _spline_window,
    cubic_interpolate,
    fourier_sum,
    inverse_fourier_sum,
    require_label,
)
from qrep.operators import parity_flip
from qrep.transforms import _default_u_window
from qrep.verify import _factory_states


def test_require_label_names_label_and_caller(g1024):
    psi = gaussian(g1024, GaussianSpec())
    require_label(psi, POSITION, "caller")
    with pytest.raises(ValueError) as exc:
        require_label(psi, MOMENTUM, "caller")
    assert str(exc.value) == "momentum_label: caller expects momentum-representation samples"


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


@pytest.mark.parametrize("length", [40.0, 40.1, 640.0, 1e-3, 3.3e7])
def test_points_are_the_integer_arange_formula_bit_for_bit(length):
    # an integer below 2^53 converts to a float exactly, so the float arange
    # of Grid.points gives the integer arange's points to the last bit
    grids = [make_grid(2**k, length) for k in range(3, 19)]
    grids.append(Grid(1024, length / 1024, -0.37 * length + length / 3072))
    for g in grids:
        old = g.x_min + g.dx * np.arange(g.n)
        assert np.array_equal(g.points.view(np.uint64), old.view(np.uint64)), g


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
    # an even state reads the same on both half-lines, so its odd channel vanishes
    psi = gaussian(g1024, GaussianSpec())
    u = log_grid(512, -10.0, np.log(10.0))
    h_even, h_odd = log_resample(psi, u)
    assert np.abs(h_odd).max() < 1e-12
    assert np.abs(h_even).max() > 0.1


def test_log_resample_constant_profile(g1024):
    const = Wavefunction(g1024, np.full(g1024.n, 0.3 + 0.0j), POSITION)
    u = log_grid(256, -8.0, np.log(8.0))
    h_even, h_odd = log_resample(const, u)
    expected = np.sqrt(2.0) * 0.3 * np.exp(u.points / 2.0)
    assert np.abs(h_even - expected).max() < 1e-12
    assert np.abs(h_odd).max() < 1e-12


def test_log_resample_norm_preservation(g1024):
    # change of variables oracle: int |psi|^2 over the covered range,
    # computed by adaptive quadrature of the closed form
    psi = gaussian(g1024, GaussianSpec())
    u = log_grid(2048, -14.0, np.log(18.0))
    h_even, h_odd = log_resample(psi, u)
    lhs = np.sum(np.abs(h_even) ** 2 + np.abs(h_odd) ** 2) * u.dx
    density = lambda x: (np.pi**-0.5) * np.exp(-(x**2))
    rhs = 2 * quad(density, np.exp(-14.0), 18.0, limit=400)[0]
    assert abs(lhs - rhs) < 1e-6


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_log_resample_matches_parity_parts(n):
    # the channels equal an explicit even/odd split of psi, each read on +x;
    # errors are relative to the larger channel peak, since one channel of a
    # definite-parity state is zero
    g = make_grid(n, 40.0)
    u = log_grid(2 * n, np.log(4.0 * g.dx), np.log(0.45 * g.length))
    r = np.exp(u.points)
    for name, psi in _factory_states(g):
        even = 0.5 * (psi.samples + parity_flip(psi).samples)
        refs = [
            np.sqrt(2.0) * np.exp(u.points / 2.0) * cubic_interpolate(g, part, r)
            for part in (even, psi.samples - even)
        ]
        peak = max(np.abs(ref).max() for ref in refs)
        for h, ref in zip(log_resample(psi, u), refs):
            assert np.abs(h - ref).max() <= 1e-15 * peak, name


def test_log_resample_rejects_window_beyond_support(g1024):
    psi = gaussian(g1024, GaussianSpec())
    u = log_grid(256, -5.0, np.log(30.0))
    with pytest.raises(ValueError, match="log_window_support"):
        log_resample(psi, u)


def _window_ending_at(x_end, n=256, u_min=-5.0):
    du = (np.log(x_end) - u_min) / (n - 1)
    return Grid(n, du, u_min)


@pytest.mark.parametrize("x_end", [20.0, 19.99])
def test_log_resample_rejects_window_past_last_sample_on_plus_side(g1024, x_end):
    # The last sample of +x is x_max = L/2 - dx = 19.9609375, so a window
    # ending in (x_max, L/2] would be read by extrapolation.
    psi = gaussian(g1024, GaussianSpec())
    u = _window_ending_at(x_end)
    assert g1024.x_max < np.exp(u.points[-1])
    with pytest.raises(ValueError, match="log_window_support"):
        log_resample(psi, u)


def test_log_resample_rejects_window_past_last_sample_on_minus_side():
    # On a grid shifted right, -x_min < e^u_max <= x_max: +x alone would be
    # covered, but -x would be read by extrapolation.
    g = Grid(1024, 40.0 / 1024, -15.0)
    psi = Wavefunction(g, np.exp(-(g.points**2)), POSITION)
    u = _window_ending_at(18.0)
    assert -g.x_min < np.exp(u.points[-1]) <= g.x_max
    with pytest.raises(ValueError, match="log_window_support"):
        log_resample(psi, u)


def _whole_lattice_read(g, y, t):
    # the spline fitted on every knot, read at the 1-D queries t
    out = np.empty(t.shape, dtype=np.result_type(y.dtype, float))
    _spline_eval(g, _spline_coeffs(y), t, out, 0)
    return out


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [64, 2048])
def test_cubic_interpolate_refuses_nonfinite_queries(n, bad):
    # refused before any query is cast to a cell index, which would warn
    g = make_grid(n, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^spline_query_finite:"):
            cubic_interpolate(g, np.ones(n), [0.1, bad, 0.2])


@pytest.mark.parametrize("far", [1e20, -1e20, 2.0**62 * 0.125 - 4.0])
def test_cubic_interpolate_refuses_queries_past_the_index_range(far):
    # the cell offset of such a query does not fit in intp: an unchecked cast
    # warns and reads 4.5e47 at 1e20.  The last case sits at the 2^62-cell edge.
    g = make_grid(64, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^spline_query_range:"):
            cubic_interpolate(g, np.arange(64.0), [0.1, far])


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize(
    "n,span,windowed",
    [
        (2**14, (-0.01, 0.2), True),  # left end, with extrapolated queries
        (2**14, (0.75, 1.01), True),  # right end, with extrapolated queries
        (2**14, (0.4, 0.6), True),  # interior
        (2**14, (0.5, 0.501), False),  # too few knots for a window
        (2**14, (0.0, 0.003), False),  # too few: z^(w-3) would read the cut end
        (512, (0.4, 0.6), False),  # n < 569
    ],
)
def test_windowed_spline_fit_is_bit_identical_to_whole_lattice_fit(n, span, windowed, complex_data):
    g = make_grid(n, 40.0)
    rng = np.random.default_rng(n + complex_data)
    y = rng.normal(size=n)
    if complex_data:
        y = y + 1j * rng.normal(size=n)
    y[:100] = 0.0  # a decayed end, as a state's
    a, b = (g.x_min + f * (g.x_max - g.x_min) for f in span)
    x = g.points
    t = np.concatenate([rng.uniform(a, b, 2000), [a, b], x[(x >= a) & (x <= b)]])
    lo, hi = _spline_window(g, t.min(), t.max())
    assert ((lo, hi) != (0, g.n)) == windowed
    whole = _whole_lattice_read(g, y, t)
    assert np.array_equal(cubic_interpolate(g, y, t).view(np.uint64), whole.view(np.uint64))


def test_windowed_fit_cut_ends_stay_clear_of_the_queried_cells():
    # The data vanish on the queried cells and for 34 knots beyond them, so
    # the whole-lattice spline is exactly 0 there; the window's cut ends lie
    # in the nonzero data, and the not-a-knot part they add must not reach.
    g = make_grid(2**14, 40.0)
    y = np.random.default_rng(3).normal(size=g.n)
    k0, k1 = 5000, 6000
    y[k0 - 34 : k1 + 35] = 0.0
    t = g.points[k0:k1] + 0.5 * g.dx
    lo, hi = _spline_window(g, t.min(), t.max())
    assert 0 < lo < k0 - 34 and k1 + 35 < hi < g.n
    whole = _whole_lattice_read(g, y, t)
    assert np.all(whole == 0.0)
    assert np.array_equal(cubic_interpolate(g, y, t).view(np.uint64), whole.view(np.uint64))


def _log_resample_cases():
    # (position grid, log lattice, whether some queries lie in the two cells
    # beside the origin knot, at e^u <= dx/4): the one generic read must
    # match the whole-lattice reference on the origin's cells as elsewhere
    n, u_18 = 4096, np.log(18.0)
    cases = [
        (make_grid(n, 40.0), log_grid(2 * n, -14.0, u_18), True),
        (make_grid(n, 40.0), log_grid(2 * n, -20.0, u_18), True),
        # offset by a third of a cell: no knot at the origin, generic reads only
        (Grid(n, 40.0 / n, -20.0 + 40.0 / (3 * n)), log_grid(2 * n, -14.0, u_18), False),
    ]
    # grids whose dx/4 is exactly a query e^u, and the float just below one,
    # so that a query sits on that bound
    u = log_grid(2 * n, -14.0, u_18)
    r = np.exp(u.points)
    e = r[np.searchsorted(r, 40.0 / n / 4.0)]
    for quarter in (e, np.nextafter(e, 0.0)):
        g = make_grid(n, n * 4.0 * quarter)
        assert 0.25 * g.dx == quarter
        cases.append((g, u, True))
    return cases


def test_log_resample_windowed_fit_is_bit_identical_to_whole_lattice_fit():
    # the reference: both reads of the whole-lattice fit, then the parity
    # parts and the weight, each as one expression
    for g, u, centre in _log_resample_cases():
        psi = gaussian(g, GaussianSpec(s=1.0, x0=0.3, c=0.5))
        r = np.exp(u.points)
        lo, hi = _spline_window(g, -r.max(), r.max())
        assert 0 < lo and hi < g.n
        assert (g.x_min == -(g.n // 2) * g.dx and r[0] <= g.dx / 4) == centre
        plus = _whole_lattice_read(g, psi.samples, r)
        minus = _whole_lattice_read(g, psi.samples, -r)
        weight = np.exp(u.points / 2.0) / np.sqrt(2.0)
        refs = ((plus + minus) * weight, (plus - minus) * weight)
        for h, ref in zip(log_resample(psi, u), refs):
            assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))


def _support_read_cases():
    # (state, the log lattice sizes on which the read stops short of e^u_max)
    g640, g160 = make_grid(4096, 640.0), make_grid(4096, 160.0)
    x = g160.points
    subnormal = gaussian(g160, GaussianSpec(s=1.0)).samples.copy()
    subnormal[(x > 20.0) & (x < 45.0) & (subnormal == 0.0)] = 3e-310 - 2e-310j
    # cut where |psi| is still 1.1e-2, so the spline reaches its full 33 knots
    cut = gaussian(g160, GaussianSpec(s=4.0, p0=0.7)).samples * (np.abs(x) <= 12.0)
    edges = [1.0, 1j] @ np.random.default_rng(5).normal(size=(2, g160.n))
    both = (64, 8192)
    return [
        (gaussian(g640, GaussianSpec(s=1.5, x0=-17.3, p0=0.4, c=0.3)), both),
        (gaussian(g160, GaussianSpec(s=0.5, x0=25.0, p0=-1.0)), both),  # support on x > 0 only
        (hermite(g160, 12), both),
        (Wavefunction(g160, subnormal, POSITION), both),
        (Wavefunction(g160, cut, POSITION), both),
        (Wavefunction(g160, edges, POSITION), ()),  # nonzero at both lattice edges
        (Wavefunction(g160, np.zeros(g160.n), POSITION), both),
        # too few knots for a windowed fit: the whole lattice is fitted
        (gaussian(make_grid(512, 640.0), GaussianSpec(s=5.0, x0=0.0, c=0.01)), (8192,)),
    ]


@pytest.mark.parametrize("case", range(len(_support_read_cases())))
@pytest.mark.parametrize("n_u", [64, 8192])
def test_log_resample_support_read_is_bit_identical_to_whole_window_read(
        case, n_u, whole_window_channels):
    psi, trimmed = _support_read_cases()[case]
    g = psi.grid
    u = log_grid(n_u, -20.0, np.log(0.45 * g.length))
    r_max = _require_log_support(g, u)
    assert (_read_radius(psi, r_max) < r_max) == (n_u in trimmed)
    for h, ref in zip(log_resample(psi, u), whole_window_channels(psi, u)):
        assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))


def test_support_read_stops_past_the_farther_end_of_the_support():
    g = make_grid(4096, 160.0)
    samples = np.zeros(g.n, dtype=complex)
    samples[1000], samples[2300] = 1.0, 1e-320j  # x = -40.9 and x = 9.8
    psi = Wavefunction(g, samples, POSITION)
    assert _read_radius(psi, 72.0) == pytest.approx(-g.points[1000] + _FIT_MARGIN * g.dx)
    assert _read_radius(psi, 30.0) == 30.0
    assert _read_radius(Wavefunction(g, np.zeros(g.n), POSITION), 72.0) == 0.0


def _cubic_interpolate_reference(grid, y, t):
    # the spline read as one expression per step, with float indices
    m = _spline_slopes(y)
    d = np.diff(y)
    c3 = m[:-1] + m[1:] - 2.0 * d
    c2 = d - m[:-1] - c3
    j = np.rint((t - grid.x_min) / grid.dx)
    tau = (t - (grid.x_min + grid.dx * j)) / grid.dx
    k = np.clip(j - (tau < 0.0), 0, grid.n - 2)
    tau += j - k
    k = k.astype(np.intp)
    out = c3[k]
    for c in (c2, m, y):
        out *= tau
        out += c[k]
    return out


@pytest.mark.parametrize("g", [make_grid(8, 8.0), Grid(1024, 0.013, -7.31), make_grid(2**14, 40.0)])
def test_cubic_interpolate_is_bit_identical_to_reference(g):
    rng = np.random.default_rng(g.n)
    y = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
    t = _spline_queries(g, rng)
    got = cubic_interpolate(g, y, t).view(np.uint64)
    assert np.array_equal(got, _cubic_interpolate_reference(g, y, t).view(np.uint64))


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
    fast = inverse_fourier_sum(F, u)
    direct = np.array(
        [np.sum(F * np.exp(1j * kgrid.points * uj)) * kgrid.dx for uj in u.points]
    )
    assert np.abs(fast - direct).max() < 1e-11


def _fourier_sum_reference(f, g):
    # the sum as one expression, with a fresh phase table
    k = dual_grid(g).points
    return g.dx * np.exp(-1j * k * g.x_min) * np.fft.fft((-1.0) ** np.arange(g.n) * f)


def _inverse_fourier_sum_reference(F, k_grid, x_grid):
    n, k = k_grid.n, k_grid.points
    table = np.conj(np.exp(-1j * k * x_grid.x_min))
    return k_grid.dx * n * (-1.0) ** np.arange(n) * np.fft.ifft(table * F)


@pytest.mark.parametrize("n", [8, 64, 1024, 2**14, 2**16])
@pytest.mark.parametrize("lattice", ["centred", "offset", "log"])
def test_fourier_sums_match_uncached_expression(n, lattice):
    g = {
        "centred": make_grid(n, 40.0),
        "offset": Grid(n, 0.037, -1.7),
        "log": log_grid(n, -14.0, np.log(18.0)),
    }[lattice]
    rng = np.random.default_rng(n)
    f = rng.normal(size=n) + 1j * rng.normal(size=n)
    kgrid, fast = fourier_sum(f, g)
    assert np.array_equal(fast.view(np.uint64), _fourier_sum_reference(f, g).view(np.uint64))
    back = inverse_fourier_sum(fast, g)
    ref = _inverse_fourier_sum_reference(fast, kgrid, g)
    assert np.array_equal(back.view(np.uint64), ref.view(np.uint64))


def test_equal_grids_with_different_tables_keep_their_own():
    # compare=False: the two grids are equal, but their dual lattices are not
    g = make_grid(64, 16.0)
    h = Grid(g.n, g.dx, g.x_min, _dual_dx=1.01 * dual_grid(g).dx)
    assert g == h and dual_grid(g) != dual_grid(h)
    f = np.random.default_rng(3).normal(size=g.n) + 0j
    for grid in (g, h, g):
        assert np.array_equal(fourier_sum(f, grid)[1], _fourier_sum_reference(f, grid))
    # 0.0 == -0.0 and they hash alike, so they share an entry: it must be
    # bit-identical to the table each builds
    k_grid = dual_grid(make_grid(64, 16.0))
    for x0 in (0.0, -0.0, 0.0):
        table = _phase_table(k_grid, x0)
        ref = np.exp(-1j * k_grid.points * x0)
        assert np.array_equal(table.view(np.uint64), ref.view(np.uint64))


def test_sums_return_fresh_writable_arrays():
    g = make_grid(256, 20.0)
    f = np.random.default_rng(4).normal(size=g.n) + 0j
    f_before = f.copy()
    kgrid, first = fourier_sum(f, g)
    expected = first.copy()
    back = inverse_fourier_sum(first, g)
    expected_back = back.copy()
    # the sums neither write to their input nor return a view of it
    assert np.array_equal(f, f_before) and np.array_equal(first, expected)
    assert not np.shares_memory(first, f) and not np.shares_memory(back, first)
    table = _phase_table(kgrid, g.x_min)
    for out in (first, back):
        assert out.flags.writeable and not np.shares_memory(out, table)
        out[:] = np.nan
    assert np.array_equal(fourier_sum(f, g)[1], expected)
    assert np.array_equal(inverse_fourier_sum(expected, g), expected_back)


def test_phase_table_cache_stays_bounded_and_read_only():
    _phase_table.cache_clear()
    bound = _phase_table.cache_info().maxsize
    grids = [make_grid(64, 10.0 + i) for i in range(bound + 3)]
    for g in grids:
        fourier_sum(np.ones(g.n), g)
        assert _phase_table.cache_info().currsize <= bound
    assert _phase_table.cache_info().currsize == bound
    for g in grids[-bound:]:
        table = _phase_table(dual_grid(g), g.x_min)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert _phase_table.cache_info().misses == len(grids)


def test_correlation_round_trip_peak_memory():
    # In units of n * 16 bytes, one complex array on the position grid: the
    # state sizes the log lattice (2048 points for this state at every n), so
    # position-sized buffers set both peaks.  Measured 3.61 and 3.58 for the
    # transform at n = 2^14 and 2^16, where the spline fit of psi over the
    # window's knots is the peak (the sizing step's radius bins reach 2.5),
    # and 3.30 and 2.72 for the round trip, from the transform's end, with
    # the spectrum held: the output and the ln|x| queries of both half-lines.
    #
    # A state narrower than its window is fitted only on its support: at
    # length 640 the unit Gaussian is 0 beyond |x| = 39, and the transform
    # peak measured 1.64 and 1.50 (4.02 and 3.59 with the whole window fitted).
    #
    # A fresh state keeps its Fourier sum, so the transform leaves one unit
    # held besides the spectrum, and that unit is held through the fit:
    # measured peaks 4.61 and 4.58.
    #
    # The oracle's read, log_resample on 4 n points over the default window,
    # holds the output, the fit and one query buffer: measured 13.24 and
    # 12.84 (15.24 and 14.84 with u held beside e^u through the reads).
    for n in (2**14, 2**16):
        g = make_grid(n, 40.0)
        psi = gaussian(g, GaussianSpec(s=1.0, x0=0.3))
        window, unit = (-14.0, np.log(18.0)), g.n * 16
        correlation_inverse(correlation_transform(psi, window), g)  # keeps the phase tables
        tracemalloc.start()
        try:
            spec = correlation_transform(psi, window)
            transform_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            correlation_inverse(spec, g)
            round_trip_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.u_grid.n == 2048, n
        assert transform_peak <= 3.8 * unit, n
        assert round_trip_peak <= 3.5 * unit, n

        fresh = gaussian(g, GaussianSpec(s=1.0, x0=0.3))
        tracemalloc.start()
        try:
            spec = correlation_transform(fresh, window)
            held, fresh_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fresh._fourier[1].nbytes == unit
        assert unit <= held - spec.even.nbytes - spec.odd.nbytes <= unit + 4096, n
        assert fresh_peak <= 4.8 * unit, n

        wide = make_grid(n, 640.0)
        narrow = gaussian(wide, GaussianSpec(s=1.0, x0=0.3))
        window = (-20.0, np.log(288.0))
        correlation_inverse(correlation_transform(narrow, window), wide)
        tracemalloc.start()
        try:
            correlation_transform(narrow, window)
            narrow_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert narrow_peak <= 1.8 * unit, n

        oracle_lattice = log_grid(4 * n, *_default_u_window(g))
        tracemalloc.start()
        try:
            log_resample(psi, oracle_lattice)
            oracle_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle_peak <= 13.8 * unit, n


def test_only_grid_names_the_spline_helpers():
    # the spline is fitted and read in grid alone; other modules go through
    # cubic_interpolate, log_resample or its inverse
    for path in Path(qrep.__file__).parent.glob("*.py"):
        if path.name == "grid.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert not [name for name in names if name.startswith("_spline")], path.name


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


_TINY, _MAX = np.nextafter(0.0, 1.0), np.finfo(float).max
_SPECIAL_PHASES = np.array([0.0, -0.0, np.pi, -np.pi, np.pi / 4.0, -np.pi / 4.0, _TINY, -_TINY,
                            1e-310, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny,
                            _MAX, -_MAX])


def test_cis_is_exp_of_i_phase_bit_for_bit():
    rng = np.random.default_rng(20231)
    for _ in range(8):
        phase = 10.0 ** rng.uniform(-8.0, 300.0, 2**17) * rng.choice([-1.0, 1.0], 2**17)
        assert np.array_equal(_bits(_cis(phase)), _bits(np.exp(1j * phase)))
    assert np.array_equal(_bits(_cis(_SPECIAL_PHASES)), _bits(np.exp(1j * _SPECIAL_PHASES)))
    # +0 imaginary part at a -0 phase, as 1j * phase gives
    assert _bits(_cis(-0.0))[1] == 0


@pytest.mark.parametrize("phase", [*_SPECIAL_PHASES, 0.3, np.float64(-2.5)])
def test_cis_of_a_scalar_is_the_complex_scalar_of_exp(phase):
    out, ref = _cis(phase), np.exp(1j * phase)
    assert type(out) is type(ref) is np.complex128
    assert np.array_equal(_bits(out), _bits(ref))


def test_cis_keeps_the_shape_of_its_phase():
    phase = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(_bits(_cis(phase)), _bits(np.exp(1j * phase)))


@pytest.mark.parametrize("x0", [0.0, -0.0, -20.0, 3.7, -1.7, -np.log(2.0) * 7.0])
@pytest.mark.parametrize("x_grid", [make_grid(64, 16.0), Grid(1024, 0.037, -1.7),
                                    log_grid(4096, -14.0, np.log(18.0))])
def test_phase_table_is_the_old_exponential(x_grid, x0):
    # k = 0 lies on each centred dual lattice, where -1j * k is a -0 imaginary part
    _phase_table.cache_clear()
    k_grid = dual_grid(x_grid)
    table = _phase_table(k_grid, x0)
    assert np.array_equal(_bits(table), _bits(np.exp(-1j * k_grid.points * x0)))
