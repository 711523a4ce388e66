from types import SimpleNamespace

import numpy as np
import pytest

from qrep import GaussianSpec, gaussian, make_grid
from qrep.grid import _SQRT_2PI, Grid, _cis, cubic_interpolate, fourier_sum, inverse_fourier_sum
from qrep.kernels import _chirp_resolved
from qrep.transforms import _FAMILIES
from qrep.verify import _factory_states, _fd_derivative


@pytest.fixture(scope="session")
def g1024():
    return make_grid(1024, 40.0)


@pytest.fixture(scope="session")
def unit_gaussian(g1024):
    return gaussian(g1024, GaussianSpec())


@pytest.fixture(scope="session")
def factory_states(g1024):
    """The six states the verification suites run on."""
    return _factory_states(g1024)


@pytest.fixture(scope="session")
def factory_states_on():
    """The six factory states on ``make_grid(n, 40)``, for a given ``n``."""
    return lambda n: _factory_states(make_grid(n, 40.0))


@pytest.fixture(scope="session")
def whole_window_channels():
    """``log_resample``'s channels from a read of the whole window: the spline
    of ``psi`` at ``+-e^u`` for every ``u`` by ``cubic_interpolate``, then the
    parity parts and the weight, formed as ``log_resample`` forms them."""

    def read(psi, u_grid):
        r = np.exp(u_grid.points)
        plus = cubic_interpolate(psi.grid, psi.samples, r)
        minus = cubic_interpolate(psi.grid, psi.samples, -r)
        weight = np.exp(u_grid.points / 2.0) / np.sqrt(2.0)
        return (plus + minus) * weight, (plus - minus) * weight

    return read


def _whole_gaussian(g, spec):
    x = g.points
    xc = x - spec.x0
    amp = (np.pi * spec.s**2) ** -0.25 * np.exp(-(xc**2) / (2.0 * spec.s**2))
    return amp * _cis(0.5 * spec.c * xc**2 + spec.p0 * x)


def _whole_hermite(g, k):
    x = g.points
    h = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    if k >= 1:
        prev, h = h, np.sqrt(2.0) * x * h
        for j in range(2, k + 1):
            h, prev = np.sqrt(2.0 / j) * x * h - np.sqrt((j - 1) / j) * prev, h
    return h.astype(complex)


def _whole_chirp_map(psi, family, value):
    chirp = _FAMILIES[family].chirp(value)
    a, b, g = chirp.a, chirp.b, psi.grid
    if _chirp_resolved(a, b, g):
        kgrid, summed = fourier_sum(_cis(g.points**2 * (a / b) / 2.0) * psi.samples, g)
        dlam = b * kgrid.dx
        lam = Grid(g.n, dlam, -(g.n // 2) * dlam).points
        return _cis(-np.pi / 4.0) * _cis(chirp.kappa * lam**2) * summed / np.sqrt(2.0 * np.pi * b)
    kgrid, tilde = fourier_sum(psi.samples, g)
    pre = _cis(-(b / a) * kgrid.points**2 / 2.0)
    summed = inverse_fourier_sum(pre * (tilde / _SQRT_2PI), g)
    lam = Grid(g.n, a * g.dx, a * g.x_min).points
    return _cis(-chirp.mu * lam**2) * summed / np.sqrt(2.0 * np.pi * a)


def _assert_support_bits(samples, ref, support):
    """``samples`` hold ``ref``'s bits on ``support``, which is ``ref``'s
    nonzero span, and ``+0`` at every sample outside it."""
    nonzero = np.flatnonzero(ref)
    assert support == ((int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0))
    lo, hi = support
    assert samples[lo:hi].tobytes() == np.asarray(ref, dtype=complex)[lo:hi].tobytes()
    outside = np.concatenate((samples[:lo], samples[hi:]))
    assert not outside.any()
    assert not np.signbit(outside.view(float)).any()


@pytest.fixture(scope="session")
def whole_grid():
    """Today's whole-lattice expressions of the work done on a state's support:
    ``gaussian(g, spec)``, ``hermite(g, k)``, ``chirp_map(psi, family, value)``
    (either side of an ``a X + b P`` map) and ``apply_x(psi)``, every operation
    at every sample, in the library's operand order; and ``assert_support_bits``."""
    return SimpleNamespace(
        gaussian=_whole_gaussian,
        hermite=_whole_hermite,
        chirp_map=_whole_chirp_map,
        apply_x=lambda psi: psi.grid.points * psi.samples,
        assert_support_bits=_assert_support_bits,
    )


def _whole_grid_residual(kernel, eigenvalue, window, a, b, c):
    x, f = kernel.grid.points, kernel.samples
    deriv = np.full(len(f), np.nan, dtype=complex)
    deriv[2:-2] = _fd_derivative(f, kernel.grid.dx)
    resid = (a * x - 0.5j * c) * f - 1j * ((b + c * x) * deriv) - eigenvalue * f
    mask = window & np.isfinite(resid.real)
    return float(np.sqrt(np.sum(np.abs(resid[mask]) ** 2)) / np.sqrt(np.sum(np.abs(f[mask]) ** 2)))


@pytest.fixture(scope="session")
def whole_grid_residual():
    """The relative eigen-residual of ``kernel`` under ``a X + b P + c C``,
    ``(kernel, eigenvalue, window, a, b, c)``, formed on every sample of the
    lattice and then masked by ``window``; the two samples at each end, which
    have no derivative, read NaN and drop out."""
    return _whole_grid_residual
