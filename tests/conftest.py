import numpy as np
import pytest

from qrep import GaussianSpec, gaussian, make_grid
from qrep.grid import cubic_interpolate
from qrep.verify import _factory_states


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


def max_abs(a, b=None):
    arr = a if b is None else np.asarray(a) - np.asarray(b)
    return float(np.abs(arr).max())
