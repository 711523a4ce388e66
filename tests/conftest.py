import numpy as np
import pytest

from qrep import GaussianSpec, gaussian, hermite, make_grid


@pytest.fixture(scope="session")
def g1024():
    return make_grid(1024, 40.0)


@pytest.fixture(scope="session")
def unit_gaussian(g1024):
    return gaussian(g1024, GaussianSpec())


def _factory_states(g):
    return [
        ("gaussian", gaussian(g, GaussianSpec())),
        ("gaussian_chirped", gaussian(g, GaussianSpec(s=1.0, c=2.0))),
        ("gaussian_moved", gaussian(g, GaussianSpec(s=1.5, x0=1.0, p0=-0.5))),
        ("hermite_1", hermite(g, 1)),
        ("hermite_2", hermite(g, 2)),
        ("hermite_3", hermite(g, 3)),
    ]


@pytest.fixture(scope="session")
def factory_states(g1024):
    """The six states the verification suites run on."""
    return _factory_states(g1024)


@pytest.fixture(scope="session")
def factory_states_on():
    """The six factory states on ``make_grid(n, 40)``, for a given ``n``."""
    return lambda n: _factory_states(make_grid(n, 40.0))


def max_abs(a, b=None):
    arr = a if b is None else np.asarray(a) - np.asarray(b)
    return float(np.abs(arr).max())
