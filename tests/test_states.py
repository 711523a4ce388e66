import numpy as np
import pytest

from qrep import GaussianSpec, gaussian, hermite, make_grid, norm
from qrep.operators import parity_flip


def test_gaussian_peak_value(g1024):
    psi = gaussian(g1024, GaussianSpec())
    j0 = g1024.n // 2
    assert g1024.points[j0] == 0.0
    assert psi.samples[j0] == pytest.approx(np.pi**-0.25, abs=1e-12)
    assert abs(psi.samples[j0] - 0.751126) < 1e-6


def test_gaussian_norm(g1024):
    assert norm(gaussian(g1024, GaussianSpec())) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "spec",
    [
        GaussianSpec(),
        GaussianSpec(s=1.0, c=2.0),
        GaussianSpec(s=1.5, x0=1.0, p0=-0.5),
        GaussianSpec(s=0.8, p0=2.0, c=-1.0),
    ],
)
def test_gaussian_family_normalized(g1024, spec):
    assert abs(norm(gaussian(g1024, spec)) - 1.0) < 1e-9


def test_plain_gaussian_real_and_even(g1024):
    psi = gaussian(g1024, GaussianSpec())
    assert np.abs(psi.samples.imag).max() <= 1e-15
    flipped = parity_flip(psi)
    assert np.abs(flipped.samples - psi.samples).max() <= 1e-15


def test_gaussian_width_guards(g1024):
    with pytest.raises(ValueError, match="gaussian_resolved"):
        gaussian(g1024, GaussianSpec(s=g1024.dx))
    with pytest.raises(ValueError, match="gaussian_contained"):
        gaussian(g1024, GaussianSpec(s=10.0))


def test_gaussian_spec_validation():
    with pytest.raises(ValueError, match="gaussian_width_positive"):
        GaussianSpec(s=-1.0)
    with pytest.raises(ValueError, match="gaussian_spec_finite"):
        GaussianSpec(x0=np.inf)


def test_hermite_zero_equals_gaussian(g1024):
    h0 = hermite(g1024, 0)
    psi = gaussian(g1024, GaussianSpec())
    assert np.abs(h0.samples - psi.samples).max() < 1e-14


@pytest.mark.parametrize("k", range(13))
def test_hermite_normalized(g1024, k):
    assert abs(norm(hermite(g1024, k)) - 1.0) < 1e-9


@pytest.mark.parametrize("k", range(13))
def test_hermite_parity(g1024, k):
    h = hermite(g1024, k)
    flipped = parity_flip(h)
    assert np.abs(flipped.samples - (-1.0) ** k * h.samples).max() < 1e-12


def test_hermite_matches_explicit_polynomials(g1024):
    # cross-check the recurrence against explicit low-order closed forms
    x = g1024.points
    base = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    explicit = {
        1: np.sqrt(2.0) * x * base,
        2: (2.0 * x**2 - 1.0) / np.sqrt(2.0) * base,
        3: (2.0 * x**3 - 3.0 * x) / np.sqrt(3.0) * base,
    }
    for k, expected in explicit.items():
        assert np.abs(hermite(g1024, k).samples - expected).max() < 1e-12, k


@pytest.mark.parametrize("k", [-1, 13, 100])
def test_hermite_order_guard(g1024, k):
    with pytest.raises(ValueError, match="hermite_order_range"):
        hermite(g1024, k)


def test_hermite_fine_grid_stability():
    g = make_grid(8192, 40.0)
    assert abs(norm(hermite(g, 12)) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "spec",
    [GaussianSpec(), GaussianSpec(s=1.0, c=2.0), GaussianSpec(s=1.5, x0=1.0, p0=-0.5),
     GaussianSpec(s=0.8, x0=-3.0, p0=2.0, c=-1.0), GaussianSpec(s=1.0, p0=-0.0, c=-0.0)],
)
def test_gaussian_phasor_is_the_old_exponential(g1024, spec):
    x = g1024.points
    xc = x - spec.x0
    amp = (np.pi * spec.s**2) ** -0.25 * np.exp(-(xc**2) / (2.0 * spec.s**2))
    ref = amp * np.exp(1j * (0.5 * spec.c * xc**2 + spec.p0 * x))
    out = gaussian(g1024, spec).samples
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("spec", [GaussianSpec(c=1e308), GaussianSpec(p0=1e308)])
def test_gaussian_overflowing_phase_is_refused_before_any_phasor(g1024, spec):
    with pytest.raises(ValueError, match="gaussian_phase_finite"):
        gaussian(g1024, spec)
