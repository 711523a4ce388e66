import numpy as np
import pytest

from qrep import (
    CORRELATION_KERNEL_SCALE,
    GaussianSpec,
    Parity,
    dual_grid,
    fresnel_delta,
    gaussian,
    inner,
    interp_kernel,
    make_grid,
    plane_wave,
    position_kernel_in_momentum,
    rotation_kernel,
    correlation_kernel,
)
from qrep.kernels import (_Chirp, _chirp_block, _correlation_samples, _interp_chirp,
                          _member_samples, _plane_wave_samples, _rotation_chirp)

INV_SQRT_2PI = (2 * np.pi) ** -0.5


def test_plane_wave_zero_momentum(g1024):
    w = plane_wave(g1024, 0.0)
    assert np.abs(w.samples - INV_SQRT_2PI).max() < 1e-15
    assert w.samples[0] == pytest.approx(0.398942, abs=1e-6)


@pytest.mark.parametrize("p", [0.0, 1.5, -3.2, 40.0])
def test_plane_wave_constant_modulus(g1024, p):
    mod = np.abs(plane_wave(g1024, p).samples)
    assert mod.max() - mod.min() <= 1e-15
    assert mod[0] == pytest.approx(0.398942, abs=1e-6)


def test_plane_wave_aliasing_guard(g1024):
    limit = np.pi / g1024.dx
    plane_wave(g1024, limit)  # boundary value is representable
    with pytest.raises(ValueError, match="momentum_aliasing"):
        plane_wave(g1024, limit + dual_grid(g1024).dx)


def test_position_kernel_zero(g1024):
    gp = dual_grid(g1024)
    w = position_kernel_in_momentum(gp, 0.0)
    assert np.abs(w.samples - INV_SQRT_2PI).max() < 1e-15


def test_position_kernel_is_conjugate_plane_wave(g1024):
    # same lattice role with p <-> x renamed and the sign conjugated
    gp = dual_grid(g1024)
    a = 1.25
    lhs = position_kernel_in_momentum(gp, a).samples
    rhs = np.conj(np.exp(1j * a * gp.points) / np.sqrt(2 * np.pi))
    assert np.abs(lhs - rhs).max() < 1e-15


def test_position_kernel_aliasing_guard(g1024):
    gp = dual_grid(g1024)
    with pytest.raises(ValueError, match="position_aliasing"):
        position_kernel_in_momentum(gp, np.pi / gp.dx * 1.01)


def test_interp_kernel_alpha_zero_value(g1024):
    w = interp_kernel(g1024, 0.0, 0.0)
    expected = np.exp(1j * np.pi / 4) * INV_SQRT_2PI
    assert np.abs(w.samples - expected).max() < 1e-15
    assert expected == pytest.approx(0.28209 + 0.28209j, abs=1e-5)


def test_interp_kernel_alpha_half_origin_value(g1024):
    w = interp_kernel(g1024, 0.5, 0.0)
    j0 = g1024.n // 2
    expected = np.exp(1j * np.pi / 4) / np.sqrt(np.pi)
    assert w.samples[j0] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.39894 + 0.39894j, abs=1e-5)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_interp_kernel_constant_modulus(g1024, alpha, lam):
    mod = np.abs(interp_kernel(g1024, alpha, lam).samples)
    assert mod.max() - mod.min() <= 1e-15
    assert np.abs(mod - (2 * np.pi * (1 - alpha)) ** -0.5).max() <= 1e-14


def test_interp_kernel_endpoint_continuity(g1024):
    # the chirp family approaches its closed-form endpoint member pointwise;
    # at alpha = 1e-3 the residual chirp over |x| <= 10 still contributes
    # ~2.4e-2 at the window edge, and the error shrinks linearly in alpha
    mask = np.abs(g1024.points) <= 10.0
    e0 = interp_kernel(g1024, 0.0, 1.0).samples[mask]
    errs = [
        np.abs(interp_kernel(g1024, a, 1.0).samples[mask] - e0).max()
        for a in (1e-1, 1e-2, 1e-3)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 3e-2


def test_interp_kernel_alpha_one_is_discrete_point_mass(g1024):
    lam = 0.5
    w = interp_kernel(g1024, 1.0, lam)
    j = int(round((lam - g1024.x_min) / g1024.dx))
    assert w.samples[j] == pytest.approx(np.exp(0.5j * lam**2) / g1024.dx, abs=1e-12)
    rest = np.delete(np.arange(g1024.n), j)
    assert np.abs(w.samples[rest]).max() == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.5, -1.0])
def test_interp_kernel_alpha_one_pairing(g1024, lam):
    # inner products against a smooth state reproduce the point-evaluation
    # action to first order in dx
    psi = gaussian(g1024, GaussianSpec())
    val = inner(interp_kernel(g1024, 1.0, lam), psi)
    target = np.exp(-0.5j * lam**2) * np.pi**-0.25 * np.exp(-(lam**2) / 2.0)
    assert abs(val - target) <= 0.02


def test_interp_kernel_concentration_towards_point_mass():
    # <eta_lam, psi> approaches e^{-i lam^2/2} psi(lam); error is linear in
    # the distance from the endpoint
    lam = 0.5
    target = np.exp(-0.5j * lam**2) * np.pi**-0.25 * np.exp(-(lam**2) / 2.0)
    errs = []
    for eps, n in ((1e-1, 2048), (1e-2, 16384)):
        g = make_grid(n, 16.0)
        val = inner(interp_kernel(g, 1.0 - eps, lam), gaussian(g, GaussianSpec()))
        errs.append(abs(val - target))
    assert errs[0] < 5e-2 and errs[1] < 5e-3


def test_interp_kernel_alpha_range(g1024):
    with pytest.raises(ValueError, match="interp_alpha_range"):
        interp_kernel(g1024, 1.2, 0.0)


def test_rotation_kernel_right_angle_matches_alpha_zero(g1024):
    w = rotation_kernel(g1024, np.pi / 2, 0.0)
    expected = np.exp(1j * np.pi / 4) * INV_SQRT_2PI
    assert np.abs(w.samples - expected).max() < 1e-15


@pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
def test_rotation_kernel_constant_modulus(g1024, theta):
    mod = np.abs(rotation_kernel(g1024, theta, 0.7).samples)
    assert mod.max() - mod.min() <= 1e-15
    assert np.abs(mod - (2 * np.pi * np.sin(theta)) ** -0.5).max() <= 1e-14


@pytest.mark.parametrize("theta", [0.0, -0.1, np.pi / 2 + 0.01])
def test_rotation_kernel_angle_guard(g1024, theta):
    with pytest.raises(ValueError, match="rotation_theta_range"):
        rotation_kernel(g1024, theta, 0.0)


def test_correlation_kernel_even_value():
    g = make_grid(512, 64.0)  # dx = 0.125 puts x = 4 on the lattice
    w = correlation_kernel(g, 0.0, Parity.EVEN)
    j = int(round((4.0 - g.x_min) / g.dx))
    assert g.points[j] == 4.0
    assert w.samples[j] == pytest.approx(CORRELATION_KERNEL_SCALE / 2.0, abs=1e-15)
    assert abs(w.samples[j] - 0.141047) < 1e-6


def test_correlation_kernel_modulus_profile(g1024):
    w = correlation_kernel(g1024, 1.3, Parity.EVEN)
    x = g1024.points
    nz = np.abs(x) > 0
    expected = CORRELATION_KERNEL_SCALE / np.sqrt(np.abs(x[nz]))
    assert np.abs(np.abs(w.samples[nz]) - expected).max() < 1e-15


@pytest.mark.parametrize("gamma", [-2.0, 0.0, 1.0])
def test_correlation_kernel_parity(g1024, gamma):
    # compare paired lattice points x_j <-> -x_j; the leftmost point has no
    # partner on the lattice and is excluded
    even = correlation_kernel(g1024, gamma, Parity.EVEN).samples
    odd = correlation_kernel(g1024, gamma, Parity.ODD).samples
    j = np.arange(1, g1024.n)
    assert np.abs(even[g1024.n - j] - even[j]).max() < 1e-15
    assert np.abs(odd[g1024.n - j] + odd[j]).max() < 1e-15


def test_correlation_kernel_origin_sample(g1024):
    w = correlation_kernel(g1024, 1.0, Parity.EVEN)
    assert w.samples[g1024.n // 2] == 0.0


def test_fresnel_delta_pairing_closed_form():
    # oracle: the quadratic-phase/Gaussian integral in closed form gives
    # pi^(-1/4) (1 + i eps/2)^(-1/2)
    g = make_grid(4096, 20.0)
    f = gaussian(g, GaussianSpec())
    f0 = np.pi**-0.25
    for eps in (1e-1, 1e-2):
        val = inner(fresnel_delta(g, eps), f)
        closed = f0 * (1.0 + 0.5j * eps) ** -0.5
        assert abs(val - closed) < 1e-8, eps
    # spot value from the same closed form
    val = inner(fresnel_delta(g, 1e-2), f)
    assert abs(val - f0) <= 3e-3


def test_fresnel_delta_resolution_guard(g1024):
    with pytest.raises(ValueError, match="fresnel_resolution"):
        fresnel_delta(g1024, g1024.dx**2)


def test_fresnel_delta_rejects_nonpositive(g1024):
    with pytest.raises(ValueError, match="fresnel_eps_positive"):
        fresnel_delta(g1024, 0.0)


# --- every sampler's phasor is the old np.exp(1j * phase), bit for bit ------


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


def _chirp_reference(g, chirp, lam):
    lam = np.float64(lam)
    a, b, kappa, x = chirp.a, chirp.b, chirp.kappa, g.points
    phase = np.pi / 4.0 - kappa * lam**2 - a * x**2 / (2.0 * b) + lam * x / b
    return 1.0 / np.sqrt(2.0 * np.pi * b) * np.exp(1j * phase)


@pytest.mark.parametrize("p", [0.0, -0.0, 1.5, -3.2, 40.0, np.pi / (40.0 / 1024)])
def test_plane_wave_is_the_old_exponential(g1024, p):
    ref = np.exp(1j * (p * g1024.points)) / np.sqrt(2.0 * np.pi)
    assert np.array_equal(_bits(plane_wave(g1024, p).samples), _bits(ref))


@pytest.mark.parametrize("a", [0.0, -0.0, 2.5, -7.25])
def test_position_kernel_is_the_old_exponential(g1024, a):
    k_grid = dual_grid(g1024)
    ref = np.exp(1j * (-a * k_grid.points)) / np.sqrt(2.0 * np.pi)
    assert np.array_equal(_bits(position_kernel_in_momentum(k_grid, a).samples), _bits(ref))


@pytest.mark.parametrize("lam", [-1.0, 0.0, -0.0, 0.5, 2.0])
@pytest.mark.parametrize("family,value", [("interp", 0.0), ("interp", 0.25), ("interp", 0.999),
                                          ("rotation", np.pi / 6), ("rotation", np.pi / 2)])
def test_chirp_kernels_are_the_old_exponential(g1024, family, value, lam):
    if family == "interp":
        out, chirp = interp_kernel(g1024, value, lam), _interp_chirp(value)
    else:
        out, chirp = rotation_kernel(g1024, value, lam), _rotation_chirp(value)
    assert np.array_equal(_bits(out.samples), _bits(_chirp_reference(g1024, chirp, lam)))


@pytest.mark.parametrize("eps", [0.01, 0.5])
def test_fresnel_delta_is_the_old_exponential(g1024, eps):
    # the lambda = 0 member of X + (eps/2) P
    ref = _chirp_reference(g1024, _Chirp(1.0, eps / 2.0, 0.0, np.inf, None), 0.0)
    assert np.array_equal(_bits(fresnel_delta(g1024, eps).samples), _bits(ref))


@pytest.mark.parametrize("lam", [0.0, -0.0, 0.5, -1.0, 3.3, 19.9])
def test_point_mass_is_the_old_exponential(g1024, lam):
    out = interp_kernel(g1024, 1.0, lam).samples
    j = int(np.flatnonzero(out)[0])
    assert np.array_equal(_bits(out[j]), _bits(np.exp(0.5j * np.float64(lam) ** 2) / g1024.dx))


@pytest.mark.parametrize("gamma", [-2.0, 0.0, -0.0, 1.0, 37.5])
@pytest.mark.parametrize("par", [Parity.EVEN, Parity.ODD])
def test_correlation_kernel_is_the_old_exponential(g1024, gamma, par):
    x = g1024.points
    ax = np.abs(x)
    nonzero = ax > 0.0
    amp, phase = np.zeros(g1024.n), np.zeros(g1024.n)
    amp[nonzero] = CORRELATION_KERNEL_SCALE / np.sqrt(ax[nonzero])
    phase[nonzero] = gamma * np.log(ax[nonzero])
    ref = amp * np.exp(1j * phase)
    if par is Parity.ODD:
        ref = ref * np.sign(x)
    assert np.array_equal(_bits(correlation_kernel(g1024, gamma, par).samples), _bits(ref))


@pytest.mark.parametrize(
    "sample",
    [lambda g: interp_kernel(g, 0.5, 1e200), lambda g: rotation_kernel(g, 1.5, -1e200),
     lambda g: correlation_kernel(g, 1e308, Parity.EVEN)],
    ids=["interp", "rotation", "correlation"],
)
def test_overflowing_phase_is_refused_before_any_phasor(g1024, sample):
    # warnings are errors here, so a cos or sin of inf would fail with a RuntimeWarning
    with pytest.raises(ValueError, match="kernel_phase_finite"):
        sample(g1024)


# --- the span samplers are the public samplers' [lo:hi], bit for bit --------

# (public sampler, span sampler) of every family, on one member each
_FAMILIES = {
    "plane_wave": (lambda g: plane_wave(g, -3.2),
                   lambda g, lo, hi: _plane_wave_samples(g, -3.2, lo, hi)),
    "interp": (lambda g: interp_kernel(g, 0.25, -1.0),
               lambda g, lo, hi: _member_samples(g, _interp_chirp(0.25), -1.0, lo, hi)),
    "rotation": (lambda g: rotation_kernel(g, np.pi / 6, 0.5),
                 lambda g, lo, hi: _member_samples(g, _rotation_chirp(np.pi / 6), 0.5, lo, hi)),
    "fresnel": (lambda g: fresnel_delta(g, 0.01),
                lambda g, lo, hi: _member_samples(g, _Chirp(1.0, 0.005, 0.0, np.inf, None), 0.0,
                                                  lo, hi)),
    "corr-even": (lambda g: correlation_kernel(g, 1.0, Parity.EVEN),
                  lambda g, lo, hi: _correlation_samples(g, 1.0, Parity.EVEN, lo, hi)),
    "corr-odd": (lambda g: correlation_kernel(g, -2.0, Parity.ODD),
                 lambda g, lo, hi: _correlation_samples(g, -2.0, Parity.ODD, lo, hi)),
}

# on the 1024-point lattice, whose x = 0 is the sample 512
_SPANS = {"first_sample": (0, 300), "last_sample": (700, 1024), "holds_origin": (400, 620),
          "single": (513, 514), "whole_lattice": (0, 1024)}


@pytest.mark.parametrize("span", list(_SPANS.values()), ids=list(_SPANS))
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_span_sampler_is_the_public_sampler_bit_for_bit(g1024, family, span):
    public, sample = _FAMILIES[family]
    lo, hi = span
    got = sample(g1024, lo, hi)
    assert got.shape == (hi - lo,)
    assert np.array_equal(_bits(got), _bits(public(g1024).samples[lo:hi]))


@pytest.mark.parametrize("family", ["corr-even", "corr-odd"])
def test_correlation_span_keeps_the_origin_sample_zero(g1024, family):
    lo, hi = _SPANS["holds_origin"]
    assert g1024.points[g1024.n // 2] == 0.0
    samples = _FAMILIES[family][1](g1024, lo, hi)
    assert _bits(samples[g1024.n // 2 - lo]).tolist() == [0, 0]


def test_point_mass_is_sampled_on_the_whole_lattice_only(g1024):
    chirp = _interp_chirp(1.0)
    whole = _member_samples(g1024, chirp, 0.5, 0, g1024.n)
    assert np.array_equal(_bits(whole), _bits(interp_kernel(g1024, 1.0, 0.5).samples))
    for lo, hi in [(0, 1023), (1, 1024), (500, 540)]:
        with pytest.raises(ValueError, match="^point_mass_span:"):
            _member_samples(g1024, chirp, 0.5, lo, hi)


def test_gram_block_rows_are_interp_kernels_bit_for_bit():
    g = make_grid(1024, 40.0)
    lams = 0.5 * dual_grid(g).points[::32]
    block = _chirp_block(g, _interp_chirp(0.5), lams, 0, g.n)
    assert block.shape == (32, 1024)
    for lam, row in zip(lams, block):
        assert np.array_equal(_bits(row), _bits(interp_kernel(g, 0.5, lam).samples)), lam


def test_block_forms_each_constant_with_the_scalar_power(g1024):
    # an array's lams**2 is np.square, which rounds some squares differently
    # from the scalar power each single sample forms; at x = 0 the phase is
    # the constant alone, so a differing constant shows in the sample there
    lams = np.random.default_rng(2417).standard_normal(4000) * 3.0
    chirp = _interp_chirp(0.5)
    scalar = np.array([np.pi / 4.0 - chirp.kappa * np.float64(lam) ** 2 for lam in lams])
    differ = scalar != np.pi / 4.0 - chirp.kappa * np.square(lams)
    assert differ.any()
    lo, hi = g1024.n // 2 - 4, g1024.n // 2 + 4
    block = _chirp_block(g1024, chirp, lams[differ], lo, hi)
    for lam, row in zip(lams[differ], block):
        assert np.array_equal(_bits(row), _bits(_member_samples(g1024, chirp, lam, lo, hi)))
        assert np.array_equal(_bits(row), _bits(_chirp_reference(g1024, chirp, lam)[lo:hi]))


@pytest.mark.parametrize(
    "sample,code",
    [(lambda g: _chirp_block(g, _interp_chirp(0.5), [0.0, np.inf], 0, 8), "eigenvalue_finite"),
     (lambda g: _member_samples(g, _interp_chirp(0.5), 1e200, 500, 508), "kernel_phase_finite"),
     (lambda g: _correlation_samples(g, 1e308, Parity.ODD, 0, 8), "kernel_phase_finite")],
    ids=["block_lam", "chirp_phase", "correlation_phase"],
)
def test_span_samplers_keep_the_sampler_guards(g1024, sample, code):
    # the phase is checked on the span sampled, under filterwarnings = error
    with pytest.raises(ValueError, match=f"^{code}:"):
        sample(g1024)


def test_block_phase_refusal_names_the_overflowing_eigenvalue(g1024):
    with pytest.raises(ValueError, match=r"^kernel_phase_finite: .* lam = 1e\+200$"):
        _chirp_block(g1024, _interp_chirp(0.5), [0.0, 1e200, 1.0], 0, g1024.n)
