"""Samplers for the generalized eigenfunctions of X, P, S(alpha), S(theta), C.

These are delta-normalized continuum families, not states: their grid norms
grow with the domain length and no sampler normalizes its output.  Each
sampler builds its result as ``amplitude * grid._cis(phase)`` with a real phase
array, which keeps the modulus exactly constant where it should be constant.

Each member of the ``a X + b P`` families is a ``_Chirp``, built by
``_interp_chirp``/``_rotation_chirp``, the one place a family's parameter
range is checked.  A chirp carries no label: ``transforms._FAMILIES`` keys
name each transform's output.  One rule says whether a lattice resolves a member's chirp,
``a dx <= b dp`` (``_chirp_resolved``); the transforms pick their side by it,
and ``nyquist_chirp_step`` refuses by it (``chirp_step_bound``, and for the
oracle and ``qrep kernel`` ``transforms._family_value``); no sampler does.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .grid import _SQRT_2PI, Grid, MOMENTUM, POSITION, Wavefunction, _cis, dual_grid

__all__ = [
    "Parity",
    "CORRELATION_KERNEL_SCALE",
    "plane_wave",
    "position_kernel_in_momentum",
    "interp_kernel",
    "rotation_kernel",
    "correlation_kernel",
    "fresnel_delta",
    "chirp_step_bound",
]

# Fixed by delta-normalization of the dilation eigenfunctions: substituting
# u = ln|x| turns their mutual inner product into a Fourier orthogonality
# relation with weight 4*pi*K^2, so K = 1/(2*sqrt(pi)).  The phase is chosen
# real positive.
CORRELATION_KERNEL_SCALE = 1.0 / (2.0 * np.sqrt(np.pi))


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


# What each ``|f| <= pi/d`` refusal names, by its code: the value, the step, the lattice.
_ALIASING = {
    "momentum_aliasing": ("p", "dx", ""),
    "position_aliasing": ("a", "dp", ""),
    "oracle_gamma_range": ("gamma", "du", " of the {n}-point log lattice"),
}


def _require_resolved(g: Grid, values, code: str) -> None:
    """Refuse with ``code`` any of ``values`` beyond ``pi`` over the step of ``g`` or not finite."""
    limit = np.pi / g.dx
    top = np.max(np.abs(values), initial=0.0)
    if top <= limit * (1 + 1e-12):
        return
    name, step, lattice = _ALIASING[code]
    if not np.isfinite(top):
        bad = np.ravel(values)[~np.isfinite(np.ravel(values))][0]
        raise ValueError(f"{code}: {name} must be finite, got {bad}")
    raise ValueError(f"{code}: |{name}| = {top:.6g} exceeds pi/{step} = {limit:.6g}"
                     + lattice.format(n=g.n))


def plane_wave(g: Grid, p: float) -> Wavefunction:
    """Momentum eigenfunction sampled in position space: ``(2 pi)^(-1/2) e^(i p x)``.

    The eigenvalue must be representable on the lattice, ``|p| <= pi/dx``.
    """
    _require_resolved(g, p, "momentum_aliasing")
    return Wavefunction(g, _cis(p * g.points) / _SQRT_2PI, POSITION)


def position_kernel_in_momentum(g: Grid, a: float) -> Wavefunction:
    """Position eigenfunction sampled in momentum space: ``(2 pi)^(-1/2) e^(-i a p)``.

    ``g`` is the momentum-axis lattice, which must be centred
    (``momentum_lattice``); ``|a|`` must not exceed ``pi/dp``.
    """
    _require_resolved(g, a, "position_aliasing")
    return Wavefunction(g, _cis(-a * g.points) / _SQRT_2PI, MOMENTUM)


# One member of the ``a X + b P`` families, the single owner of its parameter
# range; the family table names a transform's label.  Its kernel phase is
# pi/4 - kappa lam^2 - a x^2/(2b) + lam x/b, and mu = 1/(2ab) - kappa is the
# constant after the Fourier step.  Both are closed forms, each inf at the
# endpoint whose transform side is never taken (kappa at b = 0, mu at a = 0).
_Chirp = NamedTuple("_Chirp", [("a", float), ("b", float), ("kappa", float), ("mu", float)])


def _interp_chirp(alpha: float) -> _Chirp:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"interp_alpha_range: alpha must lie in [0, 1], got {alpha}")
    a, b = alpha, 1.0 - alpha
    kappa = a * (2.0 - a) / (2.0 * b) if b > 0.0 else np.inf
    mu = (1.0 + b - b * b) / (2.0 * a) if a > 0.0 else np.inf
    return _Chirp(a, b, kappa, mu)


def _rotation_chirp(theta: float) -> _Chirp:
    if not (0.0 < theta <= np.pi / 2):
        raise ValueError(f"rotation_theta_range: theta must lie in (0, pi/2], got {theta}")
    # cos(pi/2) rounds to 6e-17, not 0; the right angle is the plane wave exactly.
    if theta == np.pi / 2:
        return _Chirp(0.0, 1.0, 0.0, np.inf)
    s, c = np.sin(theta), np.cos(theta)
    # Below theta ~ 3e-309 kappa overflows to inf, where the transform takes
    # the momentum side, which never reads kappa.
    with np.errstate(over="ignore"):
        kappa = (1.0 - s) / (2.0 * c * s)
    return _Chirp(c, s, kappa, 1.0 / (2.0 * c))


def _chirp_resolved(a: float, b: float, g: Grid) -> bool:
    """Whether ``g`` resolves the chirp ``e^(-i a x^2/(2b))``.

    Its adjacent-sample phase step at the domain edge, ``(a/b) n dx^2/2``, is
    at most pi exactly when ``a dx <= b dp``.  The comparison divides by
    nothing, so no small ``b`` can overflow it.
    """
    return a * g.dx <= b * dual_grid(g).dx


def _require_chirp_resolved(a: float, b: float, g: Grid) -> None:
    """Refuse a chirp ``g`` does not resolve; ``b = 0`` (a point mass) has none."""
    if b > 0.0 and not _chirp_resolved(a, b, g):
        with np.errstate(divide="ignore", over="ignore"):
            step = np.pi * np.divide(a * g.dx, b * dual_grid(g).dx)
        raise ValueError(
            "nyquist_chirp_step: adjacent-sample chirp phase step "
            f"{step:.4g} exceeds pi at the domain edge; refine the grid or move "
            "the parameter away from the endpoint"
        )


def _require_finite_eigenvalue(name: str, value) -> None:
    """Refuse a non-finite eigenvalue, or any in an array of them."""
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"eigenvalue_finite: {name} must be finite, "
                         f"got {np.ravel(value)[~np.ravel(finite)][0]}")


def _require_finite_phase(name: str, values, phase: np.ndarray) -> None:
    """Refuse an eigenvalue so large that the kernel phase overflows.

    ``phase`` holds one row, along its last axis, per entry of ``values``.
    """
    finite = np.isfinite(phase).all(axis=-1)
    if not finite.all():
        value = np.ravel(values)[~np.ravel(finite)][0]
        raise ValueError(f"kernel_phase_finite: the kernel phase overflows at {name} = {value}")


def _chirp_block(g: Grid, chirp: _Chirp, lams) -> np.ndarray:
    """The chirps of one ``a X + b P`` member (``b > 0``) on ``g`` for a 1-D
    array of eigenvalues, one row each, from one phasor call."""
    _require_finite_eigenvalue("lam", lams)
    a, b, kappa = chirp.a, chirp.b, chirp.kappa
    lams = np.asarray(lams, dtype=float)
    amp = 1.0 / np.sqrt(2.0 * np.pi * b)
    x = g.points
    with np.errstate(over="ignore", invalid="ignore"):
        # Each constant is a NumPy scalar power, the C pow of Python's bit for
        # bit that overflows to inf where Python's raises OverflowError; an
        # array's ``lams**2`` is np.square, which rounds differently.
        const = np.array([np.pi / 4.0 - kappa * lam**2 for lam in lams])
        phase = const[:, None] - a * x**2 / (2.0 * b) + lams[:, None] * x / b
    _require_finite_phase("lam", lams, phase)
    return amp * _cis(phase)


def _member_samples(g: Grid, chirp: _Chirp, lam: float) -> np.ndarray:
    """Eigenfunction samples of one ``a X + b P`` member on ``g``.

    For ``b > 0`` the unit-modulus chirp; at ``b = 0`` (only ``alpha = 1``
    reaches it) the discrete point mass of :func:`interp_kernel`, whose
    nearest sample must lie on the lattice (``point_mass_range``).
    """
    if chirp.b > 0.0:
        return _chirp_block(g, chirp, [lam])[0]
    _require_finite_eigenvalue("lam", lam)
    lam = np.float64(lam)
    if not g.x_min - g.dx / 2.0 <= lam < g.x_max + g.dx / 2.0:
        raise ValueError(f"point_mass_range: lam = {lam} has no nearest sample on the lattice "
                         f"[{g.x_min:g}, {g.x_max:g}]")
    samples = np.zeros(g.n, dtype=complex)
    j = int(np.clip(round((lam - g.x_min) / g.dx), 0, g.n - 1))
    samples[j] = _cis(0.5 * lam**2) / g.dx
    return samples


def interp_kernel(g: Grid, alpha: float, lam: float) -> Wavefunction:
    """Eigenfunction of ``alpha*X + (1-alpha)*P`` with eigenvalue ``lam``.

    For ``alpha`` in ``[0, 1)`` the samples are the unit-modulus chirp

        (2 pi (1-alpha))^(-1/2)
          * exp(i [ pi/4
                    - alpha(2-alpha) lam^2 / (2(1-alpha))
                    - alpha x^2 / (2(1-alpha))
                    + lam x / (1-alpha) ])

    The constant phase of each member is fixed so the family is continuous
    in ``alpha`` at both endpoints: at ``alpha = 0`` the expression reduces
    exactly to the constant-phase plane wave ``e^(i pi/4) (2 pi)^(-1/2)
    e^(i lam x)``, and as ``alpha -> 1`` it concentrates onto
    ``e^(i lam^2/2) delta(x - lam)``.  At ``alpha = 1`` that point mass is
    represented discretely: the sample nearest ``lam`` holds
    ``e^(i lam^2/2) / dx`` and all others are zero, which reproduces the
    inner-product action of the delta to first order in ``dx``.
    """
    return Wavefunction(g, _member_samples(g, _interp_chirp(alpha), lam), POSITION)


def rotation_kernel(g: Grid, theta: float, lam: float) -> Wavefunction:
    """Eigenfunction of ``X cos(theta) + P sin(theta)`` with eigenvalue ``lam``.

    Same chirp as :func:`interp_kernel` with the coefficient pair
    ``(cos theta, sin theta)``; at ``theta = pi/2`` it is the constant-phase
    plane wave.
    """
    return Wavefunction(g, _member_samples(g, _rotation_chirp(theta), lam), POSITION)


def correlation_kernel(g: Grid, gamma: float, par: Parity) -> Wavefunction:
    """Definite-parity eigenfunction of ``(XP + PX)/2`` with eigenvalue ``gamma``.

    Even channel: ``K |x|^(-1/2) e^(i gamma ln|x|)``; odd channel carries an
    extra ``sign(x)``.  The integrable singularity at the origin is handled
    by assigning the ``x = 0`` sample the value 0; that single cell of
    measure ``dx`` contributes only O(sqrt(dx)) to any inner product.
    """
    _require_finite_eigenvalue("gamma", gamma)
    if not isinstance(par, Parity):
        raise ValueError(f"parity_label: expected a Parity value, got {par!r}")
    x = g.points
    ax = np.abs(x)
    nonzero = ax > 0.0
    amp = np.zeros(g.n)
    phase = np.zeros(g.n)
    amp[nonzero] = CORRELATION_KERNEL_SCALE / np.sqrt(ax[nonzero])
    with np.errstate(over="ignore"):
        phase[nonzero] = gamma * np.log(ax[nonzero])
    _require_finite_phase("gamma", gamma, phase)
    samples = amp * _cis(phase)
    if par is Parity.ODD:
        samples = samples * np.sign(x)
    return Wavefunction(g, samples, POSITION)


def fresnel_delta(g: Grid, eps: float) -> Wavefunction:
    """Quadratic-phase point-mass approximant ``eps^(-1/2) pi^(-1/2) e^(i pi/4) e^(-i x^2/eps)``.

    It is the ``lam = 0`` chirp eigenfunction of ``X + (eps/2) P`` and tends to
    the unit point mass at the origin as ``eps -> 0``.  The lattice must resolve
    the central lobe's oscillation, which requires ``eps >= 4*dx^2``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"fresnel_eps_positive: eps must be > 0, got {eps}")
    if eps < 4.0 * g.dx**2:
        raise ValueError(
            f"fresnel_resolution: eps = {eps:.4g} is below the bound 4*dx^2 = {4.0 * g.dx**2:.4g}"
        )
    chirp = _Chirp(1.0, eps / 2.0, 0.0, np.inf)
    return Wavefunction(g, _member_samples(g, chirp, 0.0), POSITION)


def chirp_step_bound(rate: float, g: Grid) -> None:
    """Reject chirps ``e^(i rate x^2 / 2)`` the lattice cannot resolve.

    The adjacent-sample phase increment at the domain edge is
    ``rate * (length/2) * dx``; it must not exceed pi.  Only the benchmark
    calls it, to bound its input draws; qrep itself refuses through
    ``_require_chirp_resolved``.
    """
    _require_chirp_resolved(abs(rate), 1.0, g)
