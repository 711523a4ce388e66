"""Samplers for the generalized eigenfunctions of X, P, S(alpha), S(theta), C.

These are delta-normalized continuum families, not states: their grid norms
grow with the domain length and no sampler normalizes its output.  Each
sampler builds its result as ``amplitude * exp(i * phase)`` with a real phase
array, which keeps the modulus exactly constant where it should be constant.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .grid import Grid, MOMENTUM, POSITION, Wavefunction

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

_TWO_PI_SQRT = np.sqrt(2.0 * np.pi)


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def plane_wave(g: Grid, p: float) -> Wavefunction:
    """Momentum eigenfunction sampled in position space: ``(2 pi)^(-1/2) e^(i p x)``.

    The eigenvalue must be representable on the lattice, ``|p| <= pi/dx``.
    """
    limit = np.pi / g.dx
    if not np.isfinite(p) or abs(p) > limit * (1 + 1e-12):
        raise ValueError(f"momentum_aliasing: |p| = {abs(p):.6g} exceeds pi/dx = {limit:.6g}")
    return Wavefunction(g, np.exp(1j * (p * g.points)) / _TWO_PI_SQRT, POSITION)


def position_kernel_in_momentum(g: Grid, a: float) -> Wavefunction:
    """Position eigenfunction sampled in momentum space: ``(2 pi)^(-1/2) e^(-i a p)``.

    ``g`` is the momentum-axis lattice; ``|a|`` must not exceed ``pi/dp``.
    """
    limit = np.pi / g.dx
    if not np.isfinite(a) or abs(a) > limit * (1 + 1e-12):
        raise ValueError(f"position_aliasing: |a| = {abs(a):.6g} exceeds pi/dp = {limit:.6g}")
    return Wavefunction(g, np.exp(1j * (-a * g.points)) / _TWO_PI_SQRT, MOMENTUM)


# One member of the ``a X + b P`` families.  Its kernel phase is
# pi/4 - kappa lam^2 - a x^2/(2b) + lam x/b, and mu = 1/(2ab) - kappa is the
# constant after the Fourier step.  Both are closed forms, each inf at the
# endpoint whose transform side is never taken (kappa at b = 0, mu at a = 0).
_Chirp = NamedTuple("_Chirp", [("a", float), ("b", float), ("kappa", float), ("mu", float)])


def _interp_chirp(alpha: float) -> _Chirp:
    a, b = alpha, 1.0 - alpha
    kappa = a * (2.0 - a) / (2.0 * b) if b > 0.0 else np.inf
    mu = (1.0 + b - b * b) / (2.0 * a) if a > 0.0 else np.inf
    return _Chirp(a, b, kappa, mu)


def _rotation_chirp(theta: float) -> _Chirp:
    # cos(pi/2) rounds to 6e-17, not 0; the right angle is the plane wave exactly.
    if theta == np.pi / 2:
        return _Chirp(0.0, 1.0, 0.0, np.inf)
    s, c = np.sin(theta), np.cos(theta)
    # Below theta ~ 3e-309 kappa overflows to inf, where the transform takes
    # the momentum side, which never reads kappa.
    with np.errstate(over="ignore"):
        kappa = (1.0 - s) / (2.0 * c * s)
    return _Chirp(c, s, kappa, 1.0 / (2.0 * c))


def _chirp_kernel(g: Grid, chirp: _Chirp, lam: float) -> Wavefunction:
    """Sample the unit-modulus chirp eigenfunction of ``chirp`` (``b > 0``)."""
    a, b, kappa, _ = chirp
    x = g.points
    amp = 1.0 / np.sqrt(2.0 * np.pi * b)
    phase = np.pi / 4.0 - kappa * lam**2 - a * x**2 / (2.0 * b) + lam * x / b
    return Wavefunction(g, amp * np.exp(1j * phase), POSITION)


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
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"interp_alpha_range: alpha must lie in [0, 1], got {alpha}")
    if not np.isfinite(lam):
        raise ValueError(f"eigenvalue_finite: lam must be finite, got {lam}")
    if alpha == 1.0:
        samples = np.zeros(g.n, dtype=complex)
        j = int(np.clip(round((lam - g.x_min) / g.dx), 0, g.n - 1))
        samples[j] = np.exp(0.5j * lam**2) / g.dx
        return Wavefunction(g, samples, POSITION)
    return _chirp_kernel(g, _interp_chirp(alpha), lam)


def rotation_kernel(g: Grid, theta: float, lam: float) -> Wavefunction:
    """Eigenfunction of ``X cos(theta) + P sin(theta)`` with eigenvalue ``lam``.

    Same chirp as :func:`interp_kernel` with the coefficient pair
    ``(cos theta, sin theta)``; at ``theta = pi/2`` it is the constant-phase
    plane wave.
    """
    if not (0.0 < theta <= np.pi / 2):
        raise ValueError(f"rotation_theta_range: theta must lie in (0, pi/2], got {theta}")
    if not np.isfinite(lam):
        raise ValueError(f"eigenvalue_finite: lam must be finite, got {lam}")
    return _chirp_kernel(g, _rotation_chirp(theta), lam)


def correlation_kernel(g: Grid, gamma: float, par: Parity) -> Wavefunction:
    """Definite-parity eigenfunction of ``(XP + PX)/2`` with eigenvalue ``gamma``.

    Even channel: ``K |x|^(-1/2) e^(i gamma ln|x|)``; odd channel carries an
    extra ``sign(x)``.  The integrable singularity at the origin is handled
    by assigning the ``x = 0`` sample the value 0; that single cell of
    measure ``dx`` contributes only O(sqrt(dx)) to any inner product.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"eigenvalue_finite: gamma must be finite, got {gamma}")
    if not isinstance(par, Parity):
        raise ValueError(f"parity_label: expected a Parity value, got {par!r}")
    x = g.points
    ax = np.abs(x)
    nonzero = ax > 0.0
    amp = np.zeros(g.n)
    phase = np.zeros(g.n)
    amp[nonzero] = CORRELATION_KERNEL_SCALE / np.sqrt(ax[nonzero])
    phase[nonzero] = gamma * np.log(ax[nonzero])
    samples = amp * np.exp(1j * phase)
    if par is Parity.ODD:
        samples = samples * np.sign(x)
    return Wavefunction(g, samples, POSITION)


def fresnel_delta(g: Grid, eps: float) -> Wavefunction:
    """Quadratic-phase point-mass approximant ``eps^(-1/2) pi^(-1/2) e^(i pi/4) e^(-i x^2/eps)``.

    Converges to the unit point mass at the origin as ``eps -> 0``.  The
    lattice must resolve the oscillation near the central lobe, which
    requires ``eps >= 4*dx^2``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"fresnel_eps_positive: eps must be > 0, got {eps}")
    if eps < 4.0 * g.dx**2:
        raise ValueError(
            f"fresnel_resolution: eps = {eps:.4g} is below the bound 4*dx^2 = {4.0 * g.dx**2:.4g}"
        )
    x = g.points
    amp = 1.0 / np.sqrt(eps * np.pi)
    phase = np.pi / 4.0 - x**2 / eps
    return Wavefunction(g, amp * np.exp(1j * phase), POSITION)


def chirp_step_bound(rate: float, g: Grid) -> None:
    """Reject chirps ``e^(i rate x^2 / 2)`` the lattice cannot resolve.

    The adjacent-sample phase increment at the domain edge is
    ``rate * (length/2) * dx``; it must stay below pi.
    """
    step = abs(rate) * (g.length / 2.0) * g.dx
    if step > np.pi:
        raise ValueError(
            "nyquist_chirp_step: adjacent-sample chirp phase step "
            f"{step:.4g} exceeds pi at the domain edge; refine the grid or move "
            "the parameter away from the endpoint"
        )
