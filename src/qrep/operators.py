"""Discrete actions of X, P, S(alpha), S(theta), C and the moment engine.

Every derivative here is spectral: a Fourier sum, a multiplication by the
dual variable and the inverse sum.  The checks of these operators, and the
independent finite-difference derivative they use, live in :mod:`qrep.verify`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid import (
    _SQRT_2PI,
    POSITION,
    MOMENTUM,
    Grid,
    Wavefunction,
    dual_grid,
    fourier_sum,
    inner,
    inverse_fourier_sum,
    require_contained,
    require_label,
    require_momentum_decay,
)

__all__ = [
    "MomentReport",
    "apply_x",
    "apply_p",
    "apply_s",
    "apply_s_theta",
    "apply_c",
    "apply_c_momentum",
    "parity_flip",
    "moments",
]


def apply_x(psi: Wavefunction) -> Wavefunction:
    """Multiply by the lattice coordinate.  Output is not a normalized state."""
    require_label(psi, POSITION, "operator")
    return Wavefunction(psi.grid, psi.grid.points * psi.samples, psi.label)


def _spectral_p(samples: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    """``(fourier_sum(samples), -i d/dx samples)``, with no guard."""
    kgrid, tilde = fourier_sum(samples, g)
    return tilde, inverse_fourier_sum(kgrid.points * tilde, g) / (2.0 * np.pi)


def apply_p(psi: Wavefunction) -> Wavefunction:
    """Spectral derivative operator ``-i d/dx``.

    The samples are transformed, multiplied by the dual variable, and
    transformed back, so the input must have decayed at the domain edge
    (spectral differentiation treats the data as periodic) and at the
    momentum edge (the lattice must resolve it).
    """
    require_label(psi, POSITION, "operator")
    require_contained(psi)
    tilde, out = _spectral_p(psi.samples, psi.grid)
    require_momentum_decay(tilde)
    return Wavefunction(psi.grid, out, psi.label)


def _apply_linear(psi: Wavefunction, a: float, b: float) -> Wavefunction:
    """``a*X + b*P``, the observable behind both the interpolating and rotated families."""
    xpart = apply_x(psi)
    ppart = apply_p(psi)
    return Wavefunction(psi.grid, a * xpart.samples + b * ppart.samples, psi.label)


def apply_s(psi: Wavefunction, alpha: float) -> Wavefunction:
    """Interpolating observable ``alpha*X + (1-alpha)*P``."""
    if not np.isfinite(alpha):
        raise ValueError(f"interp_alpha_finite: alpha must be finite, got {alpha}")
    return _apply_linear(psi, alpha, 1.0 - alpha)


def apply_s_theta(psi: Wavefunction, theta: float) -> Wavefunction:
    """Phase-space rotated observable ``X cos(theta) + P sin(theta)``."""
    if not np.isfinite(theta):
        raise ValueError(f"rotation_theta_finite: theta must be finite, got {theta}")
    return _apply_linear(psi, np.cos(theta), np.sin(theta))


def apply_c(psi: Wavefunction) -> Wavefunction:
    """Symmetrized correlation observable ``(XP + PX)/2 = -i (x d/dx + 1/2)``.

    ``psi`` is guarded as a state once, by :func:`apply_p`; ``x psi`` is not."""
    p_psi = apply_p(psi)
    x = psi.grid.points
    _, p_x_psi = _spectral_p(x * psi.samples, psi.grid)
    return Wavefunction(psi.grid, 0.5 * (x * p_psi.samples + p_x_psi), psi.label)


def apply_c_momentum(phi: Wavefunction) -> Wavefunction:
    """Correlation observable acting on momentum-representation samples.

    Built by the conjugation rule: the momentum form of C is the position
    form with the variable renamed and the whole operator conjugated, which
    gives ``+i (p d/dp + 1/2)``.  The derivative is evaluated spectrally
    through the position side.
    """
    require_label(phi, MOMENTUM, "operator")
    xgrid = dual_grid(phi.grid)
    x = xgrid.points
    psi_x = inverse_fourier_sum(phi.samples, xgrid) / _SQRT_2PI
    _, raw = fourier_sum(-1j * x * psi_x, xgrid)
    dphi = raw / _SQRT_2PI
    p = phi.grid.points
    return Wavefunction(phi.grid, 1j * (p * dphi + 0.5 * phi.samples), phi.label)


def parity_flip(psi: Wavefunction) -> Wavefunction:
    """Reflect ``x -> -x`` on the lattice (the leftmost point maps to itself)."""
    n = psi.grid.n
    idx = (-np.arange(n)) % n
    return Wavefunction(psi.grid, psi.samples[idx], psi.label)


@dataclass(frozen=True)
class MomentReport:
    """First and second moments plus both sides of the strengthened bound.

    ``lhs = var_x * var_p`` and ``rhs = 1/4 + corr_term^2`` where
    ``corr_term = mean_c - mean_x*mean_p``; ``heisenberg_rhs`` is the plain
    1/4 floor the correlation term strengthens.
    """

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    mean_c: float
    corr_term: float
    lhs: float
    rhs: float
    heisenberg_rhs: float = 0.25

    def as_dict(self) -> dict:
        return asdict(self)


def moments(psi: Wavefunction) -> MomentReport:
    """Moment report for a contained, resolved position-representation state.

    One spectral derivative ``P psi`` serves every momentum expectation:

        <X> = Re<psi, x psi>        <X^2> = ||x psi||^2
        <P> = Re<psi, P psi>        <P^2> = ||P psi||^2
        <C> = Re<x psi, P psi>

    These equal the operator definitions because X and the spectral P are
    Hermitian on the grid.  The state must have decayed at both position
    edges (``boundary_decay``) and both momentum edges (``momentum_decay``,
    raised by :func:`apply_p`).
    """
    p_psi = apply_p(psi)
    x_psi = apply_x(psi)
    mean_x = inner(psi, x_psi).real
    mean_p = inner(psi, p_psi).real
    mean_x2 = inner(x_psi, x_psi).real
    mean_p2 = inner(p_psi, p_psi).real
    mean_c = inner(x_psi, p_psi).real
    var_x = mean_x2 - mean_x**2
    var_p = mean_p2 - mean_p**2
    corr = mean_c - mean_x * mean_p
    return MomentReport(
        mean_x=mean_x,
        mean_p=mean_p,
        var_x=var_x,
        var_p=var_p,
        mean_c=mean_c,
        corr_term=corr,
        lhs=var_x * var_p,
        rhs=0.25 + corr**2,
    )

