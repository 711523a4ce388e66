"""Analytically known test states: chirped Gaussians and oscillator eigenfunctions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, POSITION, Wavefunction

__all__ = ["GaussianSpec", "gaussian", "hermite", "MAX_HERMITE_ORDER"]

MAX_HERMITE_ORDER = 12


@dataclass(frozen=True)
class GaussianSpec:
    """Width, centre, momentum boost, and chirp rate of a Gaussian packet.

    A nonzero chirp ``c`` gives the packet a genuine position-momentum
    correlation, which is what makes it saturate the strengthened
    uncertainty bound rather than only the plain one.
    """

    s: float = 1.0
    x0: float = 0.0
    p0: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        vals = (self.s, self.x0, self.p0, self.c)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"gaussian_spec_finite: parameters must be finite, got {vals}")
        if self.s <= 0:
            raise ValueError(f"gaussian_width_positive: s must be > 0, got {self.s}")


def gaussian(g: Grid, spec: GaussianSpec = GaussianSpec()) -> Wavefunction:
    """Normalized chirped Gaussian packet in the position representation.

    samples = (pi s^2)^(-1/4) exp(-(x-x0)^2/(2 s^2))
              * exp(i c (x-x0)^2 / 2) * exp(i p0 x)

    The width must satisfy ``4*dx <= s <= length/8`` and the centre ``x0``
    must lie on the domain, so the packet is both resolved by the lattice and
    contained in the domain; a phase that overflows on the lattice is refused
    (``gaussian_phase_finite``).
    """
    if not g.x_min <= spec.x0 <= g.x_max:
        raise ValueError(
            f"gaussian_contained: centre x0={spec.x0:g} lies outside the domain "
            f"[{g.x_min:g}, {g.x_max:g}]"
        )
    if spec.s < 4.0 * g.dx:
        raise ValueError(
            f"gaussian_resolved: width s={spec.s:g} is below 4*dx={4.0 * g.dx:g}"
        )
    if spec.s > g.length / 8.0:
        raise ValueError(
            f"gaussian_contained: width s={spec.s:g} exceeds length/8={g.length / 8.0:g}"
        )
    x = g.points
    xc = x - spec.x0
    amp = (np.pi * spec.s**2) ** -0.25 * np.exp(-(xc**2) / (2.0 * spec.s**2))
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 0.5 * spec.c * xc**2 + spec.p0 * x
    if not np.isfinite(phase).all():
        raise ValueError(
            f"gaussian_phase_finite: the phase c (x-x0)^2/2 + p0 x overflows on this grid "
            f"(c={spec.c:g}, p0={spec.p0:g})"
        )
    return Wavefunction(g, amp * np.exp(1j * phase), POSITION)


def hermite(g: Grid, k: int) -> Wavefunction:
    """Normalized harmonic-oscillator eigenfunction of order ``k``.

    Uses the normalized three-term recurrence

        h_0 = pi^(-1/4) e^(-x^2/2),   h_1 = sqrt(2) x h_0,
        h_k = sqrt(2/k) x h_{k-1} - sqrt((k-1)/k) h_{k-2},

    which keeps every intermediate at unit scale, so no overflow occurs.
    Orders above 12 are rejected; they add nothing at the domain sizes
    this library targets.
    """
    if not isinstance(k, (int, np.integer)) or not (0 <= k <= MAX_HERMITE_ORDER):
        raise ValueError(
            f"hermite_order_range: order must be an integer in [0, {MAX_HERMITE_ORDER}], got {k}"
        )
    x = g.points
    h = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    if k >= 1:
        prev, h = h, np.sqrt(2.0) * x * h
        for j in range(2, k + 1):
            h, prev = np.sqrt(2.0 / j) * x * h - np.sqrt((j - 1) / j) * prev, h
    return Wavefunction(g, h, POSITION)
