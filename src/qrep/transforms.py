"""Unitary maps between the representations.

The Fourier pair is a phase-corrected FFT on the centred lattice.  The
interpolating and rotation transforms share one chirp + Fourier + chirp
decomposition of an ``a X + b P`` member (``kernels._Chirp``), with the chirp
on the position side where the lattice resolves it (``a dx <= b dp``,
``kernels._chirp_resolved``) and on the momentum side otherwise; its output
lattice makes the whole map a single FFT.  The correlation transform is a
Fourier transform in the logarithm of the coordinate, taken separately in
each parity channel.

Every fast path has a direct-summation oracle (`quadrature_oracle`) against
which it is validated in the test and verify suites.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .grid import (
    MOMENTUM,
    POSITION,
    Grid,
    Wavefunction,
    cubic_interpolate,
    dual_grid,
    fourier_sum,
    inner,
    inverse_fourier_sum,
    log_grid,
    log_resample,
    require_contained,
    require_label,
    require_momentum_decay,
)
from .kernels import (
    Parity,
    _Chirp,
    _chirp_resolved,
    _interp_chirp,
    _require_chirp_resolved,
    _rotation_chirp,
    correlation_kernel,
    interp_kernel,
    plane_wave,
    rotation_kernel,
)
from .operators import apply_c, apply_c_momentum

__all__ = [
    "CorrelationSpectrum",
    "to_momentum",
    "from_momentum",
    "interp_transform",
    "rotation_transform",
    "correlation_transform",
    "correlation_inverse",
    "quadrature_oracle",
    "conjugation_defect",
    "windowed_conjugation_defect",
    "FAST_PATH_ALPHA_MARGIN",
    "INVERSE_TAIL_TOL",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Selects nothing in qrep: every alpha in [0, 1] takes the exact two-sided
# transform.  Kept, with its value, for the benchmark's input ranges.
FAST_PATH_ALPHA_MARGIN = 1e-3

INVERSE_TAIL_TOL = 1e-6


def to_momentum(psi: Wavefunction) -> Wavefunction:
    """Fourier map to the momentum representation.

    psi_tilde(p) = (2 pi)^(-1/2) sum_j psi_j e^(-i p x_j) dx

    on the monotone dual lattice.  Exactly unitary on the grid.  The state
    must have decayed at both position edges and both momentum edges.
    """
    require_label(psi, POSITION, "to_momentum")
    require_contained(psi)
    kgrid, tilde = fourier_sum(psi.samples, psi.grid)
    require_momentum_decay(tilde)
    return Wavefunction(kgrid, tilde / _SQRT_2PI, MOMENTUM)


def from_momentum(phi: Wavefunction) -> Wavefunction:
    """Exact inverse of :func:`to_momentum`."""
    require_label(phi, MOMENTUM, "from_momentum")
    xgrid = dual_grid(phi.grid)
    out = inverse_fourier_sum(phi.samples, phi.grid, xgrid) / _SQRT_2PI
    return Wavefunction(xgrid, out, POSITION)


def _linear_transform(psi: Wavefunction, chirp: _Chirp) -> Wavefunction:
    """``<kernel_lam, psi>`` for one ``a X + b P`` member, by one FFT on either side.

    Position side, on ``lam_k = b p_k``:
        e^(-i pi/4) (2 pi b)^(-1/2) e^(i kappa lam^2)
        * sum_j e^(i a x_j^2/(2b)) psi_j e^(-i lam x_j/b) dx
    Momentum side, on ``lam_j = a x_j``, with ``phi`` the momentum samples:
        (2 pi a)^(-1/2) e^(-i mu lam^2) sum_m e^(-i b p_m^2/(2a)) phi_m e^(i lam p_m/a) dp
    The edge chirp steps ``(a/b) n dx^2/2`` and ``(b/a) n dp^2/2`` multiply to
    ``pi^2``; the position side is taken where ``kernels._chirp_resolved``
    admits its chirp, else the momentum side resolves its own, so the chirp
    never steps by more than ``pi``.  Which side is taken is an internal
    choice, so neither side checks the momentum edge (``momentum_decay``).
    """
    label = chirp.label
    require_label(psi, POSITION, f"{label.kind}_transform")
    require_contained(psi)
    a, b, kappa, mu = chirp.a, chirp.b, chirp.kappa, chirp.mu
    g = psi.grid
    if _chirp_resolved(a, b, g):
        pre = np.exp(1j * (a / b) * g.points**2 / 2.0)
        kgrid, G = fourier_sum(pre * psi.samples, g)
        dlam = b * kgrid.dx
        lam_grid = Grid(g.n, dlam, -(g.n // 2) * dlam)
        lam = lam_grid.points
        out = (
            np.exp(-1j * np.pi / 4.0)
            * np.exp(1j * kappa * lam**2)
            * G
            / np.sqrt(2.0 * np.pi * b)
        )
        return Wavefunction(lam_grid, out, label)
    kgrid, tilde = fourier_sum(psi.samples, g)
    pre = np.exp(-1j * (b / a) * kgrid.points**2 / 2.0)
    S = inverse_fourier_sum(pre * (tilde / _SQRT_2PI), kgrid, g)
    lam_grid = Grid(g.n, a * g.dx, a * g.x_min)
    lam = lam_grid.points
    out = np.exp(-1j * mu * lam**2) * S / np.sqrt(2.0 * np.pi * a)
    return Wavefunction(lam_grid, out, label)


def interp_transform(psi: Wavefunction, alpha: float) -> Wavefunction:
    """Expand in the eigenbasis of ``alpha*X + (1-alpha)*P``.

    Output samples are ``<eta_lam, psi>`` on the lattice ``lam_k = (1-alpha) p_k``
    or ``lam_j = alpha x_j``, whichever is coarser.  Every ``alpha`` in ``[0, 1]``
    is one FFT with a resolved chirp, so the map is unitary on the grid; at
    ``alpha = 0`` it is ``e^(-i pi/4)`` times the Fourier map and at
    ``alpha = 1`` it is ``e^(-i x^2/2) psi(x)``, both to rounding.
    """
    return _linear_transform(psi, _interp_chirp(alpha))


def rotation_transform(psi: Wavefunction, theta: float) -> Wavefunction:
    """Expand in the eigenbasis of ``X cos(theta) + P sin(theta)``.

    Same map as :func:`interp_transform` with coefficients ``(cos theta,
    sin theta)``, on ``lam_k = sin(theta) p_k`` or ``lam_j = cos(theta) x_j``.
    """
    return _linear_transform(psi, _rotation_chirp(theta))


# What each ``a X + b P`` family is built from, by family name: its parameter,
# its member, its eigenfunction sampler and its transform.
_ChirpFamily = namedtuple("_ChirpFamily", "param chirp sample transform")
_CHIRP_FAMILIES = {
    "interp": _ChirpFamily("alpha", _interp_chirp, interp_kernel, interp_transform),
    "rotation": _ChirpFamily("theta", _rotation_chirp, rotation_kernel, rotation_transform),
}


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Even/odd channel coefficients of the correlation-operator expansion.

    ``tail_mass`` is the position-space probability the finite log window
    could not see (outside ``e^u_min <= |x| <= e^u_max``); it is reported
    rather than silently dropped, and the channel power satisfies
    ``sum (|even|^2 + |odd|^2) dgamma = 1 - tail_mass`` up to interpolation
    error for a normalized input.
    """

    gamma_grid: Grid
    even: np.ndarray
    odd: np.ndarray
    tail_mass: float
    u_grid: Grid

    def __post_init__(self):
        n = self.gamma_grid.n
        if self.even.shape != (n,) or self.odd.shape != (n,):
            raise ValueError(
                f"channel_length: expected {n} coefficients per parity channel, "
                f"got {self.even.shape} and {self.odd.shape}"
            )

    def channel_power(self) -> float:
        dg = self.gamma_grid.dx
        return float(np.sum(np.abs(self.even) ** 2 + np.abs(self.odd) ** 2) * dg)


def _default_u_window(g: Grid) -> tuple[float, float]:
    # 0.45 length lies inside the last positive sample only for n >= 32;
    # smaller grids stop at x_max so that log_resample never extrapolates.
    return float(np.log(4.0 * g.dx)), float(np.log(min(0.45 * g.length, g.x_max)))


def correlation_transform(
    psi: Wavefunction,
    u_window: tuple[float, float] | None = None,
    n_gamma: int | None = None,
) -> CorrelationSpectrum:
    """Expand in the definite-parity eigenbasis of ``(XP + PX)/2``.

    Both parity channels are resampled onto a uniform lattice in
    ``u = ln|x|`` (where the eigenfunctions become plane waves) by one
    :func:`~qrep.grid.log_resample` call and Fourier transformed:

        channel(gamma) = (2 pi)^(-1/2) sum_i h(u_i) e^(-i gamma u_i) du,
        h(u) = e^(u/2) (psi(e^u) +- psi(-e^u)) / sqrt(2).

    Defaults: ``u_window = (ln(4 dx), ln(min(0.45 length, x_max)))`` and
    ``n_gamma = 2 n``.  States with appreciable probability near the origin
    need a lower ``u_min`` than the default; the unseen probability is
    always reported in ``tail_mass``.  The state must have decayed at both
    domain edges (``boundary_decay``), as the spline read presumes.
    """
    require_label(psi, POSITION, "correlation_transform")
    require_contained(psi)
    g = psi.grid
    if u_window is None:
        u_window = _default_u_window(g)
    if n_gamma is None:
        n_gamma = 2 * g.n
    u_min, u_max = float(u_window[0]), float(u_window[1])
    ugrid = log_grid(n_gamma, u_min, u_max)

    h_even, h_odd = log_resample(psi, ugrid)
    gamma_grid, even_raw = fourier_sum(h_even, ugrid)
    _, odd_raw = fourier_sum(h_odd, ugrid)

    x = g.points
    outer = float(np.sum(np.abs(psi.samples[np.abs(x) > np.exp(u_max)]) ** 2) * g.dx)
    origin = float(2.0 * np.exp(u_min) * np.abs(psi.samples[g.n // 2]) ** 2)
    return CorrelationSpectrum(
        gamma_grid=gamma_grid,
        even=even_raw / _SQRT_2PI,
        odd=odd_raw / _SQRT_2PI,
        tail_mass=outer + origin,
        u_grid=ugrid,
    )


def correlation_inverse(spec: CorrelationSpectrum, g: Grid) -> Wavefunction:
    """Reconstruct position samples from a correlation spectrum.

    Inverts the log-variable Fourier transform channel by channel.  The sum
    and difference of the channels carry ``psi(e^u)`` and ``psi(-e^u)``; each
    is read back onto its own half-line of ``g`` with
    :func:`~qrep.grid.cubic_interpolate`, the not-a-knot cubic spline on the
    uniform ``u`` knots (SciPy's ``CubicSpline`` default).  Points outside the
    covered annulus ``e^u_min <= |x| <= e^u_max`` are set to zero.  Requires
    the spectrum's ``tail_mass`` to be below ``INVERSE_TAIL_TOL``.
    """
    if spec.tail_mass > INVERSE_TAIL_TOL:
        raise ValueError(
            f"inverse_tail_mass: tail mass {spec.tail_mass:.3e} exceeds {INVERSE_TAIL_TOL:g}; "
            "widen the log window before inverting"
        )
    h_even = inverse_fourier_sum(spec.even, spec.gamma_grid, spec.u_grid) / _SQRT_2PI
    h_odd = inverse_fourier_sum(spec.odd, spec.gamma_grid, spec.u_grid) / _SQRT_2PI
    u = spec.u_grid.points

    out = np.zeros(g.n, dtype=complex)
    for x, h in ((g.points, h_even + h_odd), (-g.points, h_even - h_odd)):
        covered = (x >= np.exp(u[0])) & (x <= np.exp(u[-1])) & (x > 0.0)
        r = x[covered]
        out[covered] = cubic_interpolate(spec.u_grid, h, np.log(r)) / np.sqrt(2.0 * r)
    return Wavefunction(g, out, POSITION)


_ORACLE_FAMILIES = ("plane_wave", "interp", "rotation", "correlation_even", "correlation_odd")


def quadrature_oracle(
    psi: Wavefunction,
    family: str,
    lambdas: np.ndarray,
    alpha: float | None = None,
    theta: float | None = None,
    u_window: tuple[float, float] | None = None,
) -> np.ndarray:
    """Ground-truth expansion coefficients by direct summation.

    O(n) per eigenvalue with a fixed summation order, so results are
    deterministic.  For the chirp families it shares only the kernel with the
    fast transforms.  Its rectangle sum aliases where ``psi``'s lattice does
    not resolve the kernel chirp ``e^(-i a x^2/(2b))`` (``a dx > b dp``), so
    such lattices are refused with ``nyquist_chirp_step`` before any kernel is
    sampled; sum on a finer grid instead.  For the correlation families the
    sum runs on its own log lattice of ``4 n`` points (twice the default
    density), sharing only the interpolation step
    (:func:`~qrep.grid.log_resample`) with the fast path.
    """
    require_label(psi, POSITION, "quadrature_oracle")
    if family not in _ORACLE_FAMILIES:
        raise ValueError(f"oracle_family: unknown kernel family {family!r}")
    lambdas = np.asarray(lambdas, dtype=float)

    if family == "plane_wave":
        return np.array([inner(plane_wave(psi.grid, p), psi) for p in lambdas])
    if family in _CHIRP_FAMILIES:
        member = _CHIRP_FAMILIES[family]
        value = {"alpha": alpha, "theta": theta}[member.param]
        if value is None:
            raise ValueError(f"oracle_family: {family} family requires {member.param}")
        chirp = member.chirp(value)
        _require_chirp_resolved(chirp.a, chirp.b, psi.grid)
        return np.array([inner(member.sample(psi.grid, value, l), psi) for l in lambdas])

    g = psi.grid
    if u_window is None:
        u_window = _default_u_window(g)
    ugrid = log_grid(4 * g.n, float(u_window[0]), float(u_window[1]))
    h = log_resample(psi, ugrid)[family == "correlation_odd"]
    u = ugrid.points
    phases = np.exp(-1j * np.outer(lambdas, u))
    return phases @ h * ugrid.dx / _SQRT_2PI


def conjugation_defect(psi: Wavefunction) -> float:
    """Check that the momentum form of C is the conjugated position form.

    Returns the max-norm defect of ``to_momentum(C psi)`` against
    ``C_momentum(to_momentum(psi))``, where ``C_momentum`` is built by the
    conjugation rule, relative to the peak of ``to_momentum(C psi)``.  This is
    the sharp, operator-level check on a normalizable state.
    """
    lhs = to_momentum(apply_c(psi))
    rhs = apply_c_momentum(to_momentum(psi))
    scale = float(np.abs(lhs.samples).max())
    return float(np.abs(lhs.samples - rhs.samples).max() / scale)


def windowed_conjugation_defect(g: Grid, gamma: float, par: Parity) -> tuple[float, complex]:
    """Diagnostic form of the conjugation rule on one eigenfunction of C.

    Fourier transforms the Gaussian-windowed eigenfunction for eigenvalue
    ``gamma`` and parity ``par`` and compares it, on ``1 <= |p| <= 8``, with
    the complex conjugate eigenfunction after removing the best-fitting
    constant phase.  Returns ``(relative defect, fitted phase)``.  The
    eigenfunctions are not normalizable, so the defect is limited by the
    window bandwidth rather than by the implementation, and no sharp grid
    tolerance exists for it.
    """
    window = np.exp(-g.points**2 / (2.0 * (g.length / 8.0) ** 2))
    xi = correlation_kernel(g, gamma, par)
    kgrid, ft = fourier_sum(window * xi.samples, g)
    ft = ft / _SQRT_2PI
    target = np.conj(correlation_kernel(kgrid, gamma, par).samples)
    p = kgrid.points
    annulus = (np.abs(p) >= 1.0) & (np.abs(p) <= 8.0)
    tgt = target[annulus]
    got = ft[annulus]
    fitted = complex(np.vdot(tgt, got) / np.vdot(tgt, tgt))
    defect = float(np.linalg.norm(got - fitted * tgt) / np.linalg.norm(tgt))
    return defect, fitted
