"""Unitary maps between the representations.

The Fourier pair is a phase-corrected FFT on the centred lattice.  The
interpolating and rotation transforms share one chirp + Fourier + chirp
decomposition, with the chirp on whichever side of the Fourier step the
lattice resolves; its output lattice makes the whole map a single FFT.  The
correlation transform is a Fourier transform in the logarithm of the
coordinate, taken separately in each parity channel.

Every fast path has a direct-summation oracle (`quadrature_oracle`) against
which it is validated in the test and verify suites.
"""

from __future__ import annotations

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
    interp_label,
    inverse_fourier_sum,
    log_grid,
    log_resample,
    require_contained,
    require_momentum_decay,
    rotation_label,
)
from .kernels import (
    Parity,
    _Chirp,
    _interp_chirp,
    _rotation_chirp,
    chirp_step_bound,
    correlation_kernel,
    interp_kernel,
    plane_wave,
    rotation_kernel,
)
from .operators import apply_c, apply_c_momentum

__all__ = [
    "CorrelationSpectrum",
    "ConjugationReport",
    "to_momentum",
    "from_momentum",
    "interp_transform",
    "rotation_transform",
    "correlation_transform",
    "correlation_inverse",
    "quadrature_oracle",
    "fourier_conjugate_property",
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
    if psi.label != POSITION:
        raise ValueError("position_label: to_momentum expects position-representation samples")
    require_contained(psi)
    kgrid, tilde = fourier_sum(psi.samples, psi.grid)
    require_momentum_decay(tilde)
    return Wavefunction(kgrid, tilde / _SQRT_2PI, MOMENTUM)


def from_momentum(phi: Wavefunction) -> Wavefunction:
    """Exact inverse of :func:`to_momentum`."""
    if phi.label != MOMENTUM:
        raise ValueError("momentum_label: from_momentum expects momentum-representation samples")
    xgrid = dual_grid(phi.grid)
    out = inverse_fourier_sum(phi.samples, phi.grid, xgrid) / _SQRT_2PI
    return Wavefunction(xgrid, out, POSITION)


def _linear_transform(psi: Wavefunction, chirp: _Chirp, label) -> Wavefunction:
    """``<kernel_lam, psi>`` for one ``a X + b P`` member, by one FFT on either side.

    Position side, on ``lam_k = b p_k``:
        e^(-i pi/4) (2 pi b)^(-1/2) e^(i kappa lam^2)
        * sum_j e^(i a x_j^2/(2b)) psi_j e^(-i lam x_j/b) dx
    Momentum side, on ``lam_j = a x_j``, with ``phi`` the momentum samples:
        (2 pi a)^(-1/2) e^(-i mu lam^2) sum_m e^(-i b p_m^2/(2a)) phi_m e^(i lam p_m/a) dp
    The edge chirp steps ``(a/b) n dx^2/2`` and ``(b/a) n dp^2/2`` multiply to
    ``pi^2``; the smaller belongs to the coarser lattice, which is taken, so the
    chirp never steps by more than ``pi``.  Which side is taken is an internal
    choice, so neither side checks the momentum edge (``momentum_decay``).
    """
    if psi.label != POSITION:
        raise ValueError(
            f"position_label: {label.kind}_transform expects position-representation samples"
        )
    require_contained(psi)
    a, b, kappa, mu = chirp
    g = psi.grid
    if a * g.dx <= b * dual_grid(g).dx:
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
    label = interp_label(alpha)
    return _linear_transform(psi, _interp_chirp(alpha), label)


def rotation_transform(psi: Wavefunction, theta: float) -> Wavefunction:
    """Expand in the eigenbasis of ``X cos(theta) + P sin(theta)``.

    Same map as :func:`interp_transform` with coefficients ``(cos theta,
    sin theta)``, on ``lam_k = sin(theta) p_k`` or ``lam_j = cos(theta) x_j``.
    """
    label = rotation_label(theta)
    return _linear_transform(psi, _rotation_chirp(theta), label)


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


def _parity_parts(psi: Wavefunction) -> tuple[np.ndarray, np.ndarray]:
    idx = (-np.arange(psi.grid.n)) % psi.grid.n
    flipped = psi.samples[idx]
    even = 0.5 * (psi.samples + flipped)
    return even, psi.samples - even


def correlation_transform(
    psi: Wavefunction,
    u_window: tuple[float, float] | None = None,
    n_gamma: int | None = None,
) -> CorrelationSpectrum:
    """Expand in the definite-parity eigenbasis of ``(XP + PX)/2``.

    Each parity component is resampled onto a uniform lattice in
    ``u = ln|x|`` (where the eigenfunctions become plane waves) and Fourier
    transformed:

        channel(gamma) = (2 pi)^(-1/2) sum_i h(u_i) e^(-i gamma u_i) du,
        h(u) = sqrt(2) e^(u/2) psi_parity(e^u).

    Defaults: ``u_window = (ln(4 dx), ln(min(0.45 length, x_max)))`` and
    ``n_gamma = 2 n``.  States with appreciable probability near the origin
    need a lower ``u_min`` than the default; the unseen probability is
    always reported in ``tail_mass``.
    """
    if psi.label != POSITION:
        raise ValueError(
            "position_label: correlation_transform expects position-representation samples"
        )
    g = psi.grid
    if u_window is None:
        u_window = _default_u_window(g)
    if n_gamma is None:
        n_gamma = 2 * g.n
    u_min, u_max = float(u_window[0]), float(u_window[1])
    ugrid = log_grid(n_gamma, u_min, u_max)

    even_part, odd_part = _parity_parts(psi)
    psi_e = Wavefunction(g, even_part, POSITION)
    psi_o = Wavefunction(g, odd_part, POSITION)
    h_even = log_resample(psi_e, ugrid, +1)
    h_odd = log_resample(psi_o, ugrid, +1)

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

    Inverts the log-variable Fourier transform channel by channel and
    interpolates both channels back onto ``g`` with
    :func:`~qrep.grid.cubic_interpolate`, the not-a-knot cubic spline on the
    uniform ``u`` knots (SciPy's ``CubicSpline`` default); points outside the
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

    x = g.points
    out = np.zeros(g.n, dtype=complex)
    ax = np.abs(x)
    covered = (ax >= np.exp(u[0])) & (ax <= np.exp(u[-1])) & (ax > 0.0)
    lu = np.log(ax[covered])
    sgn = np.sign(x[covered])
    even = cubic_interpolate(spec.u_grid, h_even, lu)
    odd = cubic_interpolate(spec.u_grid, h_odd, lu)
    out[covered] = (even + sgn * odd) / np.sqrt(2.0 * ax[covered])
    return Wavefunction(g, out, POSITION)


_ORACLE_FAMILIES = ("plane_wave", "interp", "rotation", "correlation_even", "correlation_odd")


def quadrature_oracle(
    psi: Wavefunction,
    family: str,
    lambdas: np.ndarray,
    alpha: float | None = None,
    theta: float | None = None,
    u_window: tuple[float, float] | None = None,
    n_u: int | None = None,
) -> np.ndarray:
    """Ground-truth expansion coefficients by direct summation.

    O(n) per eigenvalue with a fixed summation order, so results are
    deterministic.  For the chirp families it shares only the kernel with the
    fast transforms.  Its rectangle sum aliases where ``psi``'s lattice does
    not resolve the kernel chirp ``e^(-i a x^2/(2b))``, so such lattices are
    refused with ``nyquist_chirp_step`` (``chirp_step_bound``); sum on a finer
    grid instead.  For the correlation family the sum runs on its own log
    lattice (twice the default density), sharing only the interpolation step
    with the fast path.
    """
    if psi.label != POSITION:
        raise ValueError("position_label: quadrature_oracle expects position-representation samples")
    if family not in _ORACLE_FAMILIES:
        raise ValueError(f"oracle_family: unknown kernel family {family!r}")
    lambdas = np.asarray(lambdas, dtype=float)

    if family == "plane_wave":
        return np.array([inner(plane_wave(psi.grid, p), psi) for p in lambdas])
    if family in ("interp", "rotation"):
        name, value, check, make_chirp, sample = {
            "interp": ("alpha", alpha, interp_label, _interp_chirp, interp_kernel),
            "rotation": ("theta", theta, rotation_label, _rotation_chirp, rotation_kernel),
        }[family]
        if value is None:
            raise ValueError(f"oracle_family: {family} family requires {name}")
        check(value)
        a, b, _, _ = make_chirp(value)
        if b > 0.0:
            chirp_step_bound(a / b, psi.grid)
        return np.array([inner(sample(psi.grid, value, l), psi) for l in lambdas])

    g = psi.grid
    if u_window is None:
        u_window = _default_u_window(g)
    if n_u is None:
        n_u = 4 * g.n
    ugrid = log_grid(n_u, float(u_window[0]), float(u_window[1]))
    even_part, odd_part = _parity_parts(psi)
    part = even_part if family == "correlation_even" else odd_part
    h = log_resample(Wavefunction(g, part, POSITION), ugrid, +1)
    u = ugrid.points
    phases = np.exp(-1j * np.outer(lambdas, u))
    return phases @ h * ugrid.dx / _SQRT_2PI


@dataclass(frozen=True)
class ConjugationReport:
    """Two views of the momentum-side correlation operator.

    ``operator_defect`` compares ``C`` applied before and after the Fourier
    map on a normalizable state (sharp check).  ``windowed_defect`` is the
    diagnostic residual of the Fourier-transformed, Gaussian-windowed
    eigenfunction against its complex conjugate with the best-fitting
    constant phase removed, measured away from the origin; it is limited by
    the window bandwidth, not by the implementation.
    """

    operator_defect: float
    windowed_defect: float
    fitted_phase: complex


def fourier_conjugate_property(
    g: Grid, gamma: float, par: Parity, state: Wavefunction | None = None
) -> ConjugationReport:
    """Check that the momentum form of C is the conjugated position form.

    The sharp assertion is operator-level: for a factory state,
    ``to_momentum(C psi)`` must equal ``C_momentum(to_momentum(psi))`` where
    ``C_momentum`` is built by the conjugation rule.  The windowed-kernel
    comparison for eigenvalue ``gamma`` and parity ``par`` is reported as a
    diagnostic only; the eigenfunctions are not normalizable, so no sharp
    grid tolerance exists for them.
    """
    if state is None:
        from .states import GaussianSpec, gaussian

        state = gaussian(g, GaussianSpec(s=1.0, c=2.0))
    lhs = to_momentum(apply_c(state))
    rhs = apply_c_momentum(to_momentum(state))
    scale = float(np.abs(lhs.samples).max())
    operator_defect = float(np.abs(lhs.samples - rhs.samples).max() / scale)

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
    windowed_defect = float(
        np.linalg.norm(got - fitted * tgt) / np.linalg.norm(tgt)
    )
    return ConjugationReport(operator_defect, windowed_defect, fitted)
