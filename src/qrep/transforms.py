"""Unitary maps between the representations.

The Fourier pair is a phase-corrected FFT on the centred lattice.  The
interpolating and rotation transforms share one chirp + Fourier + chirp
decomposition of an ``a X + b P`` member (``kernels._Chirp``), with the chirp
on the position side where the lattice resolves it (``a dx <= b dp``,
``kernels._chirp_resolved``) and on the momentum side otherwise; its output
lattice makes the whole map one FFT on the position side, two on the momentum
side.  The correlation transform is a Fourier transform in the logarithm of
the coordinate, taken separately in each parity channel.

Every fast path has a direct-summation oracle (`quadrature_oracle`) against
which it is validated in the test and verify suites.  This module holds the
maps, the oracle and the one table of eigenfunction families (``_FAMILIES``),
which the oracle, the CLI and verify read; the checks built on the maps, the
conjugation rule for ``C`` among them, live in :mod:`qrep.verify`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .grid import (
    MOMENTUM,
    POSITION,
    Grid,
    RepresentationLabel,
    Wavefunction,
    _FIT_MARGIN,
    _SQRT_2PI,
    _cis,
    _fourier_sum_inplace,
    _require_log_support,
    cubic_interpolate,
    dual_grid,
    inverse_fourier_sum,
    log_grid,
    log_resample,
    require_contained,
    require_label,
    require_momentum_decay,
)
from .kernels import (
    Parity,
    _chirp_resolved,
    _interp_chirp,
    _member_samples,
    _require_chirp_resolved,
    _require_finite_eigenvalue,
    _require_resolved,
    _rotation_chirp,
    correlation_kernel,
    fresnel_delta,
    interp_kernel,
    plane_wave,
    position_kernel_in_momentum,
    rotation_kernel,
)

__all__ = [
    "CorrelationSpectrum",
    "to_momentum",
    "from_momentum",
    "interp_transform",
    "rotation_transform",
    "correlation_transform",
    "correlation_inverse",
    "quadrature_oracle",
    "FAST_PATH_ALPHA_MARGIN",
    "INVERSE_TAIL_TOL",
]

# Selects nothing in qrep: every alpha in [0, 1] takes the exact two-sided
# transform.  Kept, with its value, for the benchmark's input ranges.
FAST_PATH_ALPHA_MARGIN = 1e-3

INVERSE_TAIL_TOL = 1e-6


def to_momentum(psi: Wavefunction) -> Wavefunction:
    """Fourier map to the momentum representation.

    psi_tilde(p) = (2 pi)^(-1/2) sum_j psi_j e^(-i p x_j) dx

    on the monotone dual lattice.  Exactly unitary on the grid.  The state
    must have decayed at both position edges and both momentum edges.  The
    sum is the state's kept one (``Wavefunction._fourier``).
    """
    require_label(psi, POSITION, "to_momentum")
    require_contained(psi)
    kgrid, tilde = psi._fourier
    require_momentum_decay(tilde)
    return Wavefunction(kgrid, tilde / _SQRT_2PI, MOMENTUM)


def from_momentum(phi: Wavefunction) -> Wavefunction:
    """Exact inverse of :func:`to_momentum`, on ``dual_grid(phi.grid)``: the
    centred grid, even when ``phi`` came from an offset position grid."""
    require_label(phi, MOMENTUM, "from_momentum")
    xgrid = dual_grid(phi.grid)
    out = inverse_fourier_sum(phi.samples, xgrid) / _SQRT_2PI
    return Wavefunction(xgrid, out, POSITION)


def _linear_transform(psi: Wavefunction, family: str, value: float) -> Wavefunction:
    """``<kernel_lam, psi>`` for the ``a X + b P`` member ``value`` of the table
    family ``family``, labelled by the two: one FFT, two on the momentum side.

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
    The momentum side reads the state's kept sum (``Wavefunction._fourier``);
    the position side forms its chirps and output in place, each product
    with the operand order of the expressions above, and its input chirp on
    the state's support (``Wavefunction._support``) alone.
    """
    chirp = _FAMILIES[family].chirp(value)
    label = RepresentationLabel(family, float(value))
    require_label(psi, POSITION, f"{family}_transform")
    require_contained(psi)
    a, b, kappa, mu = chirp.a, chirp.b, chirp.kappa, chirp.mu
    g = psi.grid
    if _chirp_resolved(a, b, g):
        # The input chirp is formed on the state's support alone; the sum's
        # buffer is +0 elsewhere, where the state is.
        lo, hi = psi._support
        x = g._span_points(lo, hi)
        np.square(x, out=x)
        x *= a / b
        x /= 2.0
        G = np.empty(g.n, dtype=complex) if (lo, hi) == (0, g.n) else np.zeros(g.n, dtype=complex)
        chirp_in = _cis(x, out=G[lo:hi])
        np.multiply(chirp_in, psi.samples[lo:hi], out=chirp_in)
        kgrid = _fourier_sum_inplace(G, g)
        dlam = b * kgrid.dx
        lam_grid = Grid(g.n, dlam, -(g.n // 2) * dlam)
        lam = lam_grid.points
        np.square(lam, out=lam)
        lam *= kappa
        out = _cis(lam)
        np.multiply(_cis(-np.pi / 4.0), out, out=out)
        np.multiply(out, G, out=out)
        out /= np.sqrt(2.0 * np.pi * b)
        return Wavefunction(lam_grid, out, label)
    kgrid, tilde = psi._fourier
    pre = _cis(-(b / a) * kgrid.points**2 / 2.0)
    S = inverse_fourier_sum(pre * (tilde / _SQRT_2PI), g)
    lam_grid = Grid(g.n, a * g.dx, a * g.x_min)
    lam = lam_grid.points
    out = _cis(-mu * lam**2) * S / np.sqrt(2.0 * np.pi * a)
    return Wavefunction(lam_grid, out, label)


def interp_transform(psi: Wavefunction, alpha: float) -> Wavefunction:
    """Expand in the eigenbasis of ``alpha*X + (1-alpha)*P``.

    Output samples are ``<eta_lam, psi>`` on the lattice ``lam_k = (1-alpha) p_k``
    or ``lam_j = alpha x_j``, whichever is coarser.  Every ``alpha`` in ``[0, 1]``
    is one FFT (two on the momentum side) with a resolved chirp, so the map is
    unitary on the grid; at ``alpha = 0`` it is ``e^(-i pi/4)`` times the Fourier map
    and at ``alpha = 1`` it is ``e^(-i x^2/2) psi(x)``, both to rounding.
    """
    return _linear_transform(psi, "interp", alpha)


def rotation_transform(psi: Wavefunction, theta: float) -> Wavefunction:
    """Expand in the eigenbasis of ``X cos(theta) + P sin(theta)``.

    Same map as :func:`interp_transform` with coefficients ``(cos theta,
    sin theta)``, on ``lam_k = sin(theta) p_k`` or ``lam_j = cos(theta) x_j``.
    """
    return _linear_transform(psi, "rotation", theta)


# Every eigenfunction family, by its oracle name, which is also the label kind
# of an ``a X + b P`` family's transform output: the one parameter it takes, or
# None; its member builder, for the ``a X + b P`` families; its sampler of
# (grid, parameter, eigenvalue); its forward map of (state, parameter), where
# qrep has one; and whether quadrature_oracle sums it.
_Family = namedtuple("_Family", "param chirp sample transform summed")
_FAMILIES = {
    "plane_wave": _Family(None, None, lambda g, _, p: plane_wave(g, p),
                          lambda psi, _: to_momentum(psi), True),
    "position_in_momentum": _Family(
        None, None, lambda g, _, a: position_kernel_in_momentum(dual_grid(g), a), None, False),
    "interp": _Family("alpha", _interp_chirp, interp_kernel, interp_transform, True),
    "rotation": _Family("theta", _rotation_chirp, rotation_kernel, rotation_transform, True),
    "correlation_even": _Family(
        None, None, lambda g, _, gamma: correlation_kernel(g, gamma, Parity.EVEN), None, True),
    "correlation_odd": _Family(
        None, None, lambda g, _, gamma: correlation_kernel(g, gamma, Parity.ODD), None, True),
    "fresnel": _Family("eps", None, lambda g, eps, _: fresnel_delta(g, eps), None, False),
}


def _family_value(name: str, given: dict, code: str, g: Grid, flag: str, shown: str):
    """The parameter of family ``name`` in ``given`` (each option's value or None),
    or None for a family without one.  Foreign options, or the family's own left
    out, are refused with the caller's ``code``, option prefix ``flag`` and family
    spelling ``shown``; then a chirp ``g`` does not resolve, by ``nyquist_chirp_step``."""
    family = _FAMILIES[name]
    extra = [flag + k for k, v in given.items() if v is not None and k != family.param]
    if extra:
        raise ValueError(f"{code}: {shown} family takes no {' or '.join(extra)}")
    value = None if family.param is None else given[family.param]
    if family.param is not None and value is None:
        raise ValueError(f"{code}: {shown} family requires {flag}{family.param}")
    if family.chirp is not None:
        chirp = family.chirp(value)
        _require_chirp_resolved(chirp.a, chirp.b, g)
    return value


@dataclass(frozen=True)
class CorrelationSpectrum:
    """Even/odd channel coefficients of the correlation-operator expansion.

    The coefficients sit on ``gamma_grid``, the Fourier dual of the log
    lattice ``u_grid``, so the two lattices are always a Fourier pair.
    ``tail_mass`` is the position-space probability the finite log window
    could not see (outside ``e^u_min <= |x| <= e^u_max``); it is reported
    rather than silently dropped, and the channel power satisfies
    ``sum (|even|^2 + |odd|^2) dgamma = 1 - tail_mass`` up to interpolation
    error for a normalized input.
    """

    even: np.ndarray
    odd: np.ndarray
    tail_mass: float
    u_grid: Grid

    def __post_init__(self):
        n = self.u_grid.n
        if self.even.shape != (n,) or self.odd.shape != (n,):
            raise ValueError(
                f"channel_length: expected {n} coefficients per parity channel, "
                f"got {self.even.shape} and {self.odd.shape}"
            )

    @property
    def gamma_grid(self) -> Grid:
        return dual_grid(self.u_grid)

    def channel_power(self) -> float:
        dg = self.gamma_grid.dx
        return float(np.sum(np.abs(self.even) ** 2 + np.abs(self.odd) ** 2) * dg)


def _default_u_window(g: Grid) -> tuple[float, float]:
    # u_min = -14 leaves ~1e-6 of a unit-width state unseen near the origin;
    # ln(4 dx) takes over only on grids finer than that.  0.45 length lies
    # inside the last positive sample only for n >= 32; smaller grids, and
    # offset grids with a shorter half-line, stop at min(x_max, -x_min), so
    # that log_resample never extrapolates on either side of the origin.
    edge = min(0.45 * g.length, g.x_max, -g.x_min)
    if not edge > 0.0:
        raise ValueError(
            f"log_window_support: the default log window needs samples on both sides "
            f"of the origin, got {g}"
        )
    return (min(-14.0, float(np.log(4.0 * g.dx))), float(np.log(edge)))


def _default_n_gamma(g: Grid, u_window: tuple[float, float]) -> int:
    # 2n points, doubled until du is no coarser than 2n points over
    # (ln(4 dx), u_max): reaching down to the origin must not coarsen the
    # lattice that states away from it need, since h(u) oscillates at the
    # u-frequency p x.  Grids of under ten points have 4 dx past u_max.
    u_min, u_max = u_window
    reach = u_max - float(np.log(4.0 * g.dx))
    n_gamma = 2 * g.n
    while reach > 0.0 and n_gamma * reach < 2 * g.n * (u_max - u_min):
        n_gamma *= 2
    return n_gamma


# The log lattice a state needs.  h(u) oscillates at the u-frequency x p, so
# gamma_max = r p bounds its spectrum, with r and p the radii beyond which the
# state holds less than _TAIL_FLOOR of its probability in position and in
# momentum: below the rounding of its norm.  The lattice takes du = pi/(m
# gamma_max), m = _DU_REFINE times the Nyquist step at gamma_max.  Its error
# target is the spline read back of correlation_inverse, which falls as m^-4:
# on 48 of the benchmark's n = 2^18, L = 640 draws (seeds 1, 2, 3 and 1601,
# window (-20, ln 288)) m = 8 read a round trip <= 1.2e-7 and a Parseval
# defect <= 4.4e-10, two decades inside correlation_roundtrip's 1e-5 and
# correlation_parseval's 1e-6; m = 4 read a round trip of 2.0e-6.
_TAIL_FLOOR = 1e-16
_DU_REFINE = 8
_MIN_N_GAMMA = 8


def _tail_radius(g: Grid, samples: np.ndarray, first: int = 0) -> float:
    """Smallest radius beyond which ``sum |samples|^2`` falls below
    ``_TAIL_FLOOR`` of the whole sum, in whole cells; ``samples`` are those
    of ``g`` from index ``first`` on, and every other sample is 0.

    Sample ``j`` lies ``|round(x_min/dx) + j|`` cells from the origin.  The
    weights are binned by that radius and summed inwards from the two ends
    of the lattice at once: O(len(samples)), with no sort.  A floor of 0
    (the all-zero state) holds at every radius, so the lattice's largest is
    taken.
    """
    weight = np.abs(samples)
    np.square(weight, out=weight)
    origin = int(np.rint(g.x_min / g.dx))
    cells = np.abs(np.arange(origin + first, origin + first + len(samples)))
    tail = np.cumsum(np.bincount(cells, weights=weight)[::-1])[::-1]
    floor = _TAIL_FLOOR * tail[0] if tail.size else 0.0
    if not floor:
        return max(-origin, origin + g.n - 1) * g.dx
    return (np.count_nonzero(tail >= floor) - 1) * g.dx


def _state_n_gamma(psi: Wavefunction, span: float, cap: int) -> int:
    """Points of a log lattice over ``span`` in ``u`` that resolves ``psi``:
    the power of two at or above ``span/du``, ``du = pi/(m r p)``, at least
    ``_MIN_N_GAMMA`` and at most the power of two ``cap``.  ``p`` is read
    from the state's kept Fourier sum (``Wavefunction._fourier``), which
    ``to_momentum`` and ``apply_p`` share, so a state pays for it once;
    ``r`` is read from the state's support (``Wavefunction._support``)."""
    kgrid, tilde = psi._fourier
    first, stop = psi._support
    r = _tail_radius(psi.grid, psi.samples[first:stop], first)
    gamma_max = r * _tail_radius(kgrid, tilde)
    need = span * _DU_REFINE * gamma_max / np.pi
    size = _MIN_N_GAMMA
    while size < min(need, cap):
        size *= 2
    return size


def correlation_transform(
    psi: Wavefunction, u_window: tuple[float, float] | None = None
) -> CorrelationSpectrum:
    """Expand in the definite-parity eigenbasis of ``(XP + PX)/2``.

    Both parity channels are resampled onto a uniform lattice in
    ``u = ln|x|`` (where the eigenfunctions become plane waves) by one
    :func:`~qrep.grid.log_resample` call and Fourier transformed:

        channel(gamma) = (2 pi)^(-1/2) sum_i h(u_i) e^(-i gamma u_i) du,
        h(u) = e^(u/2) (psi(e^u) +- psi(-e^u)) / sqrt(2).

    The lattice depends on the state as well as the window.  ``h`` oscillates
    at the u-frequency ``p x``, so the state needs ``du <= pi/(m r p)``, with
    ``m = 8`` and ``r`` and ``p`` the radii in position and momentum beyond
    which it holds less than ``1e-16`` of its probability; it gets the power
    of two at or above ``(u_max - u_min)/du`` points, at least 8, capped at
    the window's count.  A given window's count is ``2 n``.  The default
    window, ``(min(-14, ln(4 dx)), ln(min(0.45 length, x_max, -x_min)))``,
    which ends on the shorter half-line, counts ``2 n`` doubled until ``du``
    is no coarser than that of ``2 n`` points over ``(ln(4 dx), u_max)`` (8n
    at n = 1024, length 40), so reaching down to the origin never coarsens
    the lattice below that.  The unit Gaussian gets 2048 points on either
    window at n = 1024.
    The default ``u_min`` leaves about 1e-6 of a
    unit-width state unseen near the origin, so a state of that scale can be
    read back by :func:`correlation_inverse`; narrower states need a lower
    ``u_min``.  The unseen probability is always reported in ``tail_mass``.
    The state must have decayed at both domain edges (``boundary_decay``), as
    the spline read presumes.  Every window guard fires before the state is
    sized.
    """
    require_label(psi, POSITION, "correlation_transform")
    require_contained(psi)
    g = psi.grid
    cap = 2 * g.n
    if u_window is None:
        u_window = _default_u_window(g)
        cap = _default_n_gamma(g, u_window)
    u_min, u_max = float(u_window[0]), float(u_window[1])
    # every window guard fires on the capped lattice, before the state is sized;
    # a coarser lattice ends lower in u, so log_resample's guard then holds
    _require_log_support(g, log_grid(cap, u_min, u_max))
    ugrid = log_grid(_state_n_gamma(psi, u_max - u_min, cap), u_min, u_max)

    # log_resample's two fresh channels are summed and scaled in place.
    even, odd = log_resample(psi, ugrid)
    for channel in (even, odd):
        _fourier_sum_inplace(channel, ugrid)
        channel /= _SQRT_2PI

    return CorrelationSpectrum(
        even=even,
        odd=odd,
        tail_mass=_tail_mass(psi, np.exp(u_min), np.exp(u_max)),
        u_grid=ugrid,
    )


def _points_below(g: Grid, v: float, inclusive: bool) -> int:
    """How many points of ``g`` lie below ``v``, or at or below it if
    ``inclusive``: ``np.searchsorted(g.points, v)`` with side ``"right"`` or
    ``"left"``, found from ``x_min`` and ``dx`` with no pass over the lattice.
    The estimate is corrected against the points as ``Grid.points`` forms
    them, ``j dx + x_min``."""
    def counted(j: int) -> bool:
        x = j * g.dx + g.x_min
        return x <= v if inclusive else x < v
    j = int(np.clip(np.ceil((v - g.x_min) / g.dx), 0, g.n))
    while j > 0 and not counted(j - 1):
        j -= 1
    while j < g.n and counted(j):
        j += 1
    return j


def _annulus(g: Grid, r_min: float, r_max: float) -> tuple[slice, slice]:
    """Index ranges of the samples with ``r_min <= |x| <= r_max`` on ``x < 0``
    and on ``x > 0``; a sample at ``x = 0`` lies on neither, even if ``r_min = 0``."""
    r_min = max(r_min, np.nextafter(0.0, 1.0))
    neg = slice(_points_below(g, -r_max, False), _points_below(g, -r_min, True))
    pos = slice(_points_below(g, r_min, False), _points_below(g, r_max, True))
    return neg, pos


def _tail_mass(psi: Wavefunction, r_min: float, r_max: float) -> float:
    """Probability outside the annulus ``r_min <= |x| <= r_max``.

    Beyond ``r_max`` it is the rectangle sum over the samples there.  The
    hole ``|x| < r_min`` is the trapezoid integral of ``|psi|^2`` over
    ``[-r_min, r_min]``, its end cells cut by linear interpolation, so it
    sees odd states, which vanish at the origin, as well as even ones.  Both
    read the index ranges of :func:`_annulus`; the window lies inside the
    lattice, as :func:`~qrep.grid.log_resample` requires.
    """
    g, samples = psi.grid, psi.samples
    neg, pos = _annulus(g, r_min, r_max)
    tails = np.concatenate((samples[: neg.start], samples[pos.stop :]))
    outer = np.sum(np.abs(tails) ** 2) * g.dx
    # x[a - 1] <= -r_min < x[a] and x[b - 1] < r_min <= x[b]
    a, b = neg.stop, pos.start
    knots = g._span_points(a - 1, b + 1)
    w = np.abs(samples[a - 1:b + 1]) ** 2
    w_lo = w[0] + (-r_min - knots[0]) / g.dx * (w[1] - w[0])
    w_hi = w[-1] + (knots[-1] - r_min) / g.dx * (w[-2] - w[-1])
    knots[0], knots[-1], w[0], w[-1] = -r_min, r_min, w_lo, w_hi
    hole = np.sum((w[1:] + w[:-1]) * np.diff(knots)) / 2.0
    return float(outer + hole)


# A read-back sum below this fraction of the two sums' peak is rounding.  On
# 40 lib_large draws (n = 2^18, L = 640, window (-20, ln 288), seed 1) the
# sums read at most 3.6e-16 of their peak where log_resample wrote +0, and
# this floor reads each half-line out to a median |x| of 16 (at most 50),
# against e^u_max = 288.
_READ_FLOOR = 1e-14


def correlation_inverse(spec: CorrelationSpectrum, g: Grid) -> Wavefunction:
    """Position samples on ``g`` from a correlation spectrum, inverting
    :func:`~qrep.grid.log_resample`: the sum and the difference of the channels'
    inverse Fourier sums, read by :func:`~qrep.grid.cubic_interpolate` at ``ln|x|``
    on ``x > 0`` and on ``x < 0`` and divided by ``sqrt(2 |x|)``.  Points outside
    the annulus ``e^u_min <= |x| <= e^u_max`` are zero.  The spectrum's
    ``tail_mass`` must not exceed ``INVERSE_TAIL_TOL``, and both sums must be
    finite (``sample_finite``).

    Each half-line is read only out to ``_FIT_MARGIN`` knots past the last
    knot where its sum exceeds ``1e-14`` of the two sums' peak, the reach
    :func:`~qrep.grid.log_resample` gives a state's support; a half-line with
    no such knot is not read.  Every sample read is the whole annulus's read
    bit for bit, and every other sample is ``+0``, where that read gives
    values at the sums' rounding level.
    """
    if spec.tail_mass > INVERSE_TAIL_TOL:
        raise ValueError(
            f"inverse_tail_mass: tail mass {spec.tail_mass:.3e} exceeds {INVERSE_TAIL_TOL:g}; "
            "widen the log window before inverting"
        )
    u_grid = spec.u_grid
    # a non-finite channel makes the sums NaN; the guard below refuses them,
    # with no floating-point warning first
    with np.errstate(invalid="ignore", over="ignore"):
        h_even, h_odd = (inverse_fourier_sum(c, u_grid) / _SQRT_2PI for c in (spec.even, spec.odd))
        h_diff = h_even - h_odd  # psi(-e^u); psi(e^u) is the sum, formed in h_even
        h_even += h_odd
        del h_odd
        sizes = [np.abs(h) for h in (h_diff, h_even)]
    peaks = [size.max() for size in sizes]
    if not np.isfinite(peaks).all():
        raise ValueError("sample_finite: the correlation channels' inverse sums must all be finite")
    floor = _READ_FLOOR * max(peaks)
    r_min, r_max = np.exp(u_grid.x_min), np.exp(u_grid.x_max)
    reads = []
    for side, (h, size) in enumerate(zip((h_diff, h_even), sizes)):
        above = np.flatnonzero(size > floor)
        if not above.size:  # a half-line whose sum never leaves rounding is not read
            continue
        r_read = min(r_max, np.exp(u_grid.x_min + (above[-1] + _FIT_MARGIN) * u_grid.dx))
        s = _annulus(g, r_min, r_read)[side]
        if s.start < s.stop:  # a half-line with no sample in the annulus is not read
            r = np.abs(g._span_points(s.start, s.stop))
            values = cubic_interpolate(u_grid, h, np.log(r))
            values /= np.sqrt(2.0 * r)
            reads.append((s, values))
            del r, values
    # The output is allocated once both reads are done and the u-lattice sums
    # freed; each read is freed once placed, before the state's copy.
    del h_diff, h_even, h, sizes, size, above
    out = np.zeros(g.n, dtype=complex)
    while reads:
        s, values = reads.pop()
        out[s] = values
        del values
    return Wavefunction(g, out, POSITION)


# Veltkamp's splitter for doubles, 2^27 + 1.
_SPLITTER = 134217729.0


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """Dekker's error-free product: ``a b = p + e`` exactly, barring overflow."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _exp_minus_i(hi, lo):
    """``e^(-i (hi + lo))``, first order in the small ``lo``."""
    return _cis(-hi) * (1.0 - 1j * lo)


def _phase_ladder(freqs: np.ndarray, step: float, count: int) -> np.ndarray:
    """``e^(-i f step k)`` for ``k < count``, one row per ``f`` in ``freqs``.

    ``f step`` and then ``(f step) k`` are exact double-double products, so
    each entry is a few ulps from the exact phase, however large ``f step k``.
    """
    c_hi, c_lo = _two_prod(freqs, step)
    k = np.arange(count, dtype=float)
    hi, lo = _two_prod(c_hi[:, None], k)
    return _exp_minus_i(hi, lo + c_lo[:, None] * k)


def _plane_wave_sums(g: Grid, target: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``sum_j e^(-i f x_j) target_j dx`` for every ``f`` in ``freqs``, on the
    exact lattice ``x_j = x_min + j dx``.

    With ``j = k + n1 m`` and ``n1 ~ sqrt(n)`` the phase factors into a row of
    ``n1`` and a row of ``n/n1`` exponentials, so each frequency costs O(sqrt n)
    exponentials and O(n) multiply-adds.  The contraction is NumPy's own loop,
    not BLAS, so the result does not depend on the BLAS thread count.
    """
    n1 = 1 << (g.n.bit_length() - 1) // 2
    n2 = g.n // n1
    inner = _phase_ladder(freqs, g.dx, n1)
    outer = _phase_ladder(freqs, g.dx * n1, n2)
    blocks = np.einsum("fk,mk->fm", inner, target.reshape(n2, n1))
    origin = _exp_minus_i(*_two_prod(freqs, g.x_min))
    return origin * (blocks * outer).sum(axis=1) * g.dx


def quadrature_oracle(
    psi: Wavefunction,
    family: str,
    lambdas: np.ndarray,
    alpha: float | None = None,
    theta: float | None = None,
) -> np.ndarray:
    """Ground-truth expansion coefficients by direct summation.

    Every family is one rectangle sum ``sum_j conj(kernel_lam)(x_j) target_j
    dx`` over the exact lattice ``x_j = x_min + j dx``, taken by
    ``_plane_wave_sums`` for all eigenvalues at once: O(sqrt n) exponentials
    and O(n) multiply-adds per eigenvalue, each phase a few ulps from exact
    however large ``lam x``, in an order fixed by NumPy rather than BLAS, so
    the result does not depend on the BLAS thread count.  It calls no fast
    transform, and no kernel sampler but the point mass below; the tests tie
    it to both.

    * ``plane_wave``: frequency ``lam`` on ``psi``, times ``(2 pi)^(-1/2)``.
    * ``interp``/``rotation``, ``b > 0``: the chirp ``e^(i a x^2/(2b))`` times
      ``psi`` at frequency ``lam/b``, times ``(2 pi b)^(-1/2) e^(-i (pi/4 -
      kappa lam^2))``.  The sum aliases where ``psi``'s lattice does not
      resolve the chirp (``a dx > b dp``), which is refused with
      ``nyquist_chirp_step``.  The ``alpha = 1`` point mass is summed
      against :func:`~qrep.kernels.interp_kernel`'s samples, one nonzero
      term per eigenvalue.
    * ``correlation_even``/``correlation_odd``: plane waves in ``u = ln|x|``,
      frequency ``gamma`` on a parity channel of
      :func:`~qrep.grid.log_resample` on a log lattice of ``4 n`` points over
      the default window of :func:`correlation_transform` (at least twice the
      density of the at most ``2 n`` points that window gets when passed,
      which verify checks), times ``(2 pi)^(-1/2)``.
      A ``|gamma| > pi/du`` of that lattice is refused with
      ``oracle_gamma_range``.

    A family the table does not mark as summed (``position_in_momentum``,
    ``fresnel``) or a parameter the family does not take is refused with
    ``oracle_family``, and ``lambdas`` of any shape but 1-D with
    ``oracle_eigenvalue_shape``.
    Every guard fires before any sum; a non-finite coefficient is refused
    with ``sample_finite``.
    """
    require_label(psi, POSITION, "quadrature_oracle")
    if family not in _FAMILIES or not _FAMILIES[family].summed:
        raise ValueError(f"oracle_family: unknown kernel family {family!r}")
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1:
        raise ValueError("oracle_eigenvalue_shape: lambdas must be a 1-D array, "
                         f"got shape {lambdas.shape}")
    g = psi.grid
    value = _family_value(family, {"alpha": alpha, "theta": theta}, "oracle_family", g, "",
                          family)

    if _FAMILIES[family].chirp is not None:
        chirp = _FAMILIES[family].chirp(value)
        _require_finite_eigenvalue("lam", lambdas)
        a, b = chirp.a, chirp.b
        if b > 0.0:
            pre = _cis(a * g.points**2 / (2.0 * b)) * psi.samples
            scale = (_cis(-(np.pi / 4.0 - chirp.kappa * lambdas**2))
                     / np.sqrt(2.0 * np.pi * b))
            out = scale * _plane_wave_sums(g, pre, lambdas / b)
        else:
            out = np.array([np.vdot(_member_samples(g, chirp, lam), psi.samples) * g.dx
                            for lam in lambdas])
    elif family == "plane_wave":
        _require_resolved(g, lambdas, "momentum_aliasing")
        out = _plane_wave_sums(g, psi.samples, lambdas) / _SQRT_2PI
    else:
        ugrid = log_grid(4 * g.n, *_default_u_window(g))
        _require_resolved(ugrid, lambdas, "oracle_gamma_range")
        channel = log_resample(psi, ugrid)[family == "correlation_odd"]
        out = _plane_wave_sums(ugrid, channel, lambdas) / _SQRT_2PI
    if not np.isfinite(out).all():
        raise ValueError("sample_finite: oracle coefficients must all be finite")
    return out

