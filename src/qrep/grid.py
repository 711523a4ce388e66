"""Uniform real-line lattices, their Fourier duals, and grid inner products.

Every other module builds on the conventions fixed here:

* grids are uniform with a power-of-two point count;
* user-facing grids are symmetric about the origin, ``x_j = -(n/2)*dx + j*dx``,
  so ``x = 0`` is always a sample point;
* the dual lattice has spacing ``dp = 2*pi/(n*dx)`` and is stored in monotone
  order, never in FFT wrap order;
* integrals are rectangle sums ``sum_j f_j * dx``, which is exact for the
  band-limited periodic case and makes the discrete Fourier map unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "RepresentationLabel",
    "Wavefunction",
    "POSITION",
    "MOMENTUM",
    "make_grid",
    "dual_grid",
    "log_grid",
    "inner",
    "cubic_interpolate",
    "log_resample",
    "norm",
    "require_contained",
    "require_label",
    "require_momentum_decay",
]

BOUNDARY_DECAY_TOL = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform lattice of ``n`` points starting at ``x_min`` with spacing ``dx``.

    ``_dual_dx`` remembers the spacing of the grid this one was derived from,
    so that ``dual_grid`` is an exact involution regardless of rounding.
    """

    n: int
    dx: float
    x_min: float
    _dual_dx: float | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"grid_size_power_of_two: n must be a power of two >= 8, got {self.n}")
        if not (self.dx > 0 and np.isfinite(self.dx)):
            raise ValueError(f"grid_spacing_positive: dx must be positive and finite, got {self.dx}")
        if not np.isfinite(self.x_min):
            raise ValueError(f"grid_origin_finite: x_min must be finite, got {self.x_min}")

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def x_max(self) -> float:
        """Last sample point."""
        return self.x_min + (self.n - 1) * self.dx


@dataclass(frozen=True)
class RepresentationLabel:
    """Which observable's eigenbasis the samples are coefficients in."""

    kind: str
    parameter: float | None = None


POSITION = RepresentationLabel("position")
MOMENTUM = RepresentationLabel("momentum")


@dataclass(frozen=True)
class Wavefunction:
    """Complex samples on a grid, tagged with the representation they live in.

    The sample array is frozen after construction; operations return new
    instances, so shared values are safe to use concurrently.
    """

    grid: Grid
    samples: np.ndarray
    label: RepresentationLabel

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex)
        if arr.shape != (self.grid.n,):
            raise ValueError(
                f"sample_count: expected {self.grid.n} samples, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("sample_finite: samples must all be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


def make_grid(n: int, length: float) -> Grid:
    """Symmetric grid of ``n`` points covering ``[-length/2, length/2)``."""
    if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 8:
        raise ValueError(f"grid_size_power_of_two: n must be a power of two >= 8, got {n}")
    if not (length > 0 and np.isfinite(length)):
        raise ValueError(f"grid_length_positive: length must be positive, got {length}")
    dx = float(length) / int(n)
    return Grid(int(n), dx, -(int(n) // 2) * dx)


def dual_grid(g: Grid) -> Grid:
    """Fourier-dual lattice: same count, spacing ``2*pi/(n*dx)``, symmetric.

    Applying ``dual_grid`` twice returns the original spacing bit-exactly.
    """
    dp = g._dual_dx if g._dual_dx is not None else 2.0 * np.pi / (g.n * g.dx)
    return Grid(g.n, dp, -(g.n // 2) * dp, _dual_dx=g.dx)


def log_grid(n: int, u_min: float, u_max: float) -> Grid:
    """Uniform grid on ``[u_min, u_max)``; substrate for the log-variable transform."""
    if not (np.isfinite(u_min) and np.isfinite(u_max) and u_max > u_min):
        raise ValueError(f"log_window_order: need u_min < u_max, got ({u_min}, {u_max})")
    if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 8:
        raise ValueError(f"grid_size_power_of_two: n must be a power of two >= 8, got {n}")
    du = (float(u_max) - float(u_min)) / int(n)
    return Grid(int(n), du, float(u_min))


def norm(psi: Wavefunction) -> float:
    """Rectangle-rule L2 norm on the wavefunction's own lattice."""
    return float(np.sqrt(np.sum(np.abs(psi.samples) ** 2) * psi.grid.dx))


def inner(a: Wavefunction, b: Wavefunction) -> complex:
    """Rectangle-rule inner product, conjugate-linear in the first argument."""
    if a.grid != b.grid:
        raise ValueError("grid_mismatch: inner product requires identical grids")
    if a.label != b.label:
        raise ValueError(
            f"label_mismatch: cannot combine {a.label.kind} with {b.label.kind} samples"
        )
    return complex(np.vdot(a.samples, b.samples) * a.grid.dx)


def require_label(psi: Wavefunction, label: RepresentationLabel, who: str) -> None:
    """Reject samples that are not in the ``label`` representation; ``who`` names the caller."""
    if psi.label != label:
        raise ValueError(f"{label.kind}_label: {who} expects {label.kind}-representation samples")


def require_contained(psi: Wavefunction) -> None:
    """Reject a state whose samples exceed ``BOUNDARY_DECAY_TOL`` at either domain edge."""
    s = psi.samples
    edge = max(abs(s[0]), abs(s[-1]))
    if edge > BOUNDARY_DECAY_TOL:
        raise ValueError(
            f"boundary_decay: state must decay to <= {BOUNDARY_DECAY_TOL:g} at the domain edge, "
            f"got {edge:.3e}"
        )


def require_momentum_decay(tilde: np.ndarray) -> None:
    """Reject a state whose momentum samples ``tilde / sqrt(2 pi)`` exceed
    ``BOUNDARY_DECAY_TOL`` at either edge of the dual lattice; ``tilde`` is its
    :func:`fourier_sum`."""
    edge = max(abs(tilde[0]), abs(tilde[-1])) / np.sqrt(2.0 * np.pi)
    if edge > BOUNDARY_DECAY_TOL:
        raise ValueError(
            f"momentum_decay: state must decay to <= {BOUNDARY_DECAY_TOL:g} at the momentum edge, "
            f"got {edge:.3e}; refine the grid"
        )


# ---------------------------------------------------------------------------
# Not-a-knot cubic spline on uniform knots.
#
# In the index coordinate v = (t - x_min)/dx the knot slopes m_i (per cell)
# solve the interior equations
#     m_{i-1} + 4 m_i + m_{i+1} = 3 (y_{i+1} - y_{i-1}),   0 < i < n-1.
# Their bi-infinite inverse is the kernel z^|k| / (2 sqrt 3) with
# z = sqrt(3) - 2, which equals -z times one causal and one anticausal
# geometric filter; each filter keeps 32 terms, so what it drops is below
# |z|^32 ~ 5e-19 of its input.  The not-a-knot end conditions (third
# derivative continuous at the second and the second-to-last knot) then fix
# the homogeneous part a z^i + b z^(n-1-i) through a 2x2 system.
# ---------------------------------------------------------------------------

_Z = np.sqrt(3.0) - 2.0


def _geometric_filter(y: np.ndarray) -> None:
    """In place: ``y_i <- sum_{k<32} z^k y_(i-k)``, by five doubling passes."""
    for k in (1, 2, 4, 8, 16):
        y[k:] += _Z**k * y[:-k]


def _spline_slopes(y: np.ndarray) -> np.ndarray:
    """Not-a-knot slopes ``m_i = dx * s'(x_i)`` of the spline through ``y``."""
    n = len(y)
    m = np.zeros_like(y)
    m[1:-1] = 3.0 * (y[2:] - y[:-2])
    _geometric_filter(m)
    _geometric_filter(m[::-1])
    m *= -_Z
    # Not-a-knot: m_0 - m_2 = 2 (2 y_1 - y_0 - y_2) at the left end and
    # m_(n-1) - m_(n-3) = 2 (y_(n-1) - 2 y_(n-2) + y_(n-3)) at the right; the
    # residuals are what the homogeneous part must add to the particular one.
    r_left = 2.0 * (2.0 * y[1] - y[0] - y[2]) - m[0] + m[2]
    r_right = 2.0 * (y[-1] - 2.0 * y[-2] + y[-3]) - m[-1] + m[-3]
    # [[A, -A q], [-A q, A]] (a, b) = (r_left, r_right), A = 1 - z^2, q = z^(n-3)
    q = _Z ** (n - 3)
    scale = (1.0 - _Z**2) * (1.0 - q * q)
    a = (r_left + q * r_right) / scale
    b = (r_right + q * r_left) / scale
    # z^k < 1e-36 beyond 64 terms, so the homogeneous part lives at the ends.
    w = _Z ** np.arange(min(n, 64))
    m[: len(w)] += a * w
    m[n - len(w) :] += b * w[::-1]
    return m


def cubic_interpolate(grid: Grid, samples: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cubic spline through ``samples`` on the knots ``grid.points``, evaluated at ``t``.

    The interpolant is the not-a-knot cubic spline on uniform knots, the same
    function as SciPy's ``CubicSpline(grid.points, samples)`` with its default
    boundary condition.  Points outside the knots are extrapolated with the
    cubic of the nearest end cell.  Real and complex samples are accepted.
    """
    y = np.asarray(samples)
    if y.shape != (grid.n,):
        raise ValueError(f"sample_count: expected {grid.n} samples, got shape {y.shape}")
    y = y.astype(np.result_type(y.dtype, float), copy=False)
    # Cell k holds y_k + tau (m_k + tau (c2_k + tau c3_k)), tau in [0, 1].
    m = _spline_slopes(y)
    d = np.diff(y)
    c3 = m[:-1] + m[1:] - 2.0 * d
    c2 = d - m[:-1] - c3
    t = np.asarray(t, dtype=float)
    # Offsets are taken from the nearest knot as ``points`` computes it, so a
    # query at a knot gives tau = 0 exactly on any grid.
    j = np.rint((t - grid.x_min) / grid.dx)
    tau = (t - (grid.x_min + grid.dx * j)) / grid.dx
    k = np.clip(j - (tau < 0.0), 0, grid.n - 2)
    tau += j - k
    k = k.astype(np.intp)
    out = c3[k]
    for c in (c2, m, y):
        out *= tau
        out += c[k]
    return out


def log_resample(psi: Wavefunction, u_grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Parity channels of ``psi`` on a logarithmic axis, ``(h_even, h_odd)``:

        h_even(u), h_odd(u) = e^(u/2) (psi(e^u) +- psi(-e^u)) / sqrt(2).

    Both half-lines are read in one :func:`cubic_interpolate` call, the
    not-a-knot cubic spline on the uniform position knots (SciPy's
    ``CubicSpline`` default), so the result is accurate to that spline's
    interpolation error.  ``psi`` must be position-labelled.  The window must
    stay within the samples of both half-lines, ``e^u_max <= min(x_max,
    -x_min)``, so no value is extrapolated.
    """
    require_label(psi, POSITION, "log_resample")
    u = u_grid.points
    x_edge = min(psi.grid.x_max, -psi.grid.x_min)
    if np.exp(u[-1]) > x_edge:
        raise ValueError(
            f"log_window_support: e^u_max = {np.exp(u[-1]):.6g} exceeds the last sample "
            f"{x_edge:.6g} of the shorter half-line"
        )
    r = np.exp(u)
    values = cubic_interpolate(psi.grid, psi.samples, np.concatenate([r, -r]))
    plus, minus = values[: u_grid.n], values[u_grid.n :]
    weight = np.exp(u / 2.0) / np.sqrt(2.0)
    return weight * (plus + minus), weight * (plus - minus)


# ---------------------------------------------------------------------------
# Discrete Fourier sums on centred lattices.
#
# With x_j = x0 + j*dx and a symmetric output lattice k_m = -(n/2)*dk + m*dk,
# dk = 2*pi/(n*dx), the phase factor splits as
#     e^{-i k_m x_j} = e^{-i k_m x0} * (-1)^j * e^{-2*pi*i*j*m/n},
# so the lattice sum is one FFT plus two cheap phase multiplications.
# ---------------------------------------------------------------------------


def _alternating(n: int) -> np.ndarray:
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def fourier_sum(values: np.ndarray, g: Grid) -> tuple[Grid, np.ndarray]:
    """``sum_j values_j exp(-i k x_j) dx`` on the monotone dual lattice of ``g``."""
    dual = dual_grid(g)
    k = dual.points
    out = g.dx * np.exp(-1j * k * g.x_min) * np.fft.fft(_alternating(g.n) * values)
    return dual, out


def inverse_fourier_sum(values: np.ndarray, k_grid: Grid, x_grid: Grid) -> np.ndarray:
    """``sum_m values_m exp(+i k_m x_j) dk`` for ``x_j`` on ``x_grid``.

    ``k_grid`` must be symmetric about zero and ``x_grid`` must have the
    matching dual spacing (arbitrary offset is allowed).
    """
    n = k_grid.n
    if x_grid.n != n:
        raise ValueError("grid_mismatch: lattices must have equal point counts")
    if abs(k_grid.dx * x_grid.dx * n - 2.0 * np.pi) > 1e-9 * 2.0 * np.pi:
        raise ValueError("grid_mismatch: lattices are not a Fourier-dual pair")
    k = k_grid.points
    return (
        k_grid.dx
        * n
        * _alternating(n)
        * np.fft.ifft(values * np.exp(1j * k * x_grid.x_min))
    )
