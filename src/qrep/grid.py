"""Uniform real-line lattices, their Fourier duals, grid inner products, the
cubic spline, and the reads between a position lattice and a log lattice.

Every other module builds on the conventions fixed here:

* grids are uniform with a power-of-two point count;
* user-facing grids are symmetric about the origin, ``x_j = -(n/2)*dx + j*dx``,
  so ``x = 0`` is always a sample point;
* the dual lattice, spacing ``dp = 2*pi/(n*dx)``, is centred and monotone (never
  in FFT wrap order); momentum samples live on no other (``momentum_lattice``);
* integrals are rectangle sums ``sum_j f_j * dx``, which is exact for the
  band-limited periodic case and makes the discrete Fourier map unitary;
* the spline is fitted and read by ``cubic_interpolate`` alone, one call per
  half-line either way: ``log_resample`` reads a state onto a lattice in
  ``u = ln|x|``, and ``transforms.correlation_inverse`` reads it back;
* a state's support, ``Wavefunction._support``, is the index span from its
  first to its last nonzero sample, and every sample outside it is ``+0``.
  The builders, the position side of the chirp maps, ``apply_x`` and
  ``log_resample`` do their per-sample work on that span alone, with the
  operations and operand order of the whole-lattice expressions, so the
  values on it are those of the whole lattice bit for bit;
* every unit phasor ``e^(i phi)`` in qrep is ``_cis(phi)``, for a real ``phi``
  (array or scalar): ``cos phi`` and ``sin phi + 0.0`` written into one complex
  buffer.  That is ``np.exp(1j * phi)`` bit for bit, and cheaper to form:
  the imaginary part of ``1j * phi`` is ``0 + phi``, so the sine of a ``-0``
  phase is ``+0`` in both.  ``e^(-i phi)`` is ``_cis(-phi)``, whose imaginary
  part is ``+0`` where ``np.exp(-1j * phi)``'s is ``-0`` (``phi = +0``); each
  caller's tests show that this zero's sign reaches none of its outputs.
  Phases must be finite; the callers refuse the others first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _cis(phase, out=None):
    """``e^(i phase)`` of a real array or scalar: ``np.exp(1j * phase)`` bit for
    bit (see the module docstring), from one cosine and one sine pass; written
    into the complex array ``out`` if one is given."""
    phase = np.asarray(phase, dtype=float)
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    out.imag += 0.0  # -0 -> +0, as in 1j * phase
    return out if out.ndim else out[()]


def _nonzero_span(values: np.ndarray) -> tuple[int, int]:
    """Index span ``[first, last + 1)`` of the nonzero entries of ``values``,
    ``(0, 0)`` if there are none; no pass when both ends are nonzero."""
    n = len(values)
    if not n:
        return 0, 0
    if values[0] != 0.0 and values[-1] != 0.0:
        return 0, n
    # a boolean mask and argmax: an index array of the support would take n * 8 B
    nonzero = values != 0.0
    first = int(nonzero.argmax())
    if not nonzero[first]:
        return 0, 0
    return first, n - int(nonzero[::-1].argmax())


def _require_grid_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 8 or n & (n - 1):
        raise ValueError(f"grid_size_power_of_two: n must be a power of two >= 8, got {n}")


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
        _require_grid_size(self.n)
        if not (self.dx > 0 and np.isfinite(self.dx)):
            raise ValueError(f"grid_spacing_positive: dx must be positive and finite, got {self.dx}")
        if not np.isfinite(self.x_min):
            raise ValueError(f"grid_origin_finite: x_min must be finite, got {self.x_min}")

    @property
    def length(self) -> float:
        return self.n * self.dx

    @property
    def points(self) -> np.ndarray:
        return self._span_points(0, self.n)

    def _span_points(self, lo: int, hi: int) -> np.ndarray:
        """``points[lo:hi]`` bit for bit, formed for that span alone."""
        # x_min + dx * j, formed in place.  A float arange holds the same
        # values as an integer one (n < 2^53), and spares the conversion.
        x = np.arange(lo, hi, dtype=float)
        x *= self.dx
        x += self.x_min
        return x

    @property
    def x_max(self) -> float:
        """Last sample point."""
        return self.x_min + (self.n - 1) * self.dx

    @property
    def centred(self) -> bool:
        """Whether ``x_min = -(n/2) dx``, so that ``x = 0`` is the sample ``n/2``."""
        return self.x_min == -(self.n // 2) * self.dx


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

    ``_fourier`` is the :func:`fourier_sum` of the samples, ``(dual lattice,
    sum)``, taken on first request and kept read-only for the instance's
    life: one more ``n * 16`` bytes.  Every reader of the state's own sum
    (``to_momentum``, ``apply_p``, the correlation sizing step, the momentum
    side of the ``a X + b P`` maps) shares it, and each runs its own guards
    on every call.

    ``_support`` is the index span ``[first, last + 1)`` from the first to
    the last nonzero sample, ``(0, 0)`` for the all-zero state, taken once:
    the builders and ``apply_x`` keep the span they formed (``_from_span``),
    and any other state scans its samples on first request.  The builders,
    the position side of the chirp maps, ``apply_x``, ``log_resample`` and
    the correlation sizing step scale their per-sample work with it; a state
    they build is ``+0`` at every sample outside it.
    """

    grid: Grid
    samples: np.ndarray
    label: RepresentationLabel

    def __post_init__(self):
        g, arr = self.grid, np.array(self.samples, dtype=complex)
        if arr.shape != (g.n,):
            raise ValueError(f"sample_count: expected {g.n} samples, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("sample_finite: samples must all be finite")
        if self.label == MOMENTUM and not g.centred:
            raise ValueError(f"momentum_lattice: momentum samples need a centred lattice, got {g}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @cached_property
    def _fourier(self) -> tuple[Grid, np.ndarray]:
        kgrid, tilde = fourier_sum(self.samples, self.grid)
        tilde.setflags(write=False)
        return kgrid, tilde

    @cached_property
    def _support(self) -> tuple[int, int]:
        return _nonzero_span(self.samples)


def _from_span(g: Grid, lo: int, values: np.ndarray, label: RepresentationLabel) -> Wavefunction:
    """The state on ``g`` whose samples from index ``lo`` on are ``values``,
    and ``+0`` at every other sample and at every zero that leads or trails
    ``values``; it keeps its support.  Values that span the whole lattice with
    nonzero ends are taken as they are, with no pass beyond the state's own."""
    first, stop = _nonzero_span(values)
    span = (lo + first, lo + stop) if first < stop else (0, 0)
    if span == (0, g.n):
        psi = Wavefunction(g, values, label)
    else:
        samples = np.zeros(g.n, dtype=complex)
        samples[span[0] : span[1]] = values[first:stop]
        psi = Wavefunction(g, samples, label)
    object.__setattr__(psi, "_support", span)  # the cached_property's slot
    return psi


def make_grid(n: int, length: float) -> Grid:
    """Symmetric grid of ``n`` points covering ``[-length/2, length/2)``."""
    _require_grid_size(n)
    if not (length > 0 and np.isfinite(length)):
        raise ValueError(f"grid_length_positive: length must be positive and finite, got {length}")
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
        raise ValueError(f"log_window_order: need finite u_min < u_max, got ({u_min}, {u_max})")
    if np.exp(u_min) == 0.0:
        raise ValueError(f"log_window_underflow: e^u_min underflows to 0 at u_min = {u_min}; "
                         "u_min must exceed about -745.13")
    _require_grid_size(n)
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
    edge = max(abs(tilde[0]), abs(tilde[-1])) / _SQRT_2PI
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
#
# So the slope at a knot is read from the knots within 33 of it, plus the
# homogeneous part, which is added within 64 knots of each end.  A fit on
# the knots [lo, hi) therefore gives the whole-lattice slopes, operation for
# operation, at every knot 64 or more from a cut end, provided z^(n-3)
# underflows to zero on the window as on the whole lattice: then neither
# end's homogeneous part reads the other end.  That holds from 569 knots.
# ---------------------------------------------------------------------------

_Z = np.sqrt(3.0) - 2.0
_FIT_MARGIN = 64
_MIN_FIT_KNOTS = 569
# Farthest a query may lie from the first knot, in cells: its cell offset
# must fit in ``intp``, with room for the index arithmetic of _spline_cells.
_MAX_QUERY_CELLS = 2.0**62


def _geometric_filter(y: np.ndarray, scratch: np.ndarray) -> None:
    """In place: ``y_i <- sum_{k<32} z^k y_(i-k)``, by five doubling passes.

    Each pass's product is formed in ``scratch``, a buffer of ``len(y)``.
    """
    n = len(y)
    for k in (1, 2, 4, 8, 16):
        if k >= n:
            break
        y[k:] += np.multiply(_Z**k, y[:-k], out=scratch[: n - k])


def _spline_slopes(y: np.ndarray) -> np.ndarray:
    """Not-a-knot slopes ``m_i = dx * s'(x_i)`` of the spline through ``y``."""
    n = len(y)
    m = np.zeros_like(y)
    np.subtract(y[2:], y[:-2], out=m[1:-1])
    m[1:-1] *= 3.0
    scratch = np.empty_like(m)
    _geometric_filter(m, scratch)
    _geometric_filter(m[::-1], scratch)
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
    w = _Z ** np.arange(min(n, _FIT_MARGIN))
    m[: len(w)] += a * w
    m[n - len(w) :] += b * w[::-1]
    return m


def _spline_coeffs(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cell coefficients ``(c3, c2, m, y)`` of the spline through the samples
    ``y`` of the fitted knots."""
    y = y.astype(np.result_type(y.dtype, float), copy=False)
    # Cell k holds y_k + tau (m_k + tau (c2_k + tau c3_k)), tau in [0, 1].
    m = _spline_slopes(y)
    c2 = np.diff(y)
    c3 = m[:-1] + m[1:]
    c3 -= 2.0 * c2
    c2 -= m[:-1]
    c2 -= c3
    return c3, c2, m, y


def _spline_cells(grid: Grid, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell ``k`` of each query ``t`` on the whole lattice, and the offset
    ``tau`` of ``t`` from knot ``k`` in cells."""
    # Offsets are taken from the nearest knot as ``points`` computes it, so a
    # query at a knot gives tau = 0 exactly on any grid.
    tau = t - grid.x_min
    tau /= grid.dx
    j = np.rint(tau, out=tau).astype(np.intp)
    np.multiply(grid.dx, j, out=tau)
    tau += grid.x_min
    np.subtract(t, tau, out=tau)
    tau /= grid.dx
    k = j - (tau < 0.0)
    np.clip(k, 0, grid.n - 2, out=k)
    j -= k
    tau += j
    return k, tau


def _spline_window(grid: Grid, t_min: float, t_max: float) -> tuple[int, int]:
    """Knots ``[lo, hi)`` whose fit gives the whole-lattice coefficients on
    every cell that a query in ``[t_min, t_max]`` reads.

    The cells come from the extreme queries, since the cell is monotone in
    ``t``; each cut end lies ``_FIT_MARGIN`` knots beyond them, and a window
    of fewer than ``_MIN_FIT_KNOTS`` knots is widened to the whole lattice.
    Queries must be finite and within ``_MAX_QUERY_CELLS`` cells of the
    first knot, so that no cell offset overflows its cast.
    """
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise ValueError(
            f"spline_query_finite: queries must be finite, got the range [{t_min}, {t_max}]"
        )
    reach = _MAX_QUERY_CELLS * grid.dx
    if not (abs(t_min - grid.x_min) < reach and abs(t_max - grid.x_min) < reach):
        raise ValueError(
            f"spline_query_range: queries must lie within {reach:.6g} of the first knot, "
            f"got the range [{t_min}, {t_max}]"
        )
    (k_min, k_max), _ = _spline_cells(grid, np.array([t_min, t_max]))
    lo = max(int(k_min) - _FIT_MARGIN, 0)
    hi = min(int(k_max) + 2 + _FIT_MARGIN, grid.n)
    if hi - lo < _MIN_FIT_KNOTS:
        return 0, grid.n
    return lo, hi


# Queries per block of a spline read: the block's cell indices, offsets and
# coefficient buffer stay in cache, and no query-sized temporary is allocated.
_BLOCK = 2**11


def _spline_eval(grid: Grid, coeffs: tuple[np.ndarray, ...], t: np.ndarray,
                 out: np.ndarray, lo: int) -> None:
    """Write into ``out`` the spline of the :func:`_spline_coeffs` fitted from
    knot ``lo`` on, at the 1-D float queries ``t``, ``_BLOCK`` at a time."""
    for start in range(0, t.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        k, tau = _spline_cells(grid, t[block])
        k -= lo
        values = out[block]
        # k is in range already; mode="clip" lets take write straight into its out
        np.take(coeffs[0], k, out=values, mode="clip")
        buf = np.empty_like(values)
        for c in coeffs[1:]:
            values *= tau
            values += np.take(c, k, out=buf, mode="clip")


def cubic_interpolate(grid: Grid, samples: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cubic spline through ``samples`` on the knots ``grid.points``, evaluated at ``t``.

    The interpolant is the not-a-knot cubic spline on uniform knots, the same
    function as SciPy's ``CubicSpline(grid.points, samples)`` with its default
    boundary condition.  Points outside the knots are extrapolated with the
    cubic of the nearest end cell.  Real and complex samples are accepted.
    Only the knots within ``_FIT_MARGIN`` of the queried cells are fitted,
    which gives the whole-lattice result bit for bit.  Queries must be
    finite (``spline_query_finite``) and within ``2^62`` cells of the knots
    (``spline_query_range``).
    """
    y = np.asarray(samples)
    if y.shape != (grid.n,):
        raise ValueError(f"sample_count: expected {grid.n} samples, got shape {y.shape}")
    t = np.asarray(t, dtype=float)
    lo, hi = _spline_window(grid, t.min(), t.max()) if t.size else (0, grid.n)
    # allocated before the fit for heap placement: after it, peak RSS ran higher and wider
    out = np.empty(t.shape, dtype=np.result_type(y.dtype, float))
    coeffs = _spline_coeffs(y[lo:hi])
    _spline_eval(grid, coeffs, t.reshape(-1), out.reshape(-1), lo)
    return out


def _require_log_support(g: Grid, u_grid: Grid) -> float:
    """Reject a log lattice whose last point ``u_max`` reads past the samples
    of either half-line of ``g`` (``log_window_support``); returns ``e^u_max``."""
    r_max = np.exp(u_grid.x_max)
    x_edge = min(g.x_max, -g.x_min)
    if r_max > x_edge:
        raise ValueError(
            f"log_window_support: e^u_max = {r_max:.6g} exceeds the last sample "
            f"{x_edge:.6g} of the shorter half-line"
        )
    return r_max


def _read_radius(psi: Wavefunction, r_max: float) -> float:
    """Radius out to which :func:`log_resample` must read ``psi``: ``r_max``,
    or ``_FIT_MARGIN`` cells past the farther end of the state's support if
    that is less; 0 for the all-zero state.

    The spline's slopes read the knots within 33 of each knot, so the
    whole-lattice spline is ``+0`` on every cell more than 33 knots from a
    nonzero sample.  Its not-a-knot end parts read the data within 35 knots
    of a lattice end; where the support comes that near, the radius passes
    both edges and nothing is cut.
    """
    g = psi.grid
    first, stop = psi._support
    if first == stop:
        return 0.0
    far = max(-(g.x_min + first * g.dx), g.x_min + (stop - 1) * g.dx)
    return min(r_max, far + _FIT_MARGIN * g.dx)


def log_resample(psi: Wavefunction, u_grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Parity channels of ``psi`` on a logarithmic axis, ``(h_even, h_odd)``:

        h_even(u), h_odd(u) = e^(u/2) (psi(e^u) +- psi(-e^u)) / sqrt(2).

    Each half-line is read by one :func:`cubic_interpolate` call, the
    not-a-knot cubic spline on the uniform position knots (SciPy's
    ``CubicSpline`` default), so the result is accurate to that spline's
    interpolation error.  ``psi`` must be position-labelled.  The window must
    stay within the samples of both half-lines, ``e^u_max <= min(x_max,
    -x_min)``, so no value is extrapolated.

    Only the state's support (``Wavefunction._support``) is read.  The reads
    stop ``_FIT_MARGIN`` cells past its farther end, and every ``u`` whose
    ``e^u`` lies beyond that reads ``+0``: the whole-lattice spline is
    exactly ``+0`` there, so the result is the whole read's bit for bit.
    """
    require_label(psi, POSITION, "log_resample")
    g = psi.grid
    r_max = _require_log_support(g, u_grid)
    r_read = _read_radius(psi, r_max)
    if r_read == 0.0:
        return np.zeros(u_grid.n, dtype=complex), np.zeros(u_grid.n, dtype=complex)
    # The reads stop at most one lattice point past the last u with e^u <= r_read.
    stop = u_grid.n
    if r_read < r_max:
        stop = min(stop, max(int(np.floor((np.log(r_read) - u_grid.x_min) / u_grid.dx)) + 2, 1))
    r = u_grid._span_points(0, stop)
    np.exp(r, out=r)
    plus = cubic_interpolate(g, psi.samples, r)
    minus = cubic_interpolate(g, psi.samples, np.negative(r, out=r))
    del r  # freed before the parity parts' one temporary
    diff = plus - minus
    plus += minus
    minus[...] = diff
    del diff
    weight = u_grid._span_points(0, stop)
    np.divide(weight, 2.0, out=weight)
    np.exp(weight, out=weight)
    weight /= np.sqrt(2.0)
    plus *= weight
    minus *= weight
    # every u past stop reads +0: each channel grows in place, zero-filled
    plus.resize(u_grid.n, refcheck=False)
    minus.resize(u_grid.n, refcheck=False)
    return plus, minus


# ---------------------------------------------------------------------------
# Discrete Fourier sums between a lattice and its centred dual.
#
# Both sums take the one lattice x_j = x0 + j*dx and derive its dual,
# k_m = -(n/2)*dk + m*dk with dk = 2*pi/(n*dx), so the phase factor splits as
#     e^{-i k_m x_j} = e^{-i k_m x0} * (-1)^j * e^{-2*pi*i*j*m/n},
# and the lattice sum is one FFT plus two cheap phase multiplications.  The
# table e^{-i k_m x0} is the costly factor; the forward and the inverse sum
# on one lattice share it, and the last few tables are kept.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _phase_table(k_grid: Grid, x0: float) -> np.ndarray:
    """Read-only ``exp(-i k x0)`` on the points of ``k_grid``.

    Grids that compare equal have the same points, so the pair is the key.
    ``x0 = 0.0`` and ``-0.0`` share an entry: their tables are bit-identical.
    """
    table = _cis(k_grid.points * -x0)
    table.setflags(write=False)
    return table


def fourier_sum(values: np.ndarray, g: Grid) -> tuple[Grid, np.ndarray]:
    """``sum_j values_j exp(-i k x_j) dx`` on the monotone dual lattice of ``g``.

    ``values`` is copied once, and the sum is formed in that copy.
    """
    out = np.array(values, dtype=complex)
    return _fourier_sum_inplace(out, g), out


def _fourier_sum_inplace(out: np.ndarray, g: Grid) -> Grid:
    """:func:`fourier_sum` of the complex buffer ``out``, written over it;
    returns the dual lattice."""
    dual = dual_grid(g)
    table = _phase_table(dual, g.x_min)
    np.negative(out[1::2], out=out[1::2])
    np.fft.fft(out, out=out)
    # ``dx * table`` stays the first operand, as NumPy's complex multiply
    # rounds by operand order.
    np.multiply(g.dx * table, out, out=out)
    return dual


def inverse_fourier_sum(values: np.ndarray, x_grid: Grid) -> np.ndarray:
    """``sum_m values_m exp(+i k_m x_j) dk`` for ``x_j`` on ``x_grid``, of any
    offset, and ``k_m`` on its centred dual: the inverse of :func:`fourier_sum`."""
    k_grid = dual_grid(x_grid)
    # The conjugated table is the first operand and the sum's one buffer.
    out = np.conj(_phase_table(k_grid, x_grid.x_min))
    out *= values
    np.fft.ifft(out, out=out)
    # (-1)^j rides on the scale: multiplying by -n dk, unlike negating the
    # product, keeps the sign of an exact zero as a real factor would.
    scale = k_grid.dx * k_grid.n
    np.multiply(scale, out[::2], out=out[::2])
    np.multiply(-scale, out[1::2], out=out[1::2])
    return out
