"""Named, parameterized property suites shared by the test harness and the CLI.

Each suite is a pure function from a base grid to a list of `CheckReport`,
so `qrep verify` and the pytest suite execute the identical code path.  A
check passes iff its observed defect is at most its tolerance, and every check
can fail and tests what no other does.  Each check runs once, on the grid its
claim needs: fixed grids for the finite-difference residuals, the Fresnel
ladder, the Gram check and the spectral conjugation rule (self-dual, dx = dp);
grids that resolve the kernel chirp for the oracle sums, read at up to 32
eigenvalues where the expansion carries weight; the base grid for the rest.
Operator products are read from single applications, ``<psi, A B psi> =
<A psi, B psi>``, so state guards see only states.  Deterministic for a fixed
BLAS thread count; across thread counts only the Fresnel-ladder records
(``fresnel_delta_pairing``, ``fresnel_delta_monotone``) move, at rounding,
since ``grid.inner`` is a BLAS dot product, while the oracle sums use none.
Every check passes at L = 40, n = 512 to 2^18, for the six factory states
the suites read; the claim covers no other state.

Every check lives here, with the helpers only checks call: the conjugation
rule for ``C``, on the operator (:func:`conjugation_defect`) and on the
spectrum (:func:`_spectral_conjugation_defect`), and the eigen-residual.  Two
independent derivative discretizations are used on purpose: the spectral one
backs every operator; the fourth-order finite difference backs the
eigen-residuals, where the kernels are not periodic and an unrelated
discretization guards against convention bugs in the first.  Each
eigen-residual takes its kernel from the public sampler on a fixed grid that
spans its window; the Gram check forms its 32 interp kernels as one block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import (_SQRT_2PI, POSITION, Grid, Wavefunction, _cis, dual_grid, inner,
                   make_grid, norm)
from .kernels import (
    Parity,
    _Chirp,
    _chirp_block,
    _chirp_resolved,
    correlation_kernel,
    fresnel_delta,
    plane_wave,
)
from .operators import (
    apply_c,
    apply_c_momentum,
    apply_p,
    apply_s_theta,
    apply_x,
    moments,
    parity_flip,
)
from .states import GaussianSpec, gaussian, hermite
from .transforms import (
    _FAMILIES,
    _default_u_window,
    correlation_inverse,
    correlation_transform,
    from_momentum,
    interp_transform,
    quadrature_oracle,
    to_momentum,
)

__all__ = ["CheckReport", "run_suite", "run_all_suites", "SUITE_NAMES", "REQUIRED_COVERAGE",
           "conjugation_defect"]

# |lhs - rhs| of the Robertson-Schrodinger bound at which a state saturates it.
SATURATION_TOL = 1e-8

@dataclass(frozen=True)
class CheckReport:
    name: str
    parameters: dict = field(default_factory=dict)
    observed: float = 0.0
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.observed <= self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# The factory states by name: a Gaussian spec or a Hermite order.
_STATES = {
    "gaussian": GaussianSpec(),
    "gaussian_chirped": GaussianSpec(s=1.0, c=2.0),
    "gaussian_moved": GaussianSpec(s=1.5, x0=1.0, p0=-0.5),
    "hermite_1": 1,
    "hermite_2": 2,
    "hermite_3": 3,
}


def _state(g: Grid, name: str) -> Wavefunction:
    spec = _STATES[name]
    return gaussian(g, spec) if isinstance(spec, GaussianSpec) else hermite(g, spec)


def _factory_states(g: Grid) -> list[tuple[str, Wavefunction]]:
    return [(name, _state(g, name)) for name in _STATES]


_ANGLES = tuple(np.pi * k / 10.0 for k in (1, 2, 3, 4, 5))


_ORACLE_POINTS = 32  # eigenvalues per oracle record
_SUPPORT_FLOOR = 1e-3  # of the peak coefficient modulus
# Least peak amplitude of a state the conjugation defect is read on,
# tiny/eps = 2^-970: above it every value down to the peak's rounding is a
# normal number.  The moved, chirped Gaussian scaled down read 1e-13 at a
# peak of 7.5e-306, 4.6e-10 at 7.5e-311 and 3.4e-5 at 7.5e-316 (n = 1024).
_CONJUGATION_MIN_PEAK = np.finfo(float).tiny / np.finfo(float).eps


def _oracle_indices(values: np.ndarray) -> np.ndarray:
    """Up to ``_ORACLE_POINTS`` indices spread evenly over the coefficients that
    reach ``_SUPPORT_FLOOR`` of the peak modulus (all of them if every one is
    zero): an oracle record checks where the expansion carries weight, at any n."""
    mod = np.abs(values)
    idx = np.flatnonzero(mod >= _SUPPORT_FLOOR * mod.max())
    k = min(_ORACLE_POINTS, len(idx))
    return idx[np.arange(k) * (len(idx) - 1) // max(k - 1, 1)]


def _monotone(name: str, errs: list[float]) -> CheckReport:
    """Passes iff the error shrinks at every step of a limit ladder."""
    return CheckReport(name, {}, max(b / a for a, b in zip(errs, errs[1:])), 1.0)


def _fd_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order central first derivative at the ``n - 4`` interior samples."""
    return (-values[4:] + 8.0 * values[3:-1] - 8.0 * values[1:-3] + values[:-4]) / (12.0 * dx)


def _windowed_eigen_residual(kernel: Wavefunction, eigenvalue: float, window: np.ndarray | None,
                             a: float, b: float, c: float) -> float:
    """Relative residual of ``(a X + b P + c C - eigenvalue) f`` for the kernel ``f``.

    Differentiates by finite differences: the kernels are not periodic, so
    the spectral derivative does not apply to them.  With ``f`` the kernel,
    ``(a X + b P + c C) f = (a x - i c/2) f - i (b + c x) f'``.  The residual
    is formed at every sample at least 2 from a lattice end, where the
    derivative is defined, and summed over those inside ``window`` (a mask
    of the lattice; ``None`` keeps them all).  A window with no such sample
    is refused (``eigen_window_empty``).
    """
    g = kernel.grid
    x, f = g.points[2:-2], kernel.samples[2:-2]
    deriv = _fd_derivative(kernel.samples, g.dx)
    resid = (a * x - 0.5j * c) * f - 1j * ((b + c * x) * deriv) - eigenvalue * f
    if window is not None:
        inside = window[2:-2]
        resid, f = resid[inside], f[inside]
    if not f.size:
        raise ValueError("eigen_window_empty: the window holds no sample at least 2 from a "
                         "lattice end")
    return float(np.sqrt(np.sum(np.abs(resid) ** 2)) / np.sqrt(np.sum(np.abs(f) ** 2)))


def conjugation_defect(psi: Wavefunction) -> float:
    """Check that the momentum form of C is the conjugated position form.

    Returns the max-norm defect of the Fourier map of ``C psi`` (by
    ``to_momentum``'s arithmetic; ``C psi`` is no state, so unguarded) against
    ``C_momentum(to_momentum(psi))``, where ``C_momentum`` is built by the
    conjugation rule, relative to the peak of the former.  This is the sharp,
    operator-level check on a normalizable state.  The all-zero state has no
    peak to compare against and is refused (``conjugation_zero_state``), and
    so is a state whose peak amplitude is below ``_CONJUGATION_MIN_PEAK``,
    whose defect reads the precision lost to subnormal numbers
    (``conjugation_state_scale``).
    """
    peak = np.abs(psi.samples).max()
    if peak == 0.0:
        raise ValueError("conjugation_zero_state: the defect is relative to the peak of the "
                         "Fourier map of C psi, which is 0 for the all-zero state")
    if peak < _CONJUGATION_MIN_PEAK:
        raise ValueError(f"conjugation_state_scale: the state's peak amplitude {peak:.3e} is "
                         f"below {_CONJUGATION_MIN_PEAK:.3e}, where the values the defect "
                         "reads are subnormal")
    lhs = apply_c(psi)._fourier[1] / _SQRT_2PI
    rhs = apply_c_momentum(to_momentum(psi)).samples
    return float(np.abs(lhs - rhs).max() / np.abs(lhs).max())


def _spectral_conjugation_defect(psi: Wavefunction, u_window: tuple[float, float]) -> float:
    """The conjugation rule on the spectrum of ``C``, for ``psi`` on a self-dual
    grid (``dx = dp``).  The Fourier map takes the eigenfunction for ``gamma`` to
    the one for ``-gamma`` times a phase, so the spectrum ``c~`` of the momentum
    samples, read as position samples, has ``|c~(gamma)| = |c(-gamma)|``; at
    ``gamma = 0`` the phase is 1 in the even channel and ``-i`` in the odd (the
    transforms of ``|x|^(-1/2)`` and ``sign(x) |x|^(-1/2)``).  Returns the
    largest defect of either channel, relative to the peak ``|c|``.
    """
    phi = to_momentum(psi)
    spec = correlation_transform(psi, u_window)
    tilde = correlation_transform(Wavefunction(phi.grid, phi.samples, POSITION), u_window)
    zero = spec.u_grid.n // 2  # gamma = 0; index m pairs with n - m, and 0 with none
    defect = max(max(np.abs(np.abs(t[1:]) - np.abs(c[:0:-1])).max(), abs(t[zero] - phase * c[zero]))
                 for t, c, phase in ((tilde.even, spec.even, 1.0), (tilde.odd, spec.odd, -1j)))
    return float(defect / max(np.abs(spec.even).max(), np.abs(spec.odd).max()))


def _suite_commutators(g: Grid) -> list[CheckReport]:
    reports = []
    states = dict(_factory_states(g))
    # <psi, [A, B] psi> = 2i Im<A psi, B psi> for Hermitian A and B
    for name, psi in states.items():
        xp = 2j * inner(apply_x(psi), apply_p(psi)).imag
        reports.append(
            CheckReport("xp_commutator", {"state": name}, abs(xp - 1j), 1e-8)
        )
    psi = states["gaussian"]
    rotated = {t: apply_s_theta(psi, t) for t in _ANGLES}
    # theta = theta' reads 0 by construction, and inner(b, a) is conj(inner(a, b))
    # bit for bit, so each pair is checked once, theta < theta'
    for i, t1 in enumerate(_ANGLES):
        for t2 in _ANGLES[i + 1:]:
            comm = 2j * inner(rotated[t1], rotated[t2]).imag
            reports.append(
                CheckReport(
                    "rotation_commutator",
                    {"theta": round(t1, 12), "theta_prime": round(t2, 12)},
                    abs(comm - 1j * np.sin(t2 - t1)),
                    1e-7,
                )
            )
    for name in ("gaussian_chirped", "gaussian_moved"):
        psi = states[name]
        defect = float(
            np.abs(parity_flip(apply_c(psi)).samples - apply_c(parity_flip(psi)).samples).max()
        )
        reports.append(CheckReport("parity_commutation", {"state": name}, defect, 1e-10))
    return reports


def _suite_eigen_residuals(g: Grid) -> list[CheckReport]:
    reports = []
    # The residuals test the kernel formulas, not the base lattice, so each
    # grid is fixed and spans its window.  The chirp kernels need a finer step
    # to push the finite-difference error below tolerance.
    g_wave = make_grid(4096, 20.0)
    g_chirp = make_grid(8192, 10.0)
    g_corr = make_grid(2048, 10.0)

    # The momenta lie on the lattice dp = 2 pi/40 of a length-40 domain.
    dp = np.pi / 20.0
    for p_target in (-2.0, 0.5, 1.0):
        p = round(p_target / dp) * dp
        res = _windowed_eigen_residual(plane_wave(g_wave, p), p, None, 0.0, 1.0, 0.0)
        reports.append(CheckReport("momentum_eigenfunction", {"p": round(p, 12)}, res, 1e-6))

    for family, values in (
        ("interp", (0.25, 0.5, 0.75)),
        ("rotation", (np.pi / 6, np.pi / 4, np.pi / 3)),
    ):
        member = _FAMILIES[family]
        for value in values:
            chirp = member.chirp(value)
            for lam in (-1.0, 0.0, 0.5, 2.0):
                k = member.sample(g_chirp, value, lam)
                res = _windowed_eigen_residual(k, lam, None, chirp.a, chirp.b, 0.0)
                params = {member.param: round(value, 12), "lam": lam}
                reports.append(CheckReport(f"{family}_eigenfunction", params, res, 1e-6))

    window = np.abs(g_corr.points) >= 1.0
    for gamma in (-2.0, 0.0, 1.0):
        for par in (Parity.EVEN, Parity.ODD):
            k = correlation_kernel(g_corr, gamma, par)
            res = _windowed_eigen_residual(k, gamma, window, 0.0, 0.0, 1.0)
            params = {"gamma": gamma, "parity": par.value}
            reports.append(CheckReport("correlation_eigenfunction", params, res, 1e-6))
    return reports


def _fourier_checks(psi: Wavefunction, name: str) -> list[CheckReport]:
    """``fourier_roundtrip`` and ``fourier_unitarity`` of the unit state ``psi``."""
    ft = to_momentum(psi)
    err = float(np.abs(from_momentum(ft).samples - psi.samples).max())
    return [CheckReport("fourier_roundtrip", {"state": name}, err, 1e-12),
            CheckReport("fourier_unitarity", {"state": name}, abs(norm(ft) - 1.0), 1e-10)]


def _unitarity_check(out: Wavefunction, family: str, params: dict) -> CheckReport:
    """``<family>_unitarity``: ``out``, a chirp member's output for a unit state, keeps the norm."""
    return CheckReport(f"{family}_unitarity", params, abs(norm(out) - 1.0), 1e-8)


def _readback_checks(psi: Wavefunction, spec, name: str, reach: float) -> list[CheckReport]:
    """``correlation_roundtrip``, ``correlation_roundtrip_norm`` and
    ``correlation_parseval`` of ``spec``, the spectrum of the unit state ``psi``;
    both round trips are read on ``4 dx <= |x| <= reach``."""
    g = psi.grid
    rec = correlation_inverse(spec, g)
    x = np.abs(g.points)
    annulus = (x >= 4.0 * g.dx) & (x <= reach)
    err = float(np.abs(rec.samples - psi.samples)[annulus].max())
    n_rec = float(np.sqrt(np.sum(np.abs(rec.samples[annulus]) ** 2) * g.dx))
    n_in = float(np.sqrt(np.sum(np.abs(psi.samples[annulus]) ** 2) * g.dx))
    defect = abs(spec.channel_power() - (1.0 - spec.tail_mass))
    return [CheckReport("correlation_roundtrip", {"state": name}, err, 1e-5),
            CheckReport("correlation_roundtrip_norm", {"state": name}, abs(n_rec - n_in), 1e-5),
            CheckReport("correlation_parseval", {"state": name}, defect, 1e-6)]


def _suite_roundtrips(g: Grid) -> list[CheckReport]:
    reports = []
    states = dict(_factory_states(g))
    for name, psi in states.items():
        reports += _fourier_checks(psi, name)
    psi = states["gaussian"]
    phi = to_momentum(psi)
    again = to_momentum(from_momentum(phi))
    reports.append(
        CheckReport(
            "fourier_roundtrip_momentum",
            {"state": "gaussian"},
            float(np.abs(again.samples - phi.samples).max()),
            1e-12,
        )
    )

    for family, value in (("interp", 0.5), ("rotation", np.pi / 4)):
        member = _FAMILIES[family]
        out = member.transform(psi, value)
        reports.append(_unitarity_check(out, family, {member.param: round(value, 12)}))
        reports.append(_member_oracle(g, family, value, "gaussian", out))

    # The lattice the library ships: the default window at its default size.
    reports += _readback_checks(psi, correlation_transform(psi), "gaussian", 10.0)
    return reports


def _suite_limits(g: Grid) -> list[CheckReport]:
    reports = []
    psi = _state(g, "gaussian")
    # Both ends of alpha X + (1 - alpha) P on the base grid.  The unit packet
    # is Fourier self-dual, so both targets are its momentum samples times a
    # phase: e^(-i pi/4) as alpha -> 0, the chirp e^(-i lam^2/2) as alpha -> 1.
    # Tolerances: 1.5x the measured defect for the coarse steps, the
    # acceptance bound 1e-2 at the finest step.
    for name, alpha_at, phase, tols in (
        ("interp_limit_fourier", lambda eps: eps, lambda lam: _cis(-np.pi / 4.0),
         (8.6e-2, 8.8e-3, 1e-2)),
        ("interp_limit_identity", lambda eps: 1.0 - eps, lambda lam: _cis(-0.5 * lam**2),
         (1.5 * 5.8e-2, 1.5 * 5.9e-3, 1e-2)),
    ):
        errs = []
        for eps, tol in zip((1e-1, 1e-2, 1e-3), tols):
            alpha = alpha_at(eps)
            out = interp_transform(psi, alpha)
            lam = out.grid.points
            target = phase(lam) * (np.pi**-0.25 * np.exp(-(lam**2) / 2.0))
            err = float(np.abs(out.samples - target).max())
            errs.append(err)
            reports.append(CheckReport(name, {"alpha": alpha}, err, tol))
        reports.append(_monotone(f"{name}_monotone", errs))
    return reports


def _suite_uncertainty(g: Grid) -> list[CheckReport]:
    reports = []
    for c in (-2.0, -1.0, 0.0, 1.0, 2.0):
        m = moments(gaussian(g, GaussianSpec(s=1.0, c=c)))
        reports.append(
            CheckReport("uncertainty_saturation", {"chirp": c}, abs(m.lhs - m.rhs), SATURATION_TOL)
        )
    for k in (1, 2, 3, 4):
        m = moments(hermite(g, k))
        # strict excess: lhs must beat the floor by at least 1
        reports.append(
            CheckReport("uncertainty_strict", {"order": k}, 1.0 - (m.lhs - m.rhs), 0.0)
        )
    return reports


def _suite_delta_limit(g: Grid) -> list[CheckReport]:
    reports = []
    # The Fresnel oscillation at eps needs its own fixed grid, whatever g is.
    cases = [(1e-1, 4096), (1e-2, 16384), (1e-3, 65536)]
    f0 = np.pi**-0.25
    devs = []
    for eps, n_fine in cases:
        g_fine = make_grid(n_fine, 20.0)
        f = _state(g_fine, "gaussian")
        val = inner(fresnel_delta(g_fine, eps), f)
        measured = abs(val - f0)
        predicted = abs(f0 * ((1.0 + 0.5j * eps) ** -0.5 - 1.0))
        devs.append(measured)
        reports.append(
            CheckReport(
                "fresnel_delta_pairing",
                {"eps": eps},
                abs(measured / predicted - 1.0),
                0.5,
            )
        )
    reports.append(_monotone("fresnel_delta_monotone", devs))
    return reports


def _suite_unbiasedness(g: Grid) -> list[CheckReport]:
    # One record per family and claim, at its hardest case; the sweeps over p,
    # a, alpha, lambda and theta are in tests/test_kernels.py.
    reports = []
    p = round(0.9 * np.pi / g.dx, 6)
    for name, family, value, lam, params in (
        ("plane_wave", "plane_wave", None, p, {"p": p}),
        ("position_kernel", "position_in_momentum", None, 2.0, {"a": 2.0}),
        ("interp", "interp", 0.9, 1.0, {"alpha": 0.9, "lam": 1.0}),
        ("rotation", "rotation", np.pi / 6, 0.5, {"theta": round(np.pi / 6, 12)}),
    ):
        member = _FAMILIES[family]
        mod = np.abs(member.sample(g, value, lam).samples)
        reports.append(CheckReport(f"{name}_unbiased", params, float(mod.max() - mod.min()), 1e-15))
        if member.chirp is not None:
            expected = (2.0 * np.pi * member.chirp(value).b) ** -0.5
            modulus_err = float(np.abs(mod - expected).max())
            reports.append(CheckReport(f"{name}_modulus_value", params, modulus_err, 1e-14))
    return reports


def _oracle_grid(g: Grid, chirp: _Chirp) -> Grid:
    # Halve dx until the lattice resolves the kernel chirp (b > 0): on coarser
    # lattices the oracle's rectangle sum aliases at the outer eigenvalues.
    n = g.n
    while not _chirp_resolved(chirp.a, chirp.b, make_grid(n, g.length)):
        n *= 2
    return make_grid(n, g.length)


def _oracle_check(name: str, params: dict, values: np.ndarray, points: np.ndarray,
                  psi: Wavefunction, family: str, tol: float, **param) -> CheckReport:
    """The record ``name``: ``values`` at ``points`` against the oracle of ``family``
    summed on ``psi``, at their ``_oracle_indices``, by the largest error."""
    sub = _oracle_indices(values)
    oracle = quadrature_oracle(psi, family, points[sub], **param)
    return CheckReport(name, params, float(np.abs(values[sub] - oracle).max()), tol)


def _member_oracle(g: Grid, family: str, value: float, name: str,
                   out: Wavefunction) -> CheckReport:
    """``out``, the member's output for the factory state ``name``, against the
    oracle at its ``_oracle_indices``, summed on a grid that resolves the kernel chirp."""
    member = _FAMILIES[family]
    fine = _state(_oracle_grid(g, member.chirp(value)), name)
    params = {member.param: round(value, 12), "state": name}
    return _oracle_check(f"{family}_oracle", params, out.samples, out.grid.points, fine, family,
                         1e-8, **{member.param: value})


def _suite_oracle_agreement(g: Grid) -> list[CheckReport]:
    reports = []
    states = dict(_factory_states(g))
    for name, psi in states.items():
        ft = to_momentum(psi)
        reports.append(_oracle_check("fourier_oracle", {"state": name}, ft.samples,
                                     ft.grid.points, psi, "plane_wave", 1e-10))
    # (family, value, states); the Gaussian's alpha = 0.5 and theta = pi/4 records
    # are in roundtrips.  On the default grid the last two take the momentum side.
    for family, value, names in (
        ("interp", 0.5, tuple(_STATES)[1:]),
        ("rotation", np.pi / 6, ("gaussian",)),
        ("interp", 0.85, ("gaussian",)),
        ("rotation", 0.15, ("gaussian",)),
    ):
        for name in names:
            out = _FAMILIES[family].transform(states[name], value)
            reports.append(_member_oracle(g, family, value, name, out))

    # The channel each state of definite parity leaves empty: its peak against
    # the other channel's is rounding (measured <= 6.4e-18, n = 256 to 2^14),
    # so only the other channel is summed against the oracle.
    # On the at most 2n points a given window gets, whose whole gamma range the oracle reaches.
    zero_channel = {"gaussian": "odd", "hermite_1": "even"}
    for name in ("gaussian", "gaussian_moved", "hermite_1"):
        psi = states[name]
        spec = correlation_transform(psi, u_window=_default_u_window(g))
        channels = {"even": spec.even, "odd": spec.odd}
        if name in zero_channel:
            zero = channels.pop(zero_channel[name])
            (other,) = channels.values()
            ratio = float(np.abs(zero).max() / np.abs(other).max())
            reports.append(CheckReport("correlation_parity_selection", {"state": name}, ratio, 1e-15))
        for channel, values in channels.items():
            reports.append(_oracle_check(f"correlation_oracle_{channel}", {"state": name}, values,
                                         spec.gamma_grid.points, psi, f"correlation_{channel}",
                                         1e-5))

    for name, psi in states.items():
        reports.append(
            CheckReport("conjugation_rule", {"state": name}, conjugation_defect(psi), 1e-8)
        )
    # On a fixed self-dual grid, down to u = -30: with the default u_min = -14
    # the hole alone limits the defect to 3.4e-4.  Measured <= 1.18e-6; the
    # other four factory states are Fourier eigenstates on a self-dual grid.
    g_sd = make_grid(1024, float(np.sqrt(2.0 * np.pi * 1024)))
    window = (-30.0, float(np.log(0.45 * g_sd.length)))
    for name in ("gaussian_chirped", "gaussian_moved"):
        defect = _spectral_conjugation_defect(_state(g_sd, name), window)
        reports.append(CheckReport("correlation_conjugation", {"state": name}, defect, 2e-6))

    psi = states["gaussian_chirped"]
    spec = correlation_transform(psi)
    power = np.abs(spec.even) ** 2 + np.abs(spec.odd) ** 2
    mean_c_spec = float(np.sum(spec.gamma_grid.points * power) * spec.gamma_grid.dx)
    err = abs(mean_c_spec - moments(psi).mean_c)
    reports.append(CheckReport("correlation_mean_c", {"state": "gaussian_chirped"}, err, 1e-5))

    # diagonal dominance of the windowed kernel overlap matrix: the discrete
    # shadow of continuum orthogonality, a kernel-family check on a fixed grid;
    # its kernels are the rows of one block, interp_kernel's samples bit for bit
    alpha = 0.5
    gk = make_grid(1024, 40.0)
    lams = (1.0 - alpha) * dual_grid(gk).points[::32]
    window = np.exp(-gk.points**2 / (2.0 * (gk.length / 8.0) ** 2))
    kernels = _chirp_block(gk, _FAMILIES["interp"].chirp(alpha), lams)
    windowed = window * kernels
    gram = np.array([[np.vdot(ka, wb) * gk.dx for wb in windowed] for ka in kernels])
    agram = np.abs(gram)
    diag = np.diag(agram)
    off = agram.sum(axis=1) - diag
    ratio = float((off / diag).max())
    reports.append(CheckReport("delta_normalization_gram", {"alpha": alpha}, ratio, 1e-3))
    return reports


_SUITES = {
    "commutators": _suite_commutators,
    "eigen_residuals": _suite_eigen_residuals,
    "roundtrips": _suite_roundtrips,
    "limits": _suite_limits,
    "uncertainty": _suite_uncertainty,
    "delta_limit": _suite_delta_limit,
    "unbiasedness": _suite_unbiasedness,
    "oracle_agreement": _suite_oracle_agreement,
}
SUITE_NAMES = tuple(_SUITES)

# Manifest of claim families the union of suites must exercise; the test
# harness asserts this coverage.
REQUIRED_COVERAGE = frozenset(
    {
        "xp_commutator",
        "rotation_commutator",
        "parity_commutation",
        "momentum_eigenfunction",
        "interp_eigenfunction",
        "rotation_eigenfunction",
        "correlation_eigenfunction",
        "fourier_roundtrip",
        "fourier_unitarity",
        "interp_unitarity",
        "rotation_unitarity",
        "correlation_roundtrip",
        "correlation_parseval",
        "interp_limit_fourier",
        "interp_limit_identity",
        "fresnel_delta_pairing",
        "uncertainty_saturation",
        "uncertainty_strict",
        "plane_wave_unbiased",
        "position_kernel_unbiased",
        "interp_unbiased",
        "fourier_oracle",
        "interp_oracle",
        "rotation_oracle",
        "correlation_oracle_even",
        "correlation_oracle_odd",
        "correlation_parity_selection",
        "conjugation_rule",
        "correlation_conjugation",
        "correlation_mean_c",
        "delta_normalization_gram",
    }
)


def run_suite(suite: str, g: Grid) -> list[CheckReport]:
    """Execute one named suite on the given base grid.

    Reports come back in a stable order regardless of internal evaluation
    order.
    """
    try:
        fn = _SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown_suite: {suite!r} is not one of {', '.join(SUITE_NAMES)}"
        ) from None
    reports = fn(g)
    return sorted(reports, key=lambda r: (r.name, repr(sorted(r.parameters.items(), key=str))))


def run_all_suites(g: Grid) -> dict[str, list[CheckReport]]:
    return {name: run_suite(name, g) for name in SUITE_NAMES}
