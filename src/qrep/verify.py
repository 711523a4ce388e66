"""Named, parameterized property suites shared by the test harness and the CLI.

Each suite is a pure function from a base grid to a list of `CheckReport`,
so `qrep verify` and the pytest suite execute the identical code path.  A
check passes iff its observed defect is at most its tolerance.  Each check
runs once, on the grid its claim needs: the finite-difference residuals test
the kernel formulas on fixed grids, the oracle sums and the endpoint limits
derive finer grids from the base one, and the rest run on the base grid;
everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, Wavefunction, dual_grid, inner, make_grid, norm
from .kernels import (
    Parity,
    _Chirp,
    _chirp_resolved,
    correlation_kernel,
    fresnel_delta,
    interp_kernel,
    plane_wave,
    position_kernel_in_momentum,
)
from .operators import (
    apply_c,
    apply_p,
    apply_s_theta,
    apply_x,
    moments,
    parity_flip,
    windowed_eigen_residual,
)
from .states import GaussianSpec, gaussian, hermite
from .transforms import (
    _CHIRP_FAMILIES,
    conjugation_defect,
    correlation_inverse,
    correlation_transform,
    from_momentum,
    interp_transform,
    quadrature_oracle,
    to_momentum,
    windowed_conjugation_defect,
)

__all__ = ["CheckReport", "run_suite", "run_all_suites", "SUITE_NAMES", "REQUIRED_COVERAGE"]

SUITE_NAMES = (
    "commutators",
    "eigen_residuals",
    "roundtrips",
    "limits",
    "uncertainty",
    "delta_limit",
    "unbiasedness",
    "oracle_agreement",
)


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
        return {
            "name": self.name,
            "parameters": self.parameters,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


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


def _suite_commutators(g: Grid) -> list[CheckReport]:
    reports = []
    states = dict(_factory_states(g))
    for name, psi in states.items():
        xp = inner(psi, apply_x(apply_p(psi))) - inner(psi, apply_p(apply_x(psi)))
        reports.append(
            CheckReport("xp_commutator", {"state": name}, abs(xp - 1j), 1e-8)
        )
    psi = states["gaussian"]
    for t1 in _ANGLES:
        for t2 in _ANGLES:
            comm = inner(psi, apply_s_theta(apply_s_theta(psi, t2), t1)) - inner(
                psi, apply_s_theta(apply_s_theta(psi, t1), t2)
            )
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
    # The residuals test the kernel formulas, not the base lattice, so the
    # grids are fixed.  The chirp kernels need a finer step over a smaller
    # window to push the finite-difference error below tolerance.
    g_wide = make_grid(8192, 40.0)
    g_fine = make_grid(16384, 20.0)

    dp = dual_grid(g_wide).dx
    for p_target in (-2.0, 0.5, 1.0):
        p = round(p_target / dp) * dp
        k = plane_wave(g_wide, p)
        window = np.abs(g_wide.points) <= g_wide.length / 4.0
        res = windowed_eigen_residual(k, p, window, 0.0, 1.0)
        reports.append(
            CheckReport("momentum_eigenfunction", {"p": round(p, 12)}, res, 1e-6)
        )

    window = np.abs(g_fine.points) <= g_fine.length / 4.0
    for family, values in (
        ("interp", (0.25, 0.5, 0.75)),
        ("rotation", (np.pi / 6, np.pi / 4, np.pi / 3)),
    ):
        member = _CHIRP_FAMILIES[family]
        for value in values:
            chirp = member.chirp(value)
            for lam in (-1.0, 0.0, 0.5, 2.0):
                k = member.sample(g_fine, value, lam)
                res = windowed_eigen_residual(k, lam, window, chirp.a, chirp.b)
                params = {member.param: round(value, 12), "lam": lam}
                reports.append(CheckReport(f"{family}_eigenfunction", params, res, 1e-6))

    ax = np.abs(g_wide.points)
    window = (ax >= 1.0) & (ax <= 8.0)
    for gamma in (-2.0, 0.0, 1.0):
        for par in (Parity.EVEN, Parity.ODD):
            k = correlation_kernel(g_wide, gamma, par)
            res = windowed_eigen_residual(k, gamma, window, 0.0, 0.0, dilation=True)
            reports.append(
                CheckReport(
                    "correlation_eigenfunction",
                    {"gamma": gamma, "parity": par.value},
                    res,
                    1e-6,
                )
            )
    return reports


def _correlation_window(g: Grid) -> tuple[float, float]:
    # Wide enough that a unit Gaussian's unseen probability is ~1e-6.
    return (-14.0, float(np.log(0.45 * g.length)))


def _suite_roundtrips(g: Grid) -> list[CheckReport]:
    reports = []
    states = dict(_factory_states(g))
    for name, psi in states.items():
        ft = to_momentum(psi)
        back = from_momentum(ft)
        reports.append(
            CheckReport(
                "fourier_roundtrip",
                {"state": name},
                float(np.abs(back.samples - psi.samples).max()),
                1e-12,
            )
        )
        reports.append(
            CheckReport("fourier_unitarity", {"state": name}, abs(norm(ft) - 1.0), 1e-10)
        )
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
        member = _CHIRP_FAMILIES[family]
        out = member.transform(psi, value)
        params = {member.param: round(value, 12)}
        reports.append(
            CheckReport(f"{family}_unitarity", params, abs(norm(out) - 1.0), 1e-8)
        )
        reports.append(_member_oracle(g, family, value, 8, "gaussian", out))

    window = _correlation_window(g)
    spec = correlation_transform(psi, u_window=window, n_gamma=2 * g.n)
    rec = correlation_inverse(spec, g)
    x = g.points
    annulus = (np.abs(x) >= 4.0 * g.dx) & (np.abs(x) <= 10.0)
    err = float(np.abs(rec.samples - psi.samples)[annulus].max())
    reports.append(CheckReport("correlation_roundtrip", {"state": "gaussian"}, err, 1e-5))
    n_rec = float(np.sqrt(np.sum(np.abs(rec.samples[annulus]) ** 2) * g.dx))
    n_in = float(np.sqrt(np.sum(np.abs(psi.samples[annulus]) ** 2) * g.dx))
    reports.append(
        CheckReport("correlation_roundtrip_norm", {"state": "gaussian"}, abs(n_rec - n_in), 1e-5)
    )
    defect = abs(spec.channel_power() - (1.0 - spec.tail_mass))
    reports.append(CheckReport("correlation_parseval", {"state": "gaussian"}, defect, 1e-6))
    return reports


def _gaussian_momentum_samples(lam: np.ndarray) -> np.ndarray:
    # closed form: the unit-width packet is Fourier self-dual
    return np.pi**-0.25 * np.exp(-(lam**2) / 2.0)


def _suite_limits(g: Grid) -> list[CheckReport]:
    reports = []
    psi = _state(g, "gaussian")
    # tolerances: 1.5x the measured defect for the coarse steps, the
    # acceptance bound 1e-2 at the finest step
    fourier_tols = {1e-1: 8.6e-2, 1e-2: 8.8e-3, 1e-3: 1e-2}
    errs = []
    for alpha, tol in fourier_tols.items():
        out = interp_transform(psi, alpha)
        target = np.exp(-1j * np.pi / 4.0) * _gaussian_momentum_samples(out.grid.points)
        err = float(np.abs(out.samples - target).max())
        errs.append(err)
        reports.append(CheckReport("interp_limit_fourier", {"alpha": alpha}, err, tol))
    mono = max(errs[1] / errs[0], errs[2] / errs[1])
    reports.append(CheckReport("interp_limit_fourier_monotone", {}, mono, 1.0))

    identity_cases = [(1e-1, 2048), (1e-2, 16384), (1e-3, 131072)]
    errs = []
    for eps, n_fine in identity_cases:
        g_fine = make_grid(max(n_fine, g.n), 16.0)
        psi_f = _state(g_fine, "gaussian")
        out = interp_transform(psi_f, 1.0 - eps)
        lam = out.grid.points
        target = np.exp(-0.5j * lam**2) * (
            np.pi**-0.25 * np.exp(-(lam**2) / 2.0)
        )
        err = float(np.abs(out.samples - target).max())
        errs.append(err)
        tol = 1e-2 if eps == 1e-3 else 1.5 * {1e-1: 5.8e-2, 1e-2: 5.9e-3}[eps]
        reports.append(
            CheckReport("interp_limit_identity", {"alpha": 1.0 - eps}, err, tol)
        )
    mono = max(errs[1] / errs[0], errs[2] / errs[1])
    reports.append(CheckReport("interp_limit_identity_monotone", {}, mono, 1.0))
    return reports


def _suite_uncertainty(g: Grid) -> list[CheckReport]:
    reports = []
    for c in (-2.0, -1.0, 0.0, 1.0, 2.0):
        m = moments(gaussian(g, GaussianSpec(s=1.0, c=c)))
        reports.append(
            CheckReport("uncertainty_saturation", {"chirp": c}, abs(m.lhs - m.rhs), 1e-8)
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
    cases = [(1e-1, 4096), (1e-2, 16384), (1e-3, 65536)]
    f0 = np.pi**-0.25
    devs = []
    for eps, n_fine in cases:
        g_fine = make_grid(max(n_fine, g.n), 20.0)
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
    mono = max(devs[1] / devs[0], devs[2] / devs[1])
    reports.append(CheckReport("fresnel_delta_monotone", {}, mono, 1.0))
    return reports


def _modulus_spread(w: Wavefunction) -> float:
    mod = np.abs(w.samples)
    return float(mod.max() - mod.min())


def _suite_unbiasedness(g: Grid) -> list[CheckReport]:
    reports = []
    for p in (0.0, 1.5, -3.2, round(0.9 * np.pi / g.dx, 6)):
        reports.append(
            CheckReport(
                "plane_wave_unbiased", {"p": p}, _modulus_spread(plane_wave(g, p)), 1e-15
            )
        )
    gp = dual_grid(g)
    for a in (0.0, 2.0):
        reports.append(
            CheckReport(
                "position_kernel_unbiased",
                {"a": a},
                _modulus_spread(position_kernel_in_momentum(gp, a)),
                1e-15,
            )
        )
    for family, values, lams in (
        ("interp", (0.25, 0.5, 0.75, 0.9), (0.0, 1.0)),
        ("rotation", (np.pi / 6, np.pi / 4, np.pi / 3), (0.5,)),
    ):
        member = _CHIRP_FAMILIES[family]
        for value in values:
            expected = (2.0 * np.pi * member.chirp(value).b) ** -0.5
            for lam in lams:
                k = member.sample(g, value, lam)
                params = {member.param: round(value, 12)}
                if len(lams) > 1:
                    params["lam"] = lam
                modulus_err = float(np.abs(np.abs(k.samples) - expected).max())
                reports.append(CheckReport(f"{family}_unbiased", params, _modulus_spread(k), 1e-15))
                reports.append(CheckReport(f"{family}_modulus_value", params, modulus_err, 1e-14))
    return reports


def _oracle_grid(g: Grid, chirp: _Chirp) -> Grid:
    # Halve dx until the lattice resolves the kernel chirp (b > 0): on coarser
    # lattices the oracle's rectangle sum aliases at the outer eigenvalues.
    n = g.n
    while not _chirp_resolved(chirp.a, chirp.b, make_grid(n, g.length)):
        n *= 2
    return make_grid(n, g.length)


def _member_oracle(g: Grid, family: str, value: float, stride: int, name: str,
                   out: Wavefunction) -> CheckReport:
    """``out``, the member's output for the factory state ``name``, against the
    oracle at every ``stride``-th eigenvalue, summed on a grid that resolves
    the kernel chirp."""
    member = _CHIRP_FAMILIES[family]
    fine = _state(_oracle_grid(g, member.chirp(value)), name)
    oracle = quadrature_oracle(fine, family, out.grid.points[::stride], **{member.param: value})
    err = float(np.abs(out.samples[::stride] - oracle).max())
    params = {member.param: round(value, 12), "state": name}
    return CheckReport(f"{family}_oracle", params, err, 1e-8)


def _suite_oracle_agreement(g: Grid) -> list[CheckReport]:
    reports = []
    states = dict(_factory_states(g))
    sub = np.arange(0, g.n, 8)
    for name, psi in states.items():
        ft = to_momentum(psi)
        oracle = quadrature_oracle(psi, "plane_wave", ft.grid.points[sub])
        reports.append(
            CheckReport(
                "fourier_oracle",
                {"state": name},
                float(np.abs(ft.samples[sub] - oracle).max()),
                1e-10,
            )
        )
    # (family, value, lambda stride, states); the Gaussian's alpha = 0.5 and
    # theta = pi/4 records are in roundtrips.  On the default grid the last
    # two members take the transform's momentum side.
    for family, value, stride, names in (
        ("interp", 0.5, 8, ("gaussian_chirped", "gaussian_moved", "hermite_1", "hermite_2",
                            "hermite_3")),
        ("rotation", np.pi / 6, 8, ("gaussian",)),
        ("interp", 0.85, 64, ("gaussian",)),
        ("rotation", 0.15, 64, ("gaussian",)),
    ):
        for name in names:
            out = _CHIRP_FAMILIES[family].transform(states[name], value)
            reports.append(_member_oracle(g, family, value, stride, name, out))

    window = _correlation_window(g)
    for name in ("gaussian", "gaussian_moved", "hermite_1"):
        psi = states[name]
        spec = correlation_transform(psi, u_window=window, n_gamma=2 * g.n)
        gsub = np.arange(0, spec.gamma_grid.n, 64)
        gams = spec.gamma_grid.points[gsub]
        for channel, values in (("even", spec.even), ("odd", spec.odd)):
            oracle = quadrature_oracle(psi, f"correlation_{channel}", gams, u_window=window)
            reports.append(
                CheckReport(
                    f"correlation_oracle_{channel}",
                    {"state": name},
                    float(np.abs(values[gsub] - oracle).max()),
                    1e-5,
                )
            )

    for name, psi in states.items():
        reports.append(
            CheckReport("conjugation_rule", {"state": name}, conjugation_defect(psi), 1e-8)
        )
    for gamma in (0.0, 1.0):
        for par in (Parity.EVEN, Parity.ODD):
            defect, _ = windowed_conjugation_defect(g, gamma, par)
            tol = 0.2 if par is Parity.EVEN else 0.05
            reports.append(
                CheckReport(
                    "conjugation_windowed_diagnostic",
                    {"gamma": gamma, "parity": par.value},
                    defect,
                    tol,
                )
            )

    psi = states["gaussian_chirped"]
    spec = correlation_transform(psi, u_window=(-28.0, float(np.log(18.0))), n_gamma=4 * g.n)
    dgam = spec.gamma_grid.dx
    mean_c_spec = float(
        np.sum(spec.gamma_grid.points * (np.abs(spec.even) ** 2 + np.abs(spec.odd) ** 2)) * dgam
    )
    mean_c_op = moments(psi).mean_c
    reports.append(
        CheckReport(
            "correlation_mean_c",
            {"state": "gaussian_chirped"},
            abs(mean_c_spec - mean_c_op),
            1e-5,
        )
    )

    # diagonal dominance of the windowed kernel overlap matrix: the discrete
    # shadow of continuum orthogonality
    alpha = 0.5
    lam_grid = (1.0 - alpha) * dual_grid(g).points
    lams = lam_grid[np.arange(0, g.n, 32)]
    window_arr = np.exp(-g.points**2 / (2.0 * (g.length / 8.0) ** 2))
    kernels = [interp_kernel(g, alpha, l).samples for l in lams]
    gram = np.array(
        [[np.vdot(ka, window_arr * kb) * g.dx for kb in kernels] for ka in kernels]
    )
    agram = np.abs(gram)
    diag = np.diag(agram)
    off = agram.sum(axis=1) - diag
    reports.append(
        CheckReport(
            "delta_normalization_gram",
            {"alpha": alpha},
            float((off / diag).max()),
            1e-3,
        )
    )
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
        "conjugation_rule",
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
