"""Every coded guard that no other test reaches, by the code it raises."""

import re

import numpy as np
import pytest

from qrep import (
    MOMENTUM,
    POSITION,
    GaussianSpec,
    Grid,
    Wavefunction,
    apply_c_momentum,
    apply_s,
    apply_s_theta,
    correlation_inverse,
    correlation_kernel,
    dual_grid,
    from_momentum,
    gaussian,
    interp_kernel,
    log_grid,
    make_grid,
    plane_wave,
    position_kernel_in_momentum,
    quadrature_oracle,
    rotation_kernel,
)
from qrep.cli import build_parser
from qrep.transforms import CorrelationSpectrum

G = make_grid(64, 16.0)
PSI = gaussian(G, GaussianSpec())
# momentum spacing of G: the centred momentum lattice starts at -32 DK
DK = dual_grid(G).dx


def _spectrum(n_gamma: int, n_u: int) -> CorrelationSpectrum:
    # hand-built, with channels that need not match the log lattice
    zeros = np.zeros(n_gamma, dtype=complex)
    return CorrelationSpectrum(zeros, zeros, 0.0, Grid(n_u, 0.1, -10.0))


def _overflowing_oracle():
    # lam^2 overflows, so the kernel and its coefficient are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        return quadrature_oracle(PSI, "interp", [0.0, 1e155], alpha=0.5)


def _cli(*argv):
    args = build_parser().parse_args(list(argv))
    return args.func(args)


@pytest.mark.parametrize(
    "call,code",
    [
        (lambda: Grid(1000, 0.04, -20.0), "grid_size_power_of_two"),
        (lambda: Grid(1024.0, 0.04, -20.0), "grid_size_power_of_two"),
        (lambda: log_grid(1000, -14.0, 3.0), "grid_size_power_of_two"),
        (lambda: Grid(1024, 0.0, -20.0), "grid_spacing_positive"),
        (lambda: Grid(1024, 0.04, np.nan), "grid_origin_finite"),
        (lambda: Wavefunction(G, np.zeros(5), POSITION), "sample_count"),
        (lambda: log_grid(64, 1.0, 0.0), "log_window_order"),
        (lambda: correlation_inverse(_spectrum(64, 128), G), "channel_length"),
        (lambda: from_momentum(Wavefunction(Grid(64, DK, 0.0), np.zeros(64), MOMENTUM)),
         "momentum_lattice"),
        (lambda: apply_c_momentum(Wavefunction(Grid(64, DK, -31.7 * DK), np.zeros(64), MOMENTUM)),
         "momentum_lattice"),
        (lambda: position_kernel_in_momentum(Grid(64, DK, 0.0), 0.0), "momentum_lattice"),
        (lambda: interp_kernel(G, 0.5, np.nan), "eigenvalue_finite"),
        (lambda: interp_kernel(G, 1.0, np.nan), "eigenvalue_finite"),
        (lambda: rotation_kernel(G, 0.5, np.inf), "eigenvalue_finite"),
        (lambda: correlation_kernel(G, np.nan, "even"), "eigenvalue_finite"),
        (lambda: correlation_kernel(G, 0.0, "even"), "parity_label"),
        (lambda: apply_s(PSI, np.nan), "interp_alpha_finite"),
        (lambda: apply_s(Wavefunction(G, np.ones(64), POSITION), 1.0), "boundary_decay"),
        (lambda: apply_s_theta(PSI, np.inf), "rotation_theta_finite"),
        (lambda: _cli("kernel", "--family", "interp"), "kernel_parameter"),
        (lambda: _cli("kernel", "--family", "fresnel"), "kernel_parameter"),
        (lambda: quadrature_oracle(gaussian(make_grid(1024, 40.0), GaussianSpec()),
                                   "correlation_even", [1e4]),
         "oracle_gamma_range"),
        pytest.param(lambda: quadrature_oracle(PSI, "correlation_odd", [0.0, np.nan]),
                     "oracle_gamma_range", id="nan-oracle_gamma_range"),
        pytest.param(lambda: position_kernel_in_momentum(G, np.nan), "position_aliasing",
                     id="nan-position_aliasing"),
        (lambda: quadrature_oracle(PSI, "plane_wave", [0.0, 1e4]), "momentum_aliasing"),
        (lambda: quadrature_oracle(PSI, "interp", [0.0, np.nan], alpha=0.5), "eigenvalue_finite"),
        (_overflowing_oracle, "sample_finite"),
    ],
)
def test_guard_raises_its_code(call, code):
    with pytest.raises(ValueError, match=f"^{code}:"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call,code,name",
    [
        (lambda v: plane_wave(G, v), "momentum_aliasing", "p"),
        (lambda v: position_kernel_in_momentum(G, v), "position_aliasing", "a"),
        (lambda v: quadrature_oracle(PSI, "plane_wave", [0.0, v]), "momentum_aliasing", "p"),
        (lambda v: quadrature_oracle(PSI, "correlation_odd", [0.0, v]), "oracle_gamma_range",
         "gamma"),
    ],
)
def test_non_finite_value_is_refused_as_not_finite(call, code, name, bad):
    # the code of the range refusal, with a message that says why
    with pytest.raises(ValueError, match=f"^{code}: {name} must be finite, got {bad}$"):
        call(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda v: make_grid(8, v),
                     "grid_length_positive: length must be positive and finite, got {v}",
                     id="length"),
        pytest.param(lambda v: log_grid(64, v, 1.0),
                     "log_window_order: need finite u_min < u_max, got ({v}, 1.0)",
                     id="u_min"),
        pytest.param(lambda v: log_grid(64, -1.0, v),
                     "log_window_order: need finite u_min < u_max, got (-1.0, {v})",
                     id="u_max"),
    ],
)
def test_non_finite_grid_input_is_refused_as_not_finite(call, message, bad):
    # the code of the range refusal, with a message that says why
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(v=bad))}$"):
        call(bad)
