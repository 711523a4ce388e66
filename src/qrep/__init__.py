"""Grid representations of one-dimensional quantum states.

States are complex samples on a uniform lattice, tagged with the observable
whose eigenbasis they are coefficients in.  The library provides analytically
known test states, samplers for the generalized eigenfunctions of X, P,
``alpha X + (1-alpha) P``, ``X cos(theta) + P sin(theta)`` and ``(XP+PX)/2``,
the unitary transforms between those representations, a moment engine for
the strengthened uncertainty bound, and named verification suites that check
the whole construction against independent direct-summation oracles.
"""

from .grid import (
    Grid,
    MOMENTUM,
    POSITION,
    RepresentationLabel,
    Wavefunction,
    dual_grid,
    inner,
    log_grid,
    log_resample,
    make_grid,
    norm,
)
from .kernels import (
    CORRELATION_KERNEL_SCALE,
    Parity,
    correlation_kernel,
    fresnel_delta,
    interp_kernel,
    plane_wave,
    position_kernel_in_momentum,
    rotation_kernel,
)
from .operators import (
    MomentReport,
    apply_c,
    apply_c_momentum,
    apply_p,
    apply_s,
    apply_s_theta,
    apply_x,
    moments,
    parity_flip,
)
from .states import GaussianSpec, gaussian, hermite
from .transforms import (
    CorrelationSpectrum,
    correlation_inverse,
    correlation_transform,
    from_momentum,
    interp_transform,
    quadrature_oracle,
    rotation_transform,
    to_momentum,
)
from .verify import CheckReport, SUITE_NAMES, conjugation_defect, run_all_suites, run_suite

__version__ = "0.1.0"

__all__ = [
    "CORRELATION_KERNEL_SCALE",
    "CheckReport",
    "CorrelationSpectrum",
    "GaussianSpec",
    "Grid",
    "MOMENTUM",
    "MomentReport",
    "POSITION",
    "Parity",
    "RepresentationLabel",
    "SUITE_NAMES",
    "Wavefunction",
    "apply_c",
    "apply_c_momentum",
    "apply_p",
    "apply_s",
    "apply_s_theta",
    "apply_x",
    "conjugation_defect",
    "correlation_inverse",
    "correlation_kernel",
    "correlation_transform",
    "dual_grid",
    "fresnel_delta",
    "from_momentum",
    "gaussian",
    "hermite",
    "inner",
    "interp_kernel",
    "interp_transform",
    "log_grid",
    "log_resample",
    "make_grid",
    "moments",
    "norm",
    "parity_flip",
    "plane_wave",
    "position_kernel_in_momentum",
    "quadrature_oracle",
    "rotation_kernel",
    "rotation_transform",
    "run_all_suites",
    "run_suite",
    "to_momentum",
]
