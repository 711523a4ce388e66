"""Property tests of the moment engine and the ``a X + b P`` transforms over
randomly drawn valid states.

States come from the ranges the verify suites and the benchmark's small-grid
session use, on grids of 256 to 4096 points over a length of 40.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qrep import (
    POSITION,
    GaussianSpec,
    Wavefunction,
    apply_c,
    apply_p,
    gaussian,
    hermite,
    inner,
    interp_transform,
    make_grid,
    moments,
    rotation_transform,
)

LENGTH = 40.0

grid_sizes = st.sampled_from([256, 512, 1024, 2048, 4096])
# The session's packets chirp by |c| <= 1; the uncertainty suite's reach
# |c| = 2 at s = 1.  Wider chirped packets are not resolved at n = 256
# (s = 1.5, c = 2 leaves 4e-10 at the momentum edge) and are refused.
gaussian_specs = st.one_of(
    st.builds(
        GaussianSpec,
        s=st.floats(0.8, 1.5),
        x0=st.floats(-1.0, 1.0),
        p0=st.floats(-0.5, 0.5),
        c=st.floats(-1.0, 1.0),
    ),
    st.builds(GaussianSpec, c=st.floats(-2.0, 2.0)),
)


def states_on(sizes):
    return st.one_of(
        st.tuples(sizes, gaussian_specs).map(lambda t: gaussian(make_grid(t[0], LENGTH), t[1])),
        st.tuples(sizes, st.integers(0, 8)).map(lambda t: hermite(make_grid(t[0], LENGTH), t[1])),
    )


states = states_on(grid_sizes)
# (transform, parameter, a, b) for one member of either a X + b P family
members = st.one_of(
    st.floats(0.0, 1.0).map(lambda alpha: (interp_transform, alpha, alpha, 1.0 - alpha)),
    st.floats(0.0, np.pi / 2, exclude_min=True).map(
        lambda theta: (rotation_transform, theta, np.cos(theta), np.sin(theta))
    ),
)

# derandomized: the same examples on every run, so the suite stays a fixed gate
property_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@property_settings
@given(states)
def test_moments_match_operator_definitions(psi):
    m = moments(psi)
    mean_x2 = m.var_x + m.mean_x**2
    mean_p2 = m.var_p + m.mean_p**2
    want_p2 = inner(psi, apply_p(apply_p(psi))).real
    want_c = inner(psi, apply_c(psi)).real
    assert abs(mean_p2 - want_p2) <= 1e-12 * want_p2
    # |<C>| <= ||x psi|| ||P psi||, the scale of its rounding error
    assert abs(m.mean_c - want_c) <= 1e-12 * np.sqrt(mean_x2 * mean_p2)
    assert m.lhs >= m.rhs - 1e-8


@property_settings
@given(grid_sizes, gaussian_specs)
def test_gaussians_saturate_strengthened_bound(n, spec):
    m = moments(gaussian(make_grid(n, LENGTH), spec))
    assert abs(m.lhs - m.rhs) <= 1e-8


# Not drawn at n = 256: there some members' lambda lattices leave the state
# undecayed at their edges, and moments refuses it.
@property_settings
@given(states_on(st.sampled_from([1024, 2048, 4096])), members)
def test_member_moments_follow_from_position_moments(psi, member):
    # Relabelled as position samples on its lambda lattice, a member's output
    # has <lam> = a<X> + b<P>, var lam = a^2 var_x + b^2 var_p + 2ab corr_term,
    # and the same covariance determinant var_x var_p - corr_term^2.
    transform, value, a, b = member
    out = transform(psi, value)
    m = moments(psi)
    lam = moments(Wavefunction(out.grid, out.samples, POSITION))
    assert abs(lam.mean_x - (a * m.mean_x + b * m.mean_p)) <= 1e-12
    var = a * a * m.var_x + b * b * m.var_p + 2.0 * a * b * m.corr_term
    assert abs(lam.var_x - var) <= 1e-12 * var
    det = m.lhs - m.corr_term**2
    assert abs(lam.lhs - lam.corr_term**2 - det) <= 1e-12 * det
