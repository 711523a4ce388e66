"""Property tests of the moment engine, every forward map of the family table
and the correlation transform over randomly drawn valid states, and of the
CLI over drawn spec text.

Where a property is a verify record, the test calls the check function that
record's suite calls (``_fourier_checks``, ``_unitarity_check``,
``_readback_checks``) on the drawn state, so the bound and the arithmetic
are verify's.  Each member is read from the family table: its forward map
and, from its chirp, the coefficients ``(a, b)`` of ``a X + b P``.

States come from the ranges the verify suites and the benchmark's small-grid
session use, on grids of 256 to 4096 points over a length of 40; the
forward maps also take Hermite orders up to 12 and normalized superpositions
of two orders, and the support read of ``log_resample`` is drawn on 4096
points over 160 and 640.
"""

import contextlib
import io
import json
import re

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrep import (
    POSITION,
    GaussianSpec,
    Wavefunction,
    apply_c,
    apply_p,
    correlation_transform,
    gaussian,
    hermite,
    inner,
    log_grid,
    log_resample,
    make_grid,
    moments,
)
from qrep.cli import main
from qrep.transforms import _FAMILIES, _default_n_gamma, _default_u_window
from qrep.verify import _fourier_checks, _readback_checks, _unitarity_check

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
# (family, parameter) for one member of either a X + b P family
members = st.one_of(
    st.tuples(st.just("interp"), st.floats(0.0, 1.0)),
    st.tuples(st.just("rotation"), st.floats(0.0, np.pi / 2, exclude_min=True)),
)

# derandomized: the same examples on every run, so the suite stays a fixed gate
property_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@property_settings
@given(st.one_of(
    gaussian_specs.map(lambda spec: gaussian(make_grid(4096, LENGTH), spec)),
    st.integers(0, 12).map(lambda k: hermite(make_grid(4096, LENGTH), k)),
))
def test_state_sized_correlation_lattice_keeps_parseval_and_the_round_trip(psi):
    # The state sizes the log lattice, at most the count the window alone
    # gave.  The window reaches to u = -20, so the drawn states' hole holds
    # below 1e-6 and the spectrum reads back.
    g = psi.grid
    default = _default_u_window(g)
    window = (-20.0, default[1])
    assert correlation_transform(psi).u_grid.n <= _default_n_gamma(g, default)
    spec = correlation_transform(psi, window)
    assert spec.u_grid.n <= 2 * g.n
    for report in _readback_checks(psi, spec, "drawn", np.exp(window[1])):
        assert report.passed, report


# Off-centre Gaussians and Hermite states vanish, to the last bit, well inside
# the window (-20, ln 0.45 L) at these lengths, so log_resample reads only
# their support; the whole window's read must give the same bits.
@property_settings
@given(psi=st.sampled_from([640.0, 160.0]).flatmap(lambda length: st.one_of(
    st.builds(GaussianSpec, s=st.floats(0.7, 3.0), x0=st.floats(-20.0, 20.0),
              p0=st.floats(-2.0, 2.0), c=st.floats(-1.0, 1.0)).map(
        lambda spec: gaussian(make_grid(4096, length), spec)),
    st.integers(0, 12).map(lambda k: hermite(make_grid(4096, length), k)),
)))
def test_log_resample_support_read_is_bit_identical(psi, whole_window_channels):
    u = log_grid(8192, -20.0, np.log(0.45 * psi.grid.length))
    for h, ref in zip(log_resample(psi, u), whole_window_channels(psi, u)):
        assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))


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
    family, value = member
    out = _FAMILIES[family].transform(psi, value)
    chirp = _FAMILIES[family].chirp(value)
    a, b = chirp.a, chirp.b
    m = moments(psi)
    lam = moments(Wavefunction(out.grid, out.samples, POSITION))
    assert abs(lam.mean_x - (a * m.mean_x + b * m.mean_p)) <= 1e-12
    var = a * a * m.var_x + b * b * m.var_p + 2.0 * a * b * m.corr_term
    assert abs(lam.var_x - var) <= 1e-12 * var
    det = m.lhs - m.corr_term**2
    assert abs(lam.lhs - lam.corr_term**2 - det) <= 1e-12 * det


def _hermite_pair(n, orders, phase):
    """``h_j + e^(i phase) h_k``, normalized on the grid."""
    g = make_grid(n, LENGTH)
    j, k = orders
    s = hermite(g, j).samples + np.exp(1j * phase) * hermite(g, k).samples
    return Wavefunction(g, s / np.sqrt(np.sum(np.abs(s) ** 2) * g.dx), POSITION)


small_sizes = st.sampled_from([256, 512, 1024])
unit_states = st.one_of(
    states_on(small_sizes),  # the module's Gaussians and Hermite orders up to 8
    st.tuples(small_sizes, st.integers(9, 12)).map(
        lambda t: hermite(make_grid(t[0], LENGTH), t[1])),
    st.tuples(small_sizes, st.lists(st.integers(0, 12), min_size=2, max_size=2, unique=True),
              st.floats(0.0, 2.0 * np.pi)).map(lambda t: _hermite_pair(*t)),
)


@property_settings
@given(unit_states, st.floats(0.0, 1.0), st.floats(0.0, np.pi / 2, exclude_min=True))
def test_every_forward_map_keeps_the_norm(psi, alpha, theta):
    # the Fourier map's records, then every chirp row of the table; alpha and
    # theta reach both chirp sides
    reports = _fourier_checks(psi, "drawn")
    values = {"alpha": alpha, "theta": theta}
    for name, family in _FAMILIES.items():
        if family.chirp is not None:
            value = values[family.param]
            reports.append(_unitarity_check(family.transform(psi, value), name,
                                            {family.param: value}))
    for report in reports:
        assert report.passed, report


# Spec text for the CLI: each spec's own fields with any number, including
# non-finite and overflowing ones, and bodies of junk items.
_numbers = st.one_of(st.floats(), st.floats(-20.0, 20.0), st.integers(-20, 20))
_items = st.one_of(
    st.tuples(st.sampled_from(["s", "k", "alpha", " s ", "", "q"]),
              st.one_of(_numbers.map(repr), st.text(max_size=5))).map("=".join),
    st.text(max_size=6),
)
_junk = st.tuples(st.sampled_from(["gaussian", "hermite", "interp", "squeezed", ""]),
                  st.sampled_from([":", ""]), st.lists(_items, max_size=3).map(",".join))


def _spec(name, fields):
    return st.dictionaries(st.sampled_from(fields), _numbers.map(repr), max_size=len(fields)).map(
        lambda d: name + ":" + ",".join(f"{k}={v}" for k, v in d.items()))


_state_specs = st.one_of(_spec("gaussian", ["s", "x0", "p0", "c"]), _spec("hermite", ["k"]),
                         _junk.map("".join))
_rep_specs = st.one_of(_spec("interp", ["alpha"]), _spec("rotation", ["theta"]),
                       st.sampled_from(["momentum", "correlation"]), _junk.map("".join))
_json_values = st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=5),
                         st.lists(_numbers, max_size=2))
_configs = st.one_of(
    st.fixed_dictionaries(
        {"state": st.sampled_from(["gaussian", "hermite"])},
        optional={k: st.one_of(_numbers, _json_values) for k in ("s", "x0", "p0", "c", "k")},
    ).map(json.dumps),
    st.dictionaries(st.sampled_from(["state", "s", "q"]), _json_values, max_size=3).map(json.dumps),
    st.lists(_json_values, max_size=2).map(json.dumps),
    st.text(max_size=12),
)

# a family with its own parameter option, if any, and an eigenvalue
_kernel_args = st.tuples(
    st.sampled_from([["plane-wave"], ["position-in-momentum"], ["corr-even"], ["corr-odd"],
                     ["interp", "--alpha"], ["rotation", "--theta"], ["fresnel", "--eps"]]),
    st.one_of(st.floats(0.0, 1.6), _numbers), _numbers,
).map(lambda t: ["--family", t[0][0], *[f"{o}={t[1]!r}" for o in t[0][1:]], f"--lam={t[2]!r}"])


@property_settings
@given(
    st.one_of(
        st.tuples(st.just("moments"), st.just([]), _state_specs, st.none()),
        st.tuples(st.just("transform"), _rep_specs.map(lambda r: [f"--rep={r}"]),
                  _state_specs, st.none()),
        st.tuples(st.just("moments"), st.just([]), st.none(), _configs),
        st.tuples(st.just("kernel"), _kernel_args, st.none(), st.none()),
    )
)
# each overflowed, with a RuntimeWarning or an OverflowError, before it was refused
@example(("moments", [], "gaussian:x0=1.3407807929942597e+154", None))
@example(("moments", [], None, '{"state": "gaussian", "c": 1e308}'))
@example(("kernel", ["--family", "rotation", "--theta=1.5", "--lam=1e+200"], None, None))
def test_cli_spec_input_exits_zero_or_two_with_a_code(tmp_path_factory, call):
    # run in process: any exception but a coded ValueError escapes main
    command, rep, state, config = call
    argv = [command, *rep, "--n", "64", "--length", "16"]
    if state is not None:
        argv.append(f"--state={state}")
    if config is not None:
        path = tmp_path_factory.mktemp("spec") / "state.json"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert not err.getvalue()
    else:
        assert rc == 2
        assert re.fullmatch(r"qrep: [a-z_]+: .+\n", err.getvalue(), re.S), err.getvalue()
