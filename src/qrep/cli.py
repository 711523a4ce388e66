"""Command-line front end.

    qrep kernel    --family interp --alpha 0.5 --lam 0.0
    qrep transform --rep momentum --state gaussian:s=1
    qrep moments   --state gaussian:s=1,c=2
    qrep verify    --suite all

Tabular output is CSV with 17 significant digits (doubles round-trip
exactly); reports are JSON.  Files are written to a temporary name and
atomically renamed, so a failing command never leaves a partial file.
Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
including ``output_write`` and ``config_read`` for files that cannot be
written or read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .grid import Grid, Wavefunction, dual_grid, make_grid, norm
from .kernels import (
    Parity,
    _require_chirp_resolved,
    correlation_kernel,
    fresnel_delta,
    interp_kernel,
    plane_wave,
    position_kernel_in_momentum,
    rotation_kernel,
)
from .operators import moments
from .states import GaussianSpec, gaussian, hermite
from .transforms import _CHIRP_FAMILIES, correlation_transform, to_momentum
from .verify import SATURATION_TOL, SUITE_NAMES, run_all_suites, run_suite


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qrep-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # name the requested path, not the temporary one
        raise ValueError(f"output_write: cannot write {path}: {exc.strerror or exc}") from None


def _emit_table(args, header: list[str], columns: list[list]) -> None:
    rows = zip(*columns)
    if args.format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)


def _sample_columns(wf) -> list[list]:
    """Coordinate, real part, imaginary part and modulus of each sample."""
    s = wf.samples
    # Python's scalar abs: np.abs can differ from it in the last bit
    moduli = [abs(v) for v in s.tolist()]
    return [wf.grid.points.tolist(), s.real.tolist(), s.imag.tolist(), moduli]


def _number(what: str, key: str, val) -> float:
    if not isinstance(val, bool):
        try:
            return float(val)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what}_value: {key} must be a number, got {val!r}")


def _parse_kv(body: str, what: str) -> dict:
    params = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise ValueError(f"{what}_syntax: expected key=value, got {item!r}")
            key, val = item.split("=", 1)
            params[key.strip()] = _number(what, key.strip(), val)
    return params


def parse_state_spec(g: Grid, spec: str) -> Wavefunction:
    """The state ``gaussian:s=1,x0=0,p0=0,c=2`` or ``hermite:k=3`` on ``g``."""
    name, _, body = spec.partition(":")
    return _state_from_fields(g, name, _parse_kv(body, "state_spec"))


def _state_from_fields(g: Grid, name, params: dict) -> Wavefunction:
    if name == "gaussian":
        allowed = {"s", "x0", "p0", "c"}
        extra = set(params) - allowed
        if extra:
            raise ValueError(f"state_spec_field: unknown gaussian fields {sorted(extra)}")
        return gaussian(g, GaussianSpec(**params))
    if name == "hermite":
        if set(params) - {"k"}:
            raise ValueError("state_spec_field: hermite takes only k")
        k = params.get("k", 0.0)
        # hermite() owns the order range; it refuses what stays a float here
        return hermite(g, int(k) if k.is_integer() else k)
    raise ValueError(f"state_spec_name: unknown state {name!r} (want gaussian or hermite)")


def _state_from_config(g: Grid, path: str) -> Wavefunction:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"config_read: cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"config_format: {path} is not valid JSON ({exc})") from None
    if not isinstance(cfg, dict) or not isinstance(cfg.get("state"), str):
        raise ValueError(
            f'config_format: {path} must hold a JSON object with a string "state" field, '
            'e.g. {"state": "gaussian", "s": 1.0}'
        )
    params = {k: _number("state_spec", k, v) for k, v in cfg.items() if k != "state"}
    return _state_from_fields(g, cfg["state"], params)


_DEFAULT_STATE = "gaussian:s=1"


def build_state(g: Grid, args):
    """The state named by ``--state`` or by ``--config``, which are refused
    together; ``gaussian:s=1`` when neither is given."""
    if args.config is None:
        return parse_state_spec(g, _DEFAULT_STATE if args.state is None else args.state)
    if args.state is not None:
        raise ValueError("state_source: give --state or --config, not both")
    return _state_from_config(g, args.config)


_MAX_N = 2**20  # four times the largest grid the README and the benchmark use


def _grid(args) -> Grid:
    """The ``--n``/``--length`` grid, refused above ``_MAX_N`` before anything is
    allocated; the library itself takes any size."""
    if args.n > _MAX_N:
        raise ValueError(f"grid_size_limit: --n {args.n} exceeds the CLI limit 2^20 = {_MAX_N}")
    return make_grid(args.n, args.length)


def _fresnel(g: Grid, eps: float, lam: float) -> Wavefunction:
    if lam != 0.0:
        raise ValueError(
            f"kernel_parameter: fresnel is the lambda = 0 member of X + (eps/2) P, got --lam {lam}"
        )
    return fresnel_delta(g, eps)


# Every kernel family by its --family name: the one parameter option it takes,
# if any, and its sampler of (grid, parameter, eigenvalue).
_KERNELS = {
    "plane-wave": (None, lambda g, _, lam: plane_wave(g, lam)),
    "position-in-momentum": (
        None, lambda g, _, lam: position_kernel_in_momentum(dual_grid(g), lam)),
    "interp": ("alpha", interp_kernel),
    "rotation": ("theta", rotation_kernel),
    "corr-even": (None, lambda g, _, lam: correlation_kernel(g, lam, Parity.EVEN)),
    "corr-odd": (None, lambda g, _, lam: correlation_kernel(g, lam, Parity.ODD)),
    "fresnel": ("eps", _fresnel),
}
_KERNEL_PARAMS = tuple(param for param, _ in _KERNELS.values() if param)


def cmd_kernel(args) -> int:
    g = _grid(args)
    fam = args.family
    param, sample = _KERNELS[fam]
    for other in _KERNEL_PARAMS:
        if other != param and getattr(args, other) is not None:
            raise ValueError(f"kernel_parameter: {fam} family takes no --{other}")
    value = None if param is None else getattr(args, param)
    if param is not None and value is None:
        raise ValueError(f"kernel_parameter: {fam} family requires --{param}")
    if fam in _CHIRP_FAMILIES:  # an unresolved chirp is refused before sampling
        chirp = _CHIRP_FAMILIES[fam].chirp(value)
        _require_chirp_resolved(chirp.a, chirp.b, g)
    _emit_table(args, ["x", "re", "im", "abs"], _sample_columns(sample(g, value, args.lam)))
    return 0


def _sidecar(args, payload: dict) -> None:
    if args.out and args.out != "-":
        _write_text(args.out + ".meta.json", json.dumps(payload, indent=2) + "\n")


def cmd_transform(args) -> int:
    g = _grid(args)
    psi = build_state(g, args)
    rep_name, _, rep_body = args.rep.partition(":")
    if rep_name not in ("momentum", "correlation", *_CHIRP_FAMILIES):
        raise ValueError(
            f"rep_spec_name: unknown representation {rep_name!r} "
            "(want momentum, interp:alpha=..., rotation:theta=..., or correlation)"
        )
    rep_params = _parse_kv(rep_body, "rep_spec")
    member = _CHIRP_FAMILIES.get(rep_name)
    extra = set(rep_params) - ({member.param} if member else set())
    if extra:
        raise ValueError(f"rep_spec_field: unknown {rep_name} fields {sorted(extra)}")
    windowed = args.u_min is not None or args.u_max is not None
    if windowed and rep_name != "correlation":
        raise ValueError(
            "rep_spec_field: --u-min and --u-max set the correlation window; "
            f"{rep_name} takes neither"
        )

    if rep_name == "correlation":
        window = None
        if windowed:
            if args.u_min is None or args.u_max is None:
                raise ValueError("rep_spec: provide both --u-min and --u-max or neither")
            window = (args.u_min, args.u_max)
        spectrum = correlation_transform(psi, u_window=window)
        gam = spectrum.gamma_grid.points.tolist()
        even, odd = spectrum.even, spectrum.odd
        columns = [
            gam + gam,
            ["even"] * len(gam) + ["odd"] * len(gam),
            even.real.tolist() + odd.real.tolist(),
            even.imag.tolist() + odd.imag.tolist(),
        ]
        _emit_table(args, ["gamma", "parity", "re", "im"], columns)
        _sidecar(
            args,
            {
                "norm_in": norm(psi),
                "norm_out": math.sqrt(spectrum.channel_power()),
                "tail_mass": spectrum.tail_mass,
            },
        )
        return 0

    if member is None:
        out = to_momentum(psi)
    elif member.param in rep_params:
        out = member.transform(psi, rep_params[member.param])
    else:
        raise ValueError(
            f"rep_spec: {rep_name} representation requires {member.param}, "
            f"e.g. {rep_name}:{member.param}=0.5"
        )
    _emit_table(args, ["lambda", "re", "im", "abs"], _sample_columns(out))
    _sidecar(args, {"norm_in": norm(psi), "norm_out": norm(out), "tail_mass": None})
    return 0


def cmd_moments(args) -> int:
    g = _grid(args)
    report = moments(build_state(g, args))
    payload = report.as_dict()
    payload["schrodinger_saturated"] = bool(abs(report.lhs - report.rhs) <= SATURATION_TOL)
    payload["heisenberg_saturated"] = bool(
        abs(report.lhs - report.heisenberg_rhs) <= SATURATION_TOL
    )
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    g = _grid(args)
    if args.suite == "all":
        grouped = run_all_suites(g)
    else:
        grouped = {args.suite: run_suite(args.suite, g)}
    records = []
    for suite_name in sorted(grouped):
        for rep in grouped[suite_name]:
            rec = rep.as_dict()
            rec["suite"] = suite_name
            records.append(rec)
    _write_text(args.out, json.dumps(records, indent=2) + "\n")
    failed = [r for r in records if not r["passed"]]
    if failed:
        for r in failed:
            print(f"FAIL {r['suite']}/{r['name']} {r['parameters']}: "
                  f"observed {r['observed']:.3e} > tol {r['tolerance']:.3e}", file=sys.stderr)
        return 1
    return 0


def _add_common(sub):
    sub.add_argument("--n", type=int, default=1024, help="grid size (power of two, at most 2^20)")
    sub.add_argument("--length", type=float, default=40.0, help="domain length")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_state(sub):
    sub.add_argument("--state", default=None, help="state spec, e.g. gaussian:s=1,c=2 or "
                     f"hermite:k=1 (default {_DEFAULT_STATE})")
    sub.add_argument("--config", default=None, help="JSON file with the same fields as --state")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrep",
        description="Sample eigenfunction kernels, change representation, "
        "compute moment reports, and run verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="sample an eigenfunction family")
    pk.add_argument("--family", required=True, choices=tuple(_KERNELS))
    pk.add_argument("--lam", "--lambda", "--p", "--a", "--gamma", dest="lam", type=float,
                    default=0.0, help="eigenvalue of the family's observable (p, a, gamma, lambda)")
    pk.add_argument("--alpha", type=float, default=None, help="interp parameter")
    pk.add_argument("--theta", type=float, default=None, help="rotation angle")
    pk.add_argument("--eps", type=float, default=None, help="fresnel width")
    _add_common(pk)
    pk.set_defaults(func=cmd_kernel)

    pt = sub.add_parser("transform", help="expand a state in another representation")
    pt.add_argument("--rep", required=True,
                    help="momentum | interp:alpha=A | rotation:theta=T | correlation")
    _add_state(pt)
    pt.add_argument("--u-min", dest="u_min", type=float, default=None,
                    help="correlation window start in ln|x|; a given window gets 2 n points "
                         "(the default window is in the README)")
    pt.add_argument("--u-max", dest="u_max", type=float, default=None,
                    help="correlation window end in ln|x|")
    _add_common(pt)
    pt.set_defaults(func=cmd_transform)

    pm = sub.add_parser("moments", help="moment report and uncertainty bound")
    _add_state(pm)
    _add_common(pm)
    pm.set_defaults(func=cmd_moments)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)
    for tabular in (pk, pt):  # moments and verify always write JSON
        tabular.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the stream; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"qrep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
