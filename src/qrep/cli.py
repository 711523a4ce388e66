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
import contextlib
import json
import math
import os
import sys
import tempfile

from .grid import Grid, Wavefunction, make_grid, norm
from .operators import moments
from .states import GaussianSpec, gaussian, hermite
from .transforms import _FAMILIES, _family_value, correlation_transform
from .verify import SATURATION_TOL, SUITE_NAMES, run_all_suites, run_suite


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qrep-")
        try:
            # mkstemp makes the file 0600: give it the mode open(path, "w") would leave
            mask = os.umask(0)
            os.umask(mask)
            os.fchmod(fd, os.stat(path).st_mode & 0o777 if os.path.exists(path) else 0o666 & ~mask)
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
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
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
            key = key.strip()
            if key in params:  # a dict would keep the last value silently
                raise ValueError(f"{what}_field: give {key} once, got {body!r}")
            params[key] = _number(what, key, val)
    return params


def _state_from_fields(g: Grid, name, params: dict) -> Wavefunction:
    if name == "gaussian":
        extra = set(params) - {"s", "x0", "p0", "c"}
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


def _unique_fields(pairs: list) -> dict:
    """A JSON object's fields; one given twice, of which ``json`` keeps the last, is refused."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ValueError(f"field {key!r} is given twice")
    return dict(pairs)


def _state_from_config(g: Grid, path: str) -> Wavefunction:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_fields)
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
    """The state named by ``--state`` (``gaussian:s=1,x0=0,p0=0,c=2`` or
    ``hermite:k=3``) or by ``--config``, which are refused together;
    ``gaussian:s=1`` when neither is given."""
    if args.config is None:
        name, _, body = (_DEFAULT_STATE if args.state is None else args.state).partition(":")
        return _state_from_fields(g, name, _parse_kv(body, "state_spec"))
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


# Each family's table name by its --family spelling, hyphenated or an alias.
_ALIASES = {"correlation_even": "corr-even", "correlation_odd": "corr-odd"}
_KERNELS = {_ALIASES.get(name, name.replace("_", "-")): name for name in _FAMILIES}


def cmd_kernel(args) -> int:
    g = _grid(args)
    if len(args.lam) > 1:
        given = " and ".join(f"{option} {value!r}" for option, value in args.lam)
        raise ValueError(f"kernel_parameter: give the eigenvalue once, got {given}")
    lam = args.lam[0][1] if args.lam else 0.0
    name = _KERNELS[args.family]
    options = {f.param: getattr(args, f.param) for f in _FAMILIES.values() if f.param}
    value = _family_value(name, options, "kernel_parameter", g, "--", args.family)
    if name == "fresnel" and lam != 0.0:
        raise ValueError(
            f"kernel_parameter: fresnel is the lambda = 0 member of X + (eps/2) P, got --lam {lam}"
        )
    _emit_table(args, ["x", "re", "im", "abs"],
                _sample_columns(_FAMILIES[name].sample(g, value, lam)))
    return 0


def _sidecar(args, payload: dict) -> None:
    if args.out and args.out != "-":
        _write_text(args.out + ".meta.json", json.dumps(payload, indent=2) + "\n")


# Every representation by its --rep name: the family whose parameter and forward
# map it reads, or None for correlation, whose map reads the --u-min/--u-max window.
_REPS = {"momentum": "plane_wave", "interp": "interp", "rotation": "rotation", "correlation": None}
_REP_PARAMS = {rep: None if family is None else _FAMILIES[family].param
               for rep, family in _REPS.items()}


def _rep_forms(shown) -> list[str]:
    """Each ``--rep`` spelling, a parameter's value written ``shown(param)``."""
    return [rep if param is None else f"{rep}:{param}={shown(param)}"
            for rep, param in _REP_PARAMS.items()]


def _rep_table(psi: Wavefunction, family, value, window) -> tuple[list, list, dict]:
    """The header, columns and sidecar fields after ``norm_in`` of one
    representation: ``family``'s forward map at ``value``, or with no family the
    correlation spectrum on ``window``, its two parity channels one below the other."""
    if family is not None:
        out = _FAMILIES[family].transform(psi, value)
        return (["lambda", "re", "im", "abs"], _sample_columns(out),
                {"norm_out": norm(out), "tail_mass": None})
    spectrum = correlation_transform(psi, u_window=window)
    gam = spectrum.gamma_grid.points.tolist()
    even, odd = spectrum.even, spectrum.odd
    columns = [
        gam + gam,
        ["even"] * len(gam) + ["odd"] * len(gam),
        even.real.tolist() + odd.real.tolist(),
        even.imag.tolist() + odd.imag.tolist(),
    ]
    return ["gamma", "parity", "re", "im"], columns, {
        "norm_out": math.sqrt(spectrum.channel_power()),
        "tail_mass": spectrum.tail_mass,
        "n_gamma": spectrum.u_grid.n,
    }


def cmd_transform(args) -> int:
    g = _grid(args)
    psi = build_state(g, args)
    rep_name, _, rep_body = args.rep.partition(":")
    if rep_name not in _REPS:
        *forms, last = _rep_forms(lambda _: "...")
        raise ValueError(f"rep_spec_name: unknown representation {rep_name!r} "
                         f"(want {', '.join(forms)}, or {last})")
    rep_params = _parse_kv(rep_body, "rep_spec")
    family, param = _REPS[rep_name], _REP_PARAMS[rep_name]
    extra = set(rep_params) - {param}
    if extra:
        raise ValueError(f"rep_spec_field: unknown {rep_name} fields {sorted(extra)}")
    window = (args.u_min, args.u_max)
    if family is not None and window != (None, None):
        raise ValueError("rep_spec_field: --u-min and --u-max set the correlation window; "
                         f"{rep_name} takes neither")
    if window.count(None) == 1:
        raise ValueError("rep_spec: provide both --u-min and --u-max or neither")
    if param is not None and param not in rep_params:
        raise ValueError(f"rep_spec: {rep_name} representation requires {param}, "
                         f"e.g. {rep_name}:{param}=0.5")
    header, columns, fields = _rep_table(psi, family, rep_params.get(param),
                                         None if None in window else window)
    _emit_table(args, header, columns)
    _sidecar(args, {"norm_in": norm(psi), **fields})
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


# The float options, which every parser takes in full only (allow_abbrev=False).
# argparse takes a token that starts with '-' for an option unless it looks like
# a plain negative decimal (by a pattern that varies with the Python version), so
# main() joins -1e-3 or -inf to it, as --p=-1e-3.
_EIGENVALUE_OPTIONS = ("--lam", "--lambda", "--p", "--a", "--gamma")
_FLOAT_OPTIONS = frozenset({*_EIGENVALUE_OPTIONS, "--length", "--u-min", "--u-max",
                            *(f"--{f.param}" for f in _FAMILIES.values() if f.param)})


def _signed_values(argv: list[str]) -> list[str]:
    """``argv`` with each float option joined by ``=`` to a signed number after it."""
    out = []
    for token in argv:
        if out and out[-1] in _FLOAT_OPTIONS and token.startswith("-"):
            with contextlib.suppress(ValueError):
                float(token)
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


class _EachEigenvalue(argparse.Action):
    """Collects every eigenvalue option given as ``(spelling, value)``: the five
    spellings share one dest, so a repeat is seen rather than silently kept."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, (*getattr(namespace, self.dest), (option_string, values)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrep",
        allow_abbrev=False,
        description="Sample eigenfunction kernels, change representation, "
        "compute moment reports, and run verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="sample an eigenfunction family", allow_abbrev=False)
    pk.add_argument("--family", required=True, choices=tuple(_KERNELS))
    pk.add_argument(*_EIGENVALUE_OPTIONS, dest="lam", type=float,
                    action=_EachEigenvalue, default=(),
                    help="eigenvalue of the family's observable (p, a, gamma, lambda)")
    for spelling, name in _KERNELS.items():
        if _FAMILIES[name].param is not None:
            pk.add_argument(f"--{_FAMILIES[name].param}", type=float, default=None,
                            help=f"{spelling} parameter")
    _add_common(pk)
    pk.set_defaults(func=cmd_kernel)

    pt = sub.add_parser("transform", help="expand a state in another representation",
                        allow_abbrev=False)
    pt.add_argument("--rep", required=True,
                    help=" | ".join(_rep_forms(lambda param: param[0].upper())))
    _add_state(pt)
    pt.add_argument("--u-min", dest="u_min", type=float, default=None,
                    help="correlation window start in ln|x|; the state sets the point count, "
                         "at most 2 n on a given window (the default window is in the README)")
    pt.add_argument("--u-max", dest="u_max", type=float, default=None,
                    help="correlation window end in ln|x|")
    _add_common(pt)
    pt.set_defaults(func=cmd_transform)

    pm = sub.add_parser("moments", help="moment report and uncertainty bound", allow_abbrev=False)
    _add_state(pm)
    _add_common(pm)
    pm.set_defaults(func=cmd_moments)

    pv = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    pv.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)
    for tabular in (pk, pt):  # moments and verify always write JSON
        tabular.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_signed_values(sys.argv[1:] if argv is None else argv))
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
