"""Output checks.  Every operation the benchmark times is checked here.

Tolerances are those of the verify suites (the check each mirrors is named),
so an output the benchmark accepts is one `qrep verify` would accept.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from harness import GOLDEN

FOURIER_ROUNDTRIP_TOL = 1e-12  # roundtrips/fourier_roundtrip
FOURIER_UNITARITY_TOL = 1e-10  # roundtrips/fourier_unitarity
CHIRP_UNITARITY_TOL = 1e-8  # roundtrips/interp_unitarity, rotation_unitarity
FOURIER_ORACLE_TOL = 1e-10  # oracle_agreement/fourier_oracle
CHIRP_ORACLE_TOL = 1e-8  # oracle_agreement/interp_oracle, rotation_oracle
PARSEVAL_TOL = 1e-6  # roundtrips/correlation_parseval
CORRELATION_ROUNDTRIP_TOL = 1e-5  # roundtrips/correlation_roundtrip
SATURATION_TOL = 1e-8  # uncertainty/uncertainty_saturation

HEADERS = {
    "kernel": "x,re,im,abs",
    "transform": "lambda,re,im,abs",
    "correlation": "gamma,parity,re,im",
}


def _over(name: str, observed: float, tol: float) -> list[str]:
    # written so that NaN fails
    return [] if observed <= tol else [f"{name}: {observed:.3e} > {tol:.0e}"]


# -- library outputs (lib_large) -------------------------------------------


def check_pipeline(out: dict, oracle_points: int, rng) -> list[str]:
    """Check one state's pipeline outputs (`workloads.LibLarge._pipeline`)."""
    import numpy as np
    from qrep.grid import norm
    from qrep.transforms import quadrature_oracle

    psi = out["psi"]
    n_in = norm(psi)
    errs = []
    errs += _over("fourier_roundtrip",
                  float(np.abs(out["back"].samples - psi.samples).max()), FOURIER_ROUNDTRIP_TOL)
    errs += _over("fourier_unitarity", abs(norm(out["momentum"]) - n_in), FOURIER_UNITARITY_TOL)
    errs += _over("interp_unitarity", abs(norm(out["interp"]) - n_in), CHIRP_UNITARITY_TOL)
    errs += _over("rotation_unitarity", abs(norm(out["rotation"]) - n_in), CHIRP_UNITARITY_TOL)

    for key, family, params, tol in (
        ("momentum", "plane_wave", {}, FOURIER_ORACLE_TOL),
        ("interp", "interp", {"alpha": out["alpha"]}, CHIRP_ORACLE_TOL),
        ("rotation", "rotation", {"theta": out["theta"]}, CHIRP_ORACLE_TOL),
    ):
        wf = out[key]
        mag = np.abs(wf.samples)
        # oracle points where the coefficient carries weight, not in the empty tails
        where = np.flatnonzero(mag >= 0.1 * mag.max())
        idx = rng.choice(where, size=min(oracle_points, len(where)), replace=False)
        oracle = quadrature_oracle(psi, family, wf.grid.points[idx], **params)
        errs += _over(f"{family}_oracle", float(np.abs(wf.samples[idx] - oracle).max()), tol)

    spec = out["spectrum"]
    errs += _over("correlation_parseval",
                  abs(spec.channel_power() - (n_in**2 - spec.tail_mass)), PARSEVAL_TOL)
    g = psi.grid
    ax = np.abs(g.points)
    annulus = (ax >= 4.0 * g.dx) & (ax <= math.exp(spec.u_grid.points[-1]))
    errs += _over("correlation_roundtrip",
                  float(np.abs(out["reconstructed"].samples - psi.samples)[annulus].max()),
                  CORRELATION_ROUNDTRIP_TOL)

    m = out["moments"]
    errs += _over("uncertainty_bound", m.rhs - m.lhs, SATURATION_TOL)
    if out["state"]["kind"] == "gaussian":
        errs += _over("uncertainty_saturation", abs(m.lhs - m.rhs), SATURATION_TOL)
    return errs


def check_suites(grouped: dict, suite_names) -> tuple[int, int, list[str]]:
    """(checks, checks failed, failures) of one `run_all_suites` result."""
    errs = []
    if sorted(grouped) != sorted(suite_names):
        errs.append(f"suites: got {sorted(grouped)}")
    reports = [r for reps in grouped.values() for r in reps]
    for suite, reps in grouped.items():
        if not reps:
            errs.append(f"{suite}: no checks")
        errs += [f"{suite}/{r.name} {r.parameters}: {r.observed:.3e} > {r.tolerance:.0e}"
                 for r in reps if not r.passed]
    failed = sum(1 for r in reports if not r.passed)
    return len(reports), failed, errs


# -- CLI outputs (cli_session) ---------------------------------------------


def _table_header(expect: dict) -> str:
    if "family" in expect:
        return HEADERS["kernel"]
    return HEADERS["correlation" if expect["rep"] == "correlation" else "transform"]


def _check_csv(data: bytes, expect: dict) -> list[str]:
    header = _table_header(expect)
    if not data.endswith(b"\n"):
        return ["csv: missing final newline"]
    lines = data[:-1].split(b"\n")
    errs = []
    if lines[0].decode() != header:
        errs.append(f"csv header {lines[0][:60]!r} != {header!r}")
    if len(lines) - 1 != expect["rows"]:
        errs.append(f"csv rows {len(lines) - 1} != {expect['rows']}")
    # every row of a small table, the first and last rows of an export
    body = lines[1:] if len(lines) <= 10_000 else [lines[1], lines[-1]]
    width = header.count(",") + 1
    for line in body:
        cells = line.decode().split(",")
        numbers = [c for c in cells if c not in ("even", "odd")]
        if len(cells) != width or not all(math.isfinite(float(c)) for c in numbers):
            errs.append(f"csv row {line[:80]!r}")
            break
    return errs


def _check_json_table(data: bytes, expect: dict) -> list[str]:
    first_key = _table_header(expect).split(",")[0]
    errs = []
    if not (data.startswith(b"[") and data.endswith(b"]\n")):
        errs.append("json: not one array")
    rows = data.count(f'"{first_key}":'.encode())
    if rows != expect["rows"]:
        errs.append(f"json rows {rows} != {expect['rows']}")
    first = json.loads(data[1:data.index(b"}") + 1])
    if list(first) != _table_header(expect).split(","):
        errs.append(f"json keys {list(first)}")
    return errs


def _check_sidecar(meta: dict, rep: str) -> list[str]:
    n_in, n_out = meta["norm_in"], meta["norm_out"]
    if rep == "correlation":
        return _over("sidecar_parseval", abs(n_out**2 - (n_in**2 - meta["tail_mass"])),
                     PARSEVAL_TOL)
    errs = [] if meta["tail_mass"] is None else ["sidecar tail_mass should be null"]
    tol = FOURIER_UNITARITY_TOL if rep == "momentum" else CHIRP_UNITARITY_TOL
    return errs + _over("sidecar_norm", abs(n_out - n_in), tol)


def _check_moments(payload: dict, state: dict) -> list[str]:
    lhs, rhs = payload["lhs"], payload["rhs"]
    errs = _over("moments_bound", rhs - lhs, SATURATION_TOL)
    if state["kind"] == "gaussian":
        want = (True, state["c"] == 0.0)
    else:
        want = (state["k"] == 0, state["k"] == 0)
    got = (payload["schrodinger_saturated"], payload["heisenberg_saturated"])
    if got != want:
        errs.append(f"saturation flags {got} != {want} for {state}")
    return errs


def _check_verify(records: list, suites: list[str]) -> tuple[int, int, list[str]]:
    failed = [r for r in records if not r["passed"]]
    errs = [f"verify {r['suite']}/{r['name']} failed" for r in failed]
    if sorted({r["suite"] for r in records}) != sorted(suites):
        errs.append(f"verify suites {sorted({r['suite'] for r in records})}")
    return len(records), len(failed), errs


def check_call(call, returncode: int, stdout: bytes, counters: dict) -> list[str]:
    """Check one CLI call's exit code and output; remove the files it wrote.

    ``counters`` accumulates ``bytes_written``, ``checks`` and ``checks_failed``.
    """
    exp = call.expect
    files = [Path(exp["out"]), Path(exp["out"] + ".meta.json")] if "out" in exp else []
    try:
        counters["bytes_written"] += len(stdout) + sum(f.stat().st_size for f in files if f.exists())
        if returncode != 0:
            return [f"exit code {returncode}"]
        kind = exp["kind"]
        if kind == "golden":
            ok = stdout == (GOLDEN / exp["file"]).read_bytes()
            return [] if ok else [f"golden {exp['file']} differs"]
        if kind == "moments":
            return _check_moments(json.loads(stdout), exp["state"])
        if kind == "verify":
            checks, failed, errs = _check_verify(json.loads(stdout), exp["suites"])
            counters["checks"] += checks
            counters["checks_failed"] += failed
            return errs
        data = files[0].read_bytes() if files else stdout
        fmt = exp.get("format", "csv")
        errs = _check_csv(data, exp) if fmt == "csv" else _check_json_table(data, exp)
        if files:
            errs += _check_sidecar(json.loads(files[1].read_bytes()), exp["rep"])
        return errs
    finally:
        for f in files:
            f.unlink(missing_ok=True)
