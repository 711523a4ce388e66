"""The three workloads.  Each is closed loop: one client issuing one operation
at a time, the next only after the previous one has finished.

Set-up, the part timed as ``setup_s``, is `prepare` (input generation) then
`warm_up` (one untimed pass).  `op` times one operation and `check` checks
its output; the caller keeps checks outside the timed region.  ``unit`` names
what one operation is, and `trace_units` says how many units of work the
per-layer numbers of a traced run are divided by.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import inputs
from harness import RUN_DIR, python_child, run_child

# oracle coefficients checked per transform and state in lib_large
ORACLE_POINTS = 2


class Workload:
    name = ""
    unit = ""
    first_op = 1
    # in-process workloads warm the measuring process itself; cli_session
    # warms only short-lived children, which the measuring process need not repeat
    parent_warm_up = True

    def __init__(self, seed: int):
        self.seed = seed
        self.counters = {"bytes_written": 0, "checks": 0, "checks_failed": 0}
        # peak RSS of the qrep process the last operation started, if any
        self.op_rss_mb: float | None = None

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def record(self) -> dict:
        return {}

    def trace_ops(self, seconds: int) -> list:
        """Operations a traced run replays; fixed by ``seconds`` so counts repeat."""
        raise NotImplementedError

    def unit_of(self, i) -> str:
        """Kind of unit operation ``i`` is traced as."""
        return self.unit

    def trace_units(self, ops: list) -> int:
        """Units of work the per-layer numbers are divided by."""
        return len(ops)


class LibLarge(Workload):
    """One seeded state at a time through every transform and the moments."""

    name = "lib_large"
    unit = "state"

    def prepare(self) -> None:
        import numpy as np
        from qrep import grid

        self.np = np
        self.g = grid.make_grid(inputs.LIB_N, inputs.LIB_LENGTH)
        self.params, self.draws = inputs.lib_draws(self.seed, self.g)
        self.u_window = (inputs.LIB_U_MIN, math.log(0.45 * inputs.LIB_LENGTH))

    def warm_up(self) -> None:
        self._pipeline(self.draws[0])

    def record(self) -> dict:
        return self.params

    def _pipeline(self, draw: dict) -> dict:
        # module attributes are looked up per call, so traced runs see the wrappers
        import qrep.operators as O
        import qrep.states as S
        import qrep.transforms as T

        st = draw["state"]
        if st["kind"] == "hermite":
            psi = S.hermite(self.g, st["k"])
        else:
            spec = S.GaussianSpec(s=st["s"], x0=st["x0"], p0=st["p0"], c=st["c"])
            psi = S.gaussian(self.g, spec)
        momentum = T.to_momentum(psi)
        back = T.from_momentum(momentum)
        interp = T.interp_transform(psi, draw["alpha"])
        rotation = T.rotation_transform(psi, draw["theta"])
        spectrum = T.correlation_transform(psi, u_window=self.u_window)
        reconstructed = T.correlation_inverse(spectrum, self.g)
        report = O.moments(psi)
        return {
            **draw,
            "psi": psi,
            "momentum": momentum,
            "back": back,
            "interp": interp,
            "rotation": rotation,
            "spectrum": spectrum,
            "reconstructed": reconstructed,
            "moments": report,
        }

    def op(self, i: int):
        draw = self.draws[i]
        t0 = perf_counter()
        out = self._pipeline(draw)
        return perf_counter() - t0, out

    def check(self, i: int, out) -> list[str]:
        rng = self.np.random.default_rng([self.seed, 5, i])
        return checks.check_pipeline(out, ORACLE_POINTS, rng)

    def trace_ops(self, seconds: int) -> list:
        return list(range(1, 1 + max(2, round(0.4 * seconds))))


class VerifySuites(Workload):
    """`run_all_suites` on the 1024-point grid, repeated."""

    name = "verify_suites"
    unit = "suite_run"

    def prepare(self) -> None:
        from qrep import grid, verify

        self.suite_names = verify.SUITE_NAMES
        self.g = grid.make_grid(inputs.SMALL_N, inputs.SMALL_LENGTH)

    def warm_up(self) -> None:
        import qrep.verify as V

        V.run_all_suites(self.g)

    def record(self) -> dict:
        return {"grid": {"n": inputs.SMALL_N, "length": inputs.SMALL_LENGTH}}

    def op(self, i: int):
        import qrep.verify as V

        t0 = perf_counter()
        grouped = V.run_all_suites(self.g)
        return perf_counter() - t0, grouped

    def check(self, i: int, out) -> list[str]:
        n, failed, errs = checks.check_suites(out, self.suite_names)
        self.counters["checks"] += n
        self.counters["checks_failed"] += failed
        return errs

    def trace_ops(self, seconds: int) -> list:
        return list(range(1, 1 + max(2, seconds)))


class CliSession(Workload):
    """Small-grid ``qrep`` calls of every command, as a user types them.

    Calls run as subprocesses, or in-process through ``qrep.cli.main`` in a
    traced run.  A traced run also replays one 2^18-point export pair, CSV
    then JSON, for the per-layer numbers of output emission.  Exports stay
    out of the timed loop: at 6-9 s each, too few fit in a run for a steady
    median.
    """

    name = "cli_session"
    unit = "small"
    first_op = 0
    in_process = False
    parent_warm_up = False

    def prepare(self) -> None:
        from qrep import grid

        RUN_DIR.mkdir(parents=True, exist_ok=True)
        self.session = inputs.Session(
            self.seed, RUN_DIR, grid.make_grid(inputs.SMALL_N, inputs.SMALL_LENGTH)
        )

    def warm_up(self) -> None:
        first_kernel = next(c for c in self.session.cycle(0) if c.group == "kernel")
        errs = self.check(0, self.invoke(first_kernel)[1])
        if errs:
            raise RuntimeError("warm-up call failed: " + "; ".join(errs))

    def record(self) -> dict:
        exports = getattr(self, "exports", None)
        return {**self.session.record(), "export": exports.record() if exports else None}

    def invoke(self, call) -> tuple[float, tuple]:
        if "config" in call.expect:
            path, cfg = call.expect["config"]
            path.write_text(json.dumps(cfg), encoding="utf-8")
        if self.in_process:
            import qrep.cli

            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                try:
                    rc = qrep.cli.main(call.argv)
                except SystemExit as exc:  # argparse rejecting the argv
                    rc = exc.code
                dt = perf_counter() - t0
            return dt, (call, rc, buf.getvalue().encode("utf-8"))
        child = run_child(python_child("-m", "qrep", *call.argv))
        self.op_rss_mb = child.peak_rss_mb
        return child.seconds, (call, child.returncode, child.stdout)

    def op(self, i):
        self.op_rss_mb = None
        if isinstance(i, tuple):
            return self.invoke(self.exports.pair(0)[i[1]])
        return self.invoke(self.session.call(i))

    def check(self, i, out) -> list[str]:
        call, rc, stdout = out
        errs = checks.check_call(call, rc, stdout, self.counters)
        return [f"{' '.join(call.argv)}: {e}" for e in errs]

    def trace_ops(self, seconds: int) -> list:
        """Rounds of small calls, then the export pair."""
        from qrep import grid

        self.exports = inputs.ExportStream(
            self.seed, RUN_DIR, grid.make_grid(inputs.EXPORT_N, inputs.SMALL_LENGTH)
        )
        rounds = max(1, seconds // 5)
        return list(range(rounds * len(self.session.cycle(0)))) + [("export", 0), ("export", 1)]

    def unit_of(self, i) -> str:
        return "export" if isinstance(i, tuple) else self.unit

    def trace_units(self, ops: list) -> int:
        return sum(1 for i in ops if not isinstance(i, tuple)) // len(self.session.cycle(0))


WORKLOADS = {w.name: w for w in (CliSession, LibLarge, VerifySuites)}
