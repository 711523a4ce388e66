"""qrep benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload lib_large --seed 1 --seconds 20 --trace 0

Run from the root of a qrep checkout.  ``--trace 0`` times the workload for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` replays a fixed
number of operations untraced and then traced, and prints the per-layer
metrics.  Every operation's output is checked.  The last stdout line is the
result object; the line before it, starting with ``detail``, is the run
record (seed, drawn ranges, machine, tail percentile and sample count,
failures).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import nullcontext
from time import perf_counter

import harness

SETUP_REPEATS = 3
SPAWN_REPEATS = 5
FAILURES_KEPT = 20


def attempt(w, i: int, failures: list[str], checking=nullcontext):
    """Run and check operation ``i``; return its wall time (None if it raised) and
    whether it passed."""
    try:
        dt, out = w.op(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        failures.append(f"op {i}: {exc!r}")
        return None, False
    try:
        with checking():
            errs = w.check(i, out)
    except Exception as exc:
        errs = [f"check raised {exc!r}"]
    if errs:
        failures.append(f"op {i}: " + "; ".join(errs[:3]))
    return dt, not errs


def measure(w, seconds: int) -> tuple[dict, int, int, dict]:
    """Untraced run: set-up timing, then the timed closed loop.

    Times are rescaled to reference host speed (`harness.HostSpeed`), set-ups
    and operations each by the reference timed between them.
    """
    setup_speed, op_speed = harness.HostSpeed(), harness.HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        child = harness.run_child(harness.setup_child(w.name, w.seed))
        if child.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{child.stderr.decode()[-4000:]}")
        setups.append(child.seconds)
        setup_speed.sample(child.seconds)
    w.prepare()
    if w.parent_warm_up:
        w.warm_up()

    raw, rss, failures, attempted, failed = [], [], [], 0, 0
    start = perf_counter()
    i = w.first_op
    while perf_counter() - start < seconds:
        dt, ok = attempt(w, i, failures)
        attempted += 1
        failed += not ok
        if dt is not None:
            raw.append(dt)
            op_speed.sample(dt)
            if w.op_rss_mb is not None:
                rss.append(w.op_rss_mb)
        i += 1
    if not raw:
        raise SystemExit("bench: no operation completed:\n" + "\n".join(failures[:5]))

    f = op_speed.factor()
    scaled = [t * f for t in raw]
    tail = harness.tail(scaled)
    metrics = {
        "setup_s": harness.metric(harness.median(setups) * setup_speed.factor(), "s"),
        "op_p50_s": harness.metric(harness.median(scaled), "s"),
        "op_tail_s": harness.metric(tail["value"], "s"),
        "ops_per_s": harness.metric(len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": harness.metric(
            harness.median(rss) if rss else harness.peak_rss_mb(), "MB"
        ),
        "success_rate": harness.metric(1.0 - failed / attempted, "ratio"),
    }
    detail = {
        "unit": w.unit,
        "tail": tail,
        "raw": {"setup_s": setups, "op_s": raw},
        "reference_s": {"setup": setup_speed.probes, "op": op_speed.probes},
        "failures": failures,
    }
    return metrics, attempted, failed, detail


def spawn_median(argv: list[str]) -> float:
    times = []
    for _ in range(SPAWN_REPEATS):
        child = harness.run_child(argv)
        if child.returncode != 0:
            raise SystemExit(f"bench: {argv} failed:\n{child.stderr.decode()[-4000:]}")
        times.append(child.seconds)
    return harness.median(times)


def trace(w, seconds: int) -> tuple[dict, int, int, dict]:
    """Traced run: the same operations untraced, then traced, in-process."""
    from tracing import Tracer

    w.in_process = True
    w.prepare()
    w.warm_up()
    interpreter_s = spawn_median(harness.python_child("-c", "pass"))
    import_s = spawn_median(harness.python_child("-c", "import qrep.cli"))

    ops = w.trace_ops(seconds)
    failures, failed = [], 0
    untraced = []
    for i in ops:
        dt, ok = attempt(w, i, failures)
        failed += not ok
        untraced.append(dt or 0.0)

    tracer = Tracer()
    for key in w.counters:
        w.counters[key] = 0
    traced = []
    tracer.install()
    try:
        for i in ops:
            with tracer.unit_of(w.unit_of(i)):
                dt, ok = attempt(w, i, failures, tracer.paused)
            failed += not ok
            traced.append(dt or 0.0)
    finally:
        tracer.uninstall()
    tracer.dump(harness.WORK / f"trace-{w.name}-seed{w.seed}.json")

    agg = tracer.aggregate((w.unit,))
    agg.units = w.trace_units(ops)
    metrics = agg.layer_metrics()
    m = harness.metric
    for kind in ("small", "export"):
        one = tracer.aggregate((kind,))
        calls = one.calls["cli.main"]
        metrics[f"cli.main_{kind}_s"] = m(one.incl["cli.main"] / calls if calls else 0.0, "s")
        metrics[f"cli.self_{kind}_s"] = m(one.layer_self["cli"] / calls if calls else 0.0, "s")
    metrics["cli.interpreter_s"] = m(interpreter_s, "s")
    metrics["cli.import_s"] = m(import_s, "s")
    metrics["cli.bytes_written"] = m(w.counters["bytes_written"], "B")
    metrics["verify.checks"] = m(agg.per_unit(w.counters["checks"]), "count")
    metrics["verify.checks_failed"] = m(agg.per_unit(w.counters["checks_failed"]), "count")
    metrics["trace.overhead_pct"] = m(100.0 * (sum(traced) / sum(untraced) - 1.0), "%")
    metrics["trace.self_sum_pct"] = m(100.0 * tracer.aggregate().total_self() / sum(traced), "%")
    detail = {
        "ops": len(ops),
        "units": agg.units,
        "unit": w.unit,
        "untraced_s": untraced,
        "untraced_p50_s": harness.median(untraced),
        "traced_s": traced,
        "spans": len(tracer.spans),
        "failures": failures,
    }
    return metrics, 2 * len(ops), failed, detail


def main(argv: list[str] | None = None) -> int:
    # before NumPy loads, so this process is single-threaded too
    harness.pin_threads(os.environ)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up and exit (timed as setup_s)")
    args = parser.parse_args(argv)

    harness.require_source()
    sys.path.insert(0, str(harness.SRC))

    try:
        w = WORKLOADS[args.workload](args.seed)
        if args.setup_only:
            w.prepare()
            w.warm_up()
            return 0
        run = trace if args.trace else measure
        metrics, attempted, failed, detail = run(w, args.seconds)
    finally:
        shutil.rmtree(harness.RUN_DIR, ignore_errors=True)
    detail.update(
        workload=w.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        inputs=w.record(),
        machine=harness.machine_record(),
    )
    detail["failures"] = detail["failures"][:FAILURES_KEPT]
    harness.emit(detail, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
