"""Shared pieces of the qrep benchmark.

Paths of the checkout, the environment every child process gets, the
host-speed reference, latency statistics, the machine record and the result
line.  Nothing here imports qrep, or NumPy at module level, so the entry point
can pin the thread count before they load.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = BENCH_DIR / ".work"
# transient files of this process: child output, CLI outputs, config files
RUN_DIR = WORK / f"run-{os.getpid()}"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# No single child may outlive the 180 s a whole run is allowed.
CHILD_TIMEOUT_S = 150.0


def require_source() -> None:
    """Exit non-zero unless the checkout holds the qrep sources and golden files."""
    missing = [p for p in (SRC / "qrep" / "__init__.py", GOLDEN) if not p.exists()]
    if missing:
        raise SystemExit(
            "bench: cannot find " + ", ".join(str(p.relative_to(ROOT)) for p in missing)
            + "; run from the root of a qrep checkout"
        )


def pin_threads(env: dict) -> dict:
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env() -> dict:
    """Environment of every process the benchmark starts: one thread, qrep from src."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(argv: list[str], cwd: Path = ROOT) -> Child:
    """Run ``argv`` to completion: wall time from spawn to exit, output, peak RSS.

    The command is started through `launch.py`, which times it and reads its
    peak RSS with ``wait4``.  A command that outlives `CHILD_TIMEOUT_S` is
    killed with its launcher.
    """
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    result = RUN_DIR / "child.json"
    result.unlink(missing_ok=True)
    with open(RUN_DIR / "child.stdout", "w+b") as out, open(RUN_DIR / "child.stderr", "w+b") as err:
        launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py"), str(result), *argv],
            cwd=cwd, env=child_env(), stdout=out, stderr=err, start_new_session=True,
        )
        try:
            launcher.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if launcher.returncode != 0 or not result.exists():
        return Child(CHILD_TIMEOUT_S, launcher.returncode or -1, stdout, stderr, 0.0)
    rec = json.loads(result.read_text())
    return Child(rec["seconds"], rec["returncode"], stdout, stderr, rec["peak_rss_mb"])


def python_child(*args: str) -> list[str]:
    return [sys.executable, *args]


def setup_child(workload: str, seed: int) -> list[str]:
    return python_child(
        str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"
    )


# Time the reference task takes on an unloaded host of the kind README.md
# names.  It only sets the scale of normalized times; see `HostSpeed`.
REFERENCE_S = 0.040


def _reference_task() -> None:
    """Fixed work shaped like qrep's own: interpreter steps, cache-sized FFTs,
    and memory-bound passes over a 2^18-point complex array.  Of the mixes
    tried, it tracked the host's slow-downs of qrep best."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 2**16)
    for _ in range(4):
        x = np.abs(np.fft.fft(np.exp(1j * x))) * 1e-3
    z = np.exp(1j * np.linspace(0.0, 1.0, 2**18))
    for _ in range(2):
        z = np.fft.fft(z) * 1e-3
    acc = 0
    for k in range(30_000):
        acc += k * k % 7


class HostSpeed:
    """Rescales wall times to a host that runs the reference task in `REFERENCE_S`.

    The shared hosts this runs on switch between a fast and a ~1.5x slower
    state every few seconds, in proportions that drift over minutes.  After
    each timed interval the reference task is timed, a number of times
    proportional to the interval's length, so the mean reference time
    estimates the host's mean speed over all the intervals.  Times are then
    multiplied by ``REFERENCE_S`` over that mean.  A host slow-down scales
    the reference and qrep alike and cancels; a change to qrep moves only
    qrep's times, since the reference calls no qrep code.
    """

    # reference time per second of measured time
    SHARE = 0.05

    def __init__(self):
        _reference_task()
        self.probes: list[float] = []
        self._owed = 0.0

    def sample(self, seconds: float) -> None:
        """Time the reference after an interval of ``seconds``."""
        self._owed += self.SHARE * seconds
        while self._owed > 0.0:
            t0 = time.perf_counter()
            _reference_task()
            self.probes.append(time.perf_counter() - t0)
            self._owed -= REFERENCE_S

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.probes)


def median(xs: list[float]) -> float:
    return float(statistics.median(xs))


def tail(xs: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, never below the median.

    With ``n`` sorted samples that is the one at index ``max(n - 11, n // 2)``.
    """
    s = sorted(xs)
    k = max(len(s) - 11, len(s) // 2)
    return {"value": s[k], "percentile": 100.0 * (k + 1) / len(s), "samples": len(s)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        level = (_read(f"{base}/{entry}/level") or "?").strip()
        kind = (_read(f"{base}/{entry}/type") or "?").strip()
        size = (_read(f"{base}/{entry}/size") or "?").strip()
        out[f"L{level}_{kind}"] = size
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(detail: dict, attempted: int, failed: int, metrics: dict) -> None:
    """Print the run record, then the result object as the last stdout line."""
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
