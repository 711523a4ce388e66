"""Tests of the benchmark itself.  From the checkout root:

    python3 -m pytest bench -q

They start the benchmark as a separate process, so they take a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts later changes may cite as counts: they must repeat exactly per seed
REPEAT_COUNTERS = (
    "grid.fourier_sum_calls",
    "operators.apply_p_calls",
    "transforms.oracle_calls",
    "verify.checks",
    "cli.bytes_written",
)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", "1")
    first, second = result(run(*args)), result(run(*args))
    for res in (first, second):
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    for name in REPEAT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "lib_large":
        # the layer spans account for the whole state pipeline
        assert first["metrics"]["trace.self_sum_pct"]["value"] >= 90.0


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed(tmp_path):
    from qrep.grid import make_grid

    g = make_grid(inputs.SMALL_N, inputs.SMALL_LENGTH)

    def argv(seed):
        session = inputs.Session(seed, tmp_path, g)
        return [c.argv for c in session.cycle(0) + session.cycle(1)]

    assert argv(5) == argv(5)
    assert argv(5) != argv(6)
    big = make_grid(inputs.LIB_N, inputs.LIB_LENGTH)
    draws = [inputs.lib_draws(9, big)[1] for _ in range(2)]
    assert [draws[0][i] for i in range(5)] == [draws[1][i] for i in range(5)]


def test_chirp_ranges_come_from_the_guard():
    from qrep.grid import make_grid
    from qrep.kernels import chirp_step_bound

    g = make_grid(inputs.LIB_N, inputs.LIB_LENGTH)
    r = inputs.chirp_ranges(g)
    a, t = r["alpha"][1], r["theta"][0]
    chirp_step_bound(a / (1.0 - a), g)
    chirp_step_bound(1.0 / math.tan(t), g)
    with pytest.raises(ValueError):
        chirp_step_bound(1.001 * r["max_chirp_rate"], g)
    assert 0.80 < a < 0.81 and 0.24 < t < 0.25


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(100)]
    t = harness.tail(xs)
    assert t == {"value": 89.0, "percentile": 90.0, "samples": 100}
    # never below the median when samples are few
    assert harness.tail(xs[:15])["value"] == 7.0
