"""Seeded input generation for the three workloads.

The same seed gives the same inputs.  The alpha and theta ranges come from
qrep's own chirp-resolution guard on the workload grid, so a draw is always
one the library admits; the state ranges are the valid ones documented in
the README of this directory.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

LIB_N, LIB_LENGTH = 2**18, 640.0
SMALL_N, SMALL_LENGTH = 1024, 40.0
EXPORT_N = 2**18

# log window for the correlation transform: wide enough that tail_mass stays
# below INVERSE_TAIL_TOL for every state drawn below
LIB_U_MIN = -20.0
SMALL_U_MIN = -14.0

LIB_GAUSSIAN = {"s": (0.5, 4.0), "x0": (-20.0, 20.0), "p0": (-5.0, 5.0), "c": (-2.0, 2.0)}
LIB_HERMITE_MAX = 12
LIB_HERMITE_SHARE = 0.25

# Small-grid states stay where the correlation sidecar's Parseval identity
# holds to the verify tolerance with margin (higher oscillator orders and
# strong chirps lose accuracy in the log resampling at n = 1024).
SMALL_GAUSSIAN = {"s": (0.8, 1.5), "x0": (-1.0, 1.0), "p0": (-0.5, 0.5)}
SMALL_CHIRPS = (0.5, 1.0)
SMALL_HERMITE_MAX = 2

# Byte-for-byte pins of tests/test_cli.py: golden file name -> argv.
GOLDEN_CALLS = (
    ("kernel_plane_wave_n16.csv",
     ["kernel", "--family", "plane-wave", "--p", "0.785398163397448279", "--n", "16",
      "--length", "16"]),
    ("kernel_interp_n16.csv",
     ["kernel", "--family", "interp", "--alpha", "0.25", "--lam", "0.5", "--n", "16",
      "--length", "16"]),
    ("kernel_fresnel_n16.csv",
     ["kernel", "--family", "fresnel", "--eps", "4.0", "--n", "16", "--length", "16"]),
    ("transform_momentum_n64.csv",
     ["transform", "--rep", "momentum", "--state", "gaussian:s=1", "--n", "64",
      "--length", "16"]),
    ("moments_gaussian_c2.json", ["moments", "--state", "gaussian:s=1,c=2"]),
)


def max_chirp_rate(g) -> float:
    """Largest chirp rate ``kernels.chirp_step_bound`` admits on ``g``, by bisection."""
    from qrep.kernels import chirp_step_bound

    def admitted(rate: float) -> bool:
        try:
            chirp_step_bound(rate, g)
        except ValueError:
            return False
        return True

    lo, hi = 0.0, 1.0
    while admitted(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


def chirp_ranges(g) -> dict:
    """alpha and theta ranges whose chirp ``alpha/(1-alpha)`` or ``cot(theta)`` ``g`` resolves.

    alpha also stays inside the fast path
    ``[FAST_PATH_ALPHA_MARGIN, 1 - FAST_PATH_ALPHA_MARGIN]``.  Both ends are
    pulled in by a relative 1e-9 so rounding in the transform cannot push a
    draw over the guard.
    """
    from qrep.transforms import FAST_PATH_ALPHA_MARGIN

    rate = max_chirp_rate(g) * (1.0 - 1e-9)
    alpha_max = min(rate / (1.0 + rate), 1.0 - FAST_PATH_ALPHA_MARGIN)
    return {
        "max_chirp_rate": rate,
        "alpha": (FAST_PATH_ALPHA_MARGIN, alpha_max),
        "theta": (math.atan(1.0 / rate), math.pi / 2),
    }


def _uniform(rng, lo_hi) -> float:
    return float(rng.uniform(*lo_hi))


# -- lib_large --------------------------------------------------------------


def lib_draws(seed: int, g) -> tuple[dict, "LibStream"]:
    ranges = chirp_ranges(g)
    record = {
        "grid": {"n": LIB_N, "length": LIB_LENGTH},
        "gaussian": LIB_GAUSSIAN,
        "hermite_k": (0, LIB_HERMITE_MAX),
        "hermite_share": LIB_HERMITE_SHARE,
        "u_window": (LIB_U_MIN, "ln(0.45 length)"),
        **ranges,
    }
    return record, LibStream(seed, ranges)


class LibStream:
    """Endless seeded stream of (state, alpha, theta) draws for ``lib_large``."""

    def __init__(self, seed: int, ranges: dict):
        self._rng = np.random.default_rng([seed, 1])
        self._ranges = ranges
        self._drawn: list[dict] = []

    def __getitem__(self, i: int) -> dict:
        while len(self._drawn) <= i:
            self._drawn.append(self._draw())
        return self._drawn[i]

    def _draw(self) -> dict:
        rng = self._rng
        if rng.random() < LIB_HERMITE_SHARE:
            state = {"kind": "hermite", "k": int(rng.integers(0, LIB_HERMITE_MAX + 1))}
        else:
            state = {"kind": "gaussian", **{k: _uniform(rng, v) for k, v in LIB_GAUSSIAN.items()}}
        return {
            "state": state,
            "alpha": _uniform(rng, self._ranges["alpha"]),
            "theta": _uniform(rng, self._ranges["theta"]),
        }


# -- cli_session ------------------------------------------------------------


def _small_state(rng) -> tuple[str, dict]:
    """A state spec string for the small grid and its parameters."""
    if rng.random() < 0.25:
        k = int(rng.integers(0, SMALL_HERMITE_MAX + 1))
        return f"hermite:k={k}", {"kind": "hermite", "k": k}
    p = {k: _uniform(rng, v) for k, v in SMALL_GAUSSIAN.items()}
    # a third unchirped, so moments sees both saturation outcomes
    p["c"] = 0.0 if rng.random() < 1.0 / 3.0 else float(
        rng.choice((-1.0, 1.0)) * rng.uniform(*SMALL_CHIRPS)
    )
    body = ",".join(f"{k}={p[k]!r}" for k in ("s", "x0", "p0", "c"))
    return f"gaussian:{body}", {"kind": "gaussian", **p}


def _grid_args(n: int = SMALL_N, length: float = SMALL_LENGTH) -> list[str]:
    return ["--n", str(n), "--length", repr(length)]


class Call:
    """One ``qrep`` invocation and what its output must look like."""

    def __init__(self, group: str, argv: list[str], expect: dict):
        self.group = group
        self.argv = argv
        self.expect = expect


def _rep_args(rng, ranges: dict, name: str) -> list[str]:
    """``--rep`` arguments for representation ``name``, its parameter drawn from ``ranges``."""
    if name == "interp":
        return ["--rep", f"interp:alpha={_uniform(rng, ranges['alpha'])!r}"]
    if name == "rotation":
        return ["--rep", f"rotation:theta={_uniform(rng, ranges['theta'])!r}"]
    if name == "correlation":
        return ["--rep", "correlation", "--u-min", repr(SMALL_U_MIN),
                "--u-max", repr(math.log(0.45 * SMALL_LENGTH))]
    return ["--rep", "momentum"]


class Session:
    """The seeded small-grid ``qrep`` call sequence of ``cli_session``.

    ``cycle(i)`` is the i-th round: every kernel family, every transform
    representation to stdout and to a file, moments from a spec and from a
    config file, every verify suite and ``all``, and the golden calls.  The
    groups are interleaved in proportion, so any prefix of a round holds the
    same mix of call kinds.
    """

    def __init__(self, seed: int, work: Path, small_grid):
        self.seed = seed
        self.work = work
        self.ranges = chirp_ranges(small_grid)
        self._cycles: list[list[Call]] = []

    def record(self) -> dict:
        return {
            "grid": {"n": SMALL_N, "length": SMALL_LENGTH},
            "gaussian": SMALL_GAUSSIAN,
            "chirp_magnitude": SMALL_CHIRPS,
            "hermite_k": (0, SMALL_HERMITE_MAX),
            **self.ranges,
        }

    def cycle(self, i: int) -> list[Call]:
        while len(self._cycles) <= i:
            self._cycles.append(self._cycle(len(self._cycles)))
        return self._cycles[i]

    def call(self, i: int) -> Call:
        """The i-th call of the endless sequence of rounds."""
        n = len(self.cycle(0))
        return self.cycle(i // n)[i % n]

    def _out(self, name: str) -> str:
        return str(self.work / name)

    def _cycle(self, index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, 3, index])
        r = self.ranges
        groups: dict[str, list[Call]] = {}

        def kernel(family: str, *extra: str) -> Call:
            return Call("kernel", ["kernel", "--family", family, *extra, *_grid_args()],
                        {"kind": "table", "family": family, "rows": SMALL_N})

        groups["kernel"] = [
            kernel("plane-wave", "--p", repr(_uniform(rng, (-10.0, 10.0)))),
            kernel("position-in-momentum", "--a", repr(_uniform(rng, (-5.0, 5.0)))),
            kernel("interp", "--alpha", repr(_uniform(rng, (0.0, r["alpha"][1]))),
                   "--lam", repr(_uniform(rng, (-3.0, 3.0)))),
            kernel("rotation", "--theta", repr(_uniform(rng, r["theta"])),
                   "--lam", repr(_uniform(rng, (-3.0, 3.0)))),
            kernel("corr-even", "--gamma", repr(_uniform(rng, (-3.0, 3.0)))),
            kernel("corr-odd", "--gamma", repr(_uniform(rng, (-3.0, 3.0)))),
            kernel("fresnel", "--eps", repr(_uniform(rng, (0.05, 2.0)))),
        ]

        transforms = []
        for rep_name in ("momentum", "interp", "rotation", "correlation"):
            for to_file in (False, True):
                spec, _ = _small_state(rng)
                rep_args = _rep_args(rng, r, rep_name)
                rows = 2 * 2 * SMALL_N if rep_name == "correlation" else SMALL_N
                expect = {"kind": "table", "rep": rep_name, "format": "csv", "rows": rows}
                argv = ["transform", *rep_args, "--state", spec, *_grid_args()]
                if to_file:
                    out = self._out(f"t{index}-{rep_name}.csv")
                    argv += ["--out", out]
                    expect["out"] = out
                transforms.append(Call("transform", argv, expect))
        groups["transform"] = transforms

        spec, params = _small_state(rng)
        _, cfg_params = _small_state(rng)
        cfg_path = self.work / f"state{index}.json"
        cfg = {"state": cfg_params["kind"], **{k: v for k, v in cfg_params.items() if k != "kind"}}
        groups["moments"] = [
            Call("moments", ["moments", "--state", spec, *_grid_args()],
                 {"kind": "moments", "state": params}),
            Call("moments", ["moments", "--config", str(cfg_path), *_grid_args()],
                 {"kind": "moments", "state": cfg_params, "config": (cfg_path, cfg)}),
        ]

        from qrep.verify import SUITE_NAMES

        groups["verify"] = [
            Call("verify", ["verify", "--suite", s, *_grid_args()],
                 {"kind": "verify", "suites": [s] if s != "all" else list(SUITE_NAMES)})
            for s in (*SUITE_NAMES, "all")
        ]
        groups["golden"] = [
            Call("golden", list(argv), {"kind": "golden", "file": name})
            for name, argv in GOLDEN_CALLS
        ]

        # proportional interleave: member j of a group of m sits at (j + u)/m
        keyed = []
        for gi, (group, calls) in enumerate(groups.items()):
            offset = float(rng.random())
            order = rng.permutation(len(calls))
            for j, ci in enumerate(order):
                keyed.append(((j + offset) / len(calls), gi, calls[ci]))
        keyed.sort(key=lambda t: (t[0], t[1]))
        return [c for _, _, c in keyed]


class ExportStream:
    """Seeded 2^18-point exports, replayed by traced ``cli_session`` runs.

    Pair ``i`` writes one drawn state in one drawn representation twice, as
    CSV and as JSON, each with its sidecar.  The correlation representation
    is left out: its exports are 2-3x larger and slower and would dominate.
    """

    def __init__(self, seed: int, work: Path, export_grid):
        self.seed = seed
        self.work = work
        self.ranges = chirp_ranges(export_grid)

    def record(self) -> dict:
        return {
            "grid": {"n": EXPORT_N, "length": SMALL_LENGTH},
            "gaussian": SMALL_GAUSSIAN,
            "chirp_magnitude": SMALL_CHIRPS,
            "hermite_k": (0, SMALL_HERMITE_MAX),
            "reps": ("momentum", "interp", "rotation"),
            **self.ranges,
        }

    def pair(self, i: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, 4, i])
        name = str(rng.choice(("momentum", "interp", "rotation")))
        rep_args = _rep_args(rng, self.ranges, name)
        spec, _ = _small_state(rng)
        calls = []
        for fmt in ("csv", "json"):
            out = str(self.work / f"export.{fmt}")
            calls.append(Call(
                "export",
                ["transform", *rep_args, "--state", spec, *_grid_args(EXPORT_N),
                 "--format", fmt, "--out", out],
                {"kind": "table", "rep": name, "format": fmt, "rows": EXPORT_N, "out": out},
            ))
        return calls
