"""Spans around calls into qrep's modules, recorded from the benchmark's side.

`Tracer.install` wraps every public module-level function of each qrep
module, plus `Wavefunction` validation, and rebinds each wrapper wherever
another qrep module imported the original with ``from .x import y``, so
nested library calls become child spans.  Nothing in ``src/qrep`` changes;
`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, unit, tag)``.  The unit is the
benchmark operation (one state, one suite run, one CLI call) the span belongs
to, so spans of one operation share an identifier.  Spans stay in memory and
are written out once, by `Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "verify", "transforms", "operators", "kernels", "states", "grid")

SUITES = (
    "commutators",
    "eigen_residuals",
    "roundtrips",
    "limits",
    "uncertainty",
    "delta_limit",
    "unbiasedness",
    "oracle_agreement",
)

SAMPLERS = tuple(
    "kernels." + f
    for f in (
        "plane_wave",
        "position_kernel_in_momentum",
        "interp_kernel",
        "rotation_kernel",
        "correlation_kernel",
        "fresnel_delta",
    )
)
FOURIER = ("grid.fourier_sum", "grid.inverse_fourier_sum")
WAVEFUNCTION = "grid.Wavefunction"

# Computed, not measured, bytes per complex128 element: a Fourier sum makes
# three passes (phase in, FFT, phase out) that each read and write the array;
# Wavefunction validation reads it for the finiteness test and copies it.
BYTES_PER_FOURIER_ELEMENT = 3 * 2 * 16
BYTES_PER_WAVEFUNCTION_ELEMENT = 3 * 16

# What a span records as its tag: the suite of a run_suite call, the array
# length of a Fourier sum or a validated wavefunction.
_TAGGERS = {
    "verify.run_suite": lambda args: args[0],
    "grid.fourier_sum": lambda args: len(args[0]),
    "grid.inverse_fourier_sum": lambda args: len(args[0]),
    WAVEFUNCTION: lambda args: args[0].grid.n,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.units: list[str] = []
        self.parent = -1
        self.unit = -1
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        tagger = _TAGGERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = tracer.parent
            tracer.parent = idx
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.parent = parent
                tag = tagger(args) if tagger else None
                spans[idx] = (nid, t0, t1, parent, tracer.unit, tag)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qrep.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname != "qrep" and not modname.startswith("qrep."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        wf = sys.modules["qrep.grid"].Wavefunction
        self._patch(wf, "__post_init__", self._wrap(wf.__post_init__, WAVEFUNCTION))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    @contextmanager
    def unit_of(self, kind: str):
        """Attribute the spans recorded inside to one new unit of ``kind``."""
        self.unit = len(self.units)
        self.units.append(kind)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.unit = -1

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks an output."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": self.names, "units": self.units, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )

    # -- aggregation ----------------------------------------------------------

    def aggregate(self, kinds: tuple[str, ...] | None = None) -> "Aggregate":
        """Totals over the units whose kind is in ``kinds`` (all units if None)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, unit, tag in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = Aggregate()
        agg.units = sum(1 for k in self.units if kinds is None or k in kinds)
        moments_id = {i for i, n in enumerate(self.names) if n == "operators.moments"}
        for i, (nid, t0, t1, parent, unit, tag) in enumerate(spans):
            if kinds is not None and self.units[unit] not in kinds:
                continue
            name = self.names[nid]
            dur = t1 - t0
            own = dur - child[i]
            agg.calls[name] += 1
            agg.incl[name] += dur
            agg.self_[name] += own
            agg.layer_self[name.split(".", 1)[0]] += own
            if name == "verify.run_suite":
                agg.suite_s[tag] += dur
            elif name in FOURIER:
                agg.bytes += BYTES_PER_FOURIER_ELEMENT * tag
            elif name == WAVEFUNCTION:
                agg.bytes += BYTES_PER_WAVEFUNCTION_ELEMENT * tag
            elif name == "operators.apply_p":
                p = parent
                while p >= 0 and spans[p][0] not in moments_id:
                    p = spans[p][3]
                if p >= 0:
                    agg.apply_p_in_moments += 1
        return agg


class Aggregate:
    def __init__(self):
        self.units = 0
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.suite_s = defaultdict(float)
        self.bytes = 0
        self.apply_p_in_moments = 0

    def per_unit(self, value: float) -> float:
        return value / self.units if self.units else 0.0

    def total_self(self) -> float:
        return sum(self.layer_self.values())

    def layer_metrics(self) -> dict:
        """Per-layer metrics, every time and count per unit of work."""
        per = self.per_unit
        m = {}

        def add(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            add(f"{layer}.self_s", per(self.layer_self[layer]), "s")
        for suite in SUITES:
            add(f"verify.{suite}_s", per(self.suite_s[suite]), "s")
        for metric_name, fn in (
            ("to_momentum", "to_momentum"),
            ("from_momentum", "from_momentum"),
            ("interp", "interp_transform"),
            ("rotation", "rotation_transform"),
            ("correlation", "correlation_transform"),
            ("correlation_inverse", "correlation_inverse"),
            ("oracle", "quadrature_oracle"),
        ):
            add(f"transforms.{metric_name}_s", per(self.incl["transforms." + fn]), "s")
        add("transforms.oracle_calls", per(self.calls["transforms.quadrature_oracle"]), "count")
        add("operators.moments_s", per(self.incl["operators.moments"]), "s")
        n_moments = self.calls["operators.moments"]
        add(
            "operators.apply_p_calls",
            self.apply_p_in_moments / n_moments if n_moments else 0.0,
            "count",
        )
        add("kernels.sample_calls", per(sum(self.calls[n] for n in SAMPLERS)), "count")
        add("kernels.sample_s", per(sum(self.incl[n] for n in SAMPLERS)), "s")
        add(
            "states.build_s",
            per(self.incl["states.gaussian"] + self.incl["states.hermite"]),
            "s",
        )
        add("grid.fourier_sum_calls", per(sum(self.calls[n] for n in FOURIER)), "count")
        add("grid.fourier_sum_s", per(sum(self.incl[n] for n in FOURIER)), "s")
        add("grid.log_resample_s", per(self.incl["grid.log_resample"]), "s")
        add("grid.wavefunction_init_calls", per(self.calls[WAVEFUNCTION]), "count")
        add("grid.wavefunction_init_s", per(self.incl[WAVEFUNCTION]), "s")
        add("grid.bytes_computed", per(self.bytes), "B")
        return m
