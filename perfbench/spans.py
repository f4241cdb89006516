"""Span recording around switchlevy's public functions, from outside the package.

A from-import binds its own reference to a function, so each traced function
is replaced in every module namespace that holds it (or in the namespaces a
target names, when the same function is reported per caller). Spans are kept
in memory as (name, start, end, parent, operation id) and written out when
the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np


def _out_size(args, kwargs, out) -> int:
    return int(np.size(out))


def _n_matrices(args, kwargs, out) -> int:
    return int(np.size(out)) // 4


def _n_maturities(args, kwargs, out) -> int:
    contracts = args[1] if len(args) > 1 else kwargs["contracts"]
    return len({c.maturity for c in contracts})


@dataclass(frozen=True)
class Target:
    """One traced function.

    metric: prefix of its per-layer metrics; module, attr: where it is
    defined (attr may be Class.method); namespaces: the switchlevy modules
    whose binding is replaced, or None for every one that binds it;
    fields: the per-layer metrics reported, from calls, pct, self_pct and
    the names in items; items: name -> counter(args, kwargs, result).
    """

    metric: str
    module: str
    attr: str
    fields: tuple[str, ...] = ("calls", "pct")
    namespaces: tuple[str, ...] | None = None
    items: tuple[tuple[str, object], ...] = ()


TARGETS = (
    Target("charfn.switching_cf", "charfn", "switching_cf",
           ("calls", "points", "pct", "self_pct"), items=(("points", _out_size),)),
    Target("charfn.phi_matrix_batch", "charfn", "phi_matrix_batch", ("pct",)),
    Target("charfn.matrix_exp", "charfn", "matrix_exp",
           ("calls", "matrices", "pct"), items=(("matrices", _n_matrices),)),
    Target("subordinators.laplace_exponent", "subordinators", "laplace_exponent"),
    Target("cos.price_table", "cos", "price_table",
           ("calls", "contracts", "maturities", "pct", "self_pct"),
           items=(("contracts", _out_size), ("maturities", _n_maturities))),
    Target("cos.put_coefficients", "cos", "put_coefficients"),
    Target("cos.log_return_cumulants", "cos", "log_return_cumulants"),
    Target("mc.price_european_mc", "mc", "price_european_mc", ("calls", "pct", "self_pct")),
    Target("mc.sample_terminal", "mc", "sample_terminal",
           ("calls", "paths", "pct"), items=(("paths", _out_size),)),
    Target("mc.sample_increment", "subordinators", "sample_increment",
           ("calls", "draws", "pct"), namespaces=("mc",), items=(("draws", _out_size),)),
    Target("mc.FrozenTerminalSampler.init", "mc", "FrozenTerminalSampler.__init__", ("pct",)),
    Target("mc.FrozenTerminalSampler.evaluate", "mc", "FrozenTerminalSampler.evaluate",
           ("calls", "paths", "pct"), items=(("paths", _out_size),)),
    Target("mc.increment_from_draws", "subordinators", "increment_from_draws",
           namespaces=("mc",)),
    Target("calibration.calibrate", "calibration", "calibrate", ("pct", "self_pct")),
    Target("cli.main", "cli", "main", ("calls", "pct", "self_pct")),
    Target("data_io.load_prices", "data_io", "load_prices", ("pct",)),
    Target("estimation.segment_regimes", "estimation", "segment_regimes", ("pct",)),
    Target("estimation.holding_rates", "estimation", "holding_rates", ("pct",)),
    Target("estimation.mom_fit", "estimation", "mom_fit", ("pct",)),
    Target("estimation.mde_fit", "estimation", "mde_fit", ("pct",)),
    Target("estimation.empirical_cf", "estimation", "empirical_cf", ("pct",)),
    Target("estimation.mle_fit", "estimation", "mle_fit", ("pct",)),
    Target("estimation.increment_from_draws", "subordinators", "increment_from_draws",
           namespaces=("estimation",)),
)

# Metrics derived from the spans of the calibrate call and its children.
CALIBRATION_METRICS = (
    ("calibration.nfev", "count"),
    ("calibration.n_iters", "count"),
    ("calibration.cos_pct", "%"),
    ("calibration.mc_pct", "%"),
    ("calibration.frozen_useful_ratio", "ratio"),
)
EXTRA_METRICS = (
    ("cos.clips", "count"),
    ("cos.pricing_errors", "count"),
    ("trace.round_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for target in TARGETS:
        for field in target.fields:
            unit = "%" if field in ("pct", "self_pct") else "count"
            units[f"{target.metric}.{field}"] = unit
    units.update(CALIBRATION_METRICS)
    units.update(EXTRA_METRICS)
    return units


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    items: dict
    error: str | None = None


class Recorder:
    """Keeps spans of the traced calls; single-threaded, so the open spans
    form a stack and each span's parent is the innermost open one."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, target: Target, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(target.metric, 0.0, 0.0, parent, self.op, {})
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        for name, counter in target.items:
            span.items[name] = counter(args, kwargs, out)
        return out


class Patches:
    """Replaces the targets' bindings with recording wrappers while active."""

    def __init__(self, recorder: Recorder) -> None:
        self._swaps = []  # (holder, attribute, original, wrapper)
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "switchlevy" or name.startswith("switchlevy.")
        }
        for target in TARGETS:
            owner = importlib.import_module(f"switchlevy.{target.module}")
            holder_path, _, attr = target.attr.rpartition(".")
            if holder_path:  # a method: the class attribute is the one binding
                holder = getattr(owner, holder_path)
                self._swaps.append(self._swap(recorder, target, holder, attr))
                continue
            original = getattr(owner, attr)
            if target.namespaces is None:
                holders = list(modules.values())
            else:
                holders = [modules[f"switchlevy.{name}"] for name in target.namespaces]
            for mod in holders:
                if getattr(mod, attr, None) is original:
                    self._swaps.append(self._swap(recorder, target, mod, attr))

    @staticmethod
    def _swap(recorder: Recorder, target: Target, holder, attr: str):
        original = getattr(holder, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(target, original, args, kwargs)

        return holder, attr, original, wrapper

    def __enter__(self) -> "Patches":
        for holder, attr, _, wrapper in self._swaps:
            setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original, _ in self._swaps:
            setattr(holder, attr, original)


def layer_metrics(spans: list[Span], wall_s: float, otm_maturities: int, n_iters: int) -> dict:
    """Per-layer metrics of one traced round; times as % of its wall time."""
    child_time = [0.0] * len(spans)
    under_calibrate = [False] * len(spans)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            # children of one span run one after another in this process, so
            # their summed durations are the part of the parent they cover
            child_time[span.parent] += span.end - span.start
            parent = spans[span.parent]
            under_calibrate[i] = (
                under_calibrate[span.parent] or parent.name == "calibration.calibrate"
            )

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    items: dict[str, int] = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + dur
        self_time[span.name] = self_time.get(span.name, 0.0) + dur - child_time[i]
        for name, n in span.items.items():
            key = f"{span.name}.{name}"
            items[key] = items.get(key, 0) + n

    pct = 100.0 / wall_s
    out = {}
    for target in TARGETS:
        for field in target.fields:
            key = f"{target.metric}.{field}"
            if field == "calls":
                out[key] = calls.get(target.metric, 0)
            elif field == "pct":
                out[key] = pct * total.get(target.metric, 0.0)
            elif field == "self_pct":
                out[key] = pct * self_time.get(target.metric, 0.0)
            else:
                out[key] = items.get(key, 0)

    def calib_sum(names):
        picked = [s for i, s in enumerate(spans) if under_calibrate[i] and s.name in names]
        return len(picked), sum(s.end - s.start for s in picked)

    nfev, cos_s = calib_sum({"cos.price_table"})
    n_eval, _ = calib_sum({"mc.FrozenTerminalSampler.evaluate"})
    _, mc_s = calib_sum({"mc.FrozenTerminalSampler.evaluate", "mc.FrozenTerminalSampler.init"})
    out["calibration.nfev"] = nfev
    out["calibration.n_iters"] = n_iters
    out["calibration.cos_pct"] = pct * cos_s
    out["calibration.mc_pct"] = pct * mc_s
    out["calibration.frozen_useful_ratio"] = nfev * otm_maturities / n_eval if n_eval else 0.0
    out["cos.pricing_errors"] = sum(
        1 for s in spans if s.name == "cos.price_table" and s.error == "PricingError"
    )
    return out


def write_spans(path, rounds: list[list[Span]]) -> None:
    """One JSON list per traced round of [name, start, end, parent, op, items, error]."""
    doc = [
        [[s.name, s.start, s.end, s.parent, s.op, s.items, s.error] for s in spans]
        for spans in rounds
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
