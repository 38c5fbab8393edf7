"""Layer tracing for the pipeadc benchmark, installed from outside the package.

Each entry of ``PATCHES`` names a function where a caller looks it up, for
example ``pipeadc.solver.digitize`` rather than only
``pipeadc.correction.digitize``, because ``from .x import f`` binds a second
name that a patch of the defining module would miss. ``Tracer.installed``
replaces every one of them with a timing wrapper and puts the original
objects back on exit; nothing is patched unless a tracer is installed.

Wrapped calls in the ``stages`` layer run once per sample on the stepped
engine path, so they are aggregated (count, busy and self time) instead of
being kept as individual spans. Every other call is recorded as a span
``(capture, name, start, end, parent)``, where ``capture`` identifies the
benchmark capture the span belongs to and ``parent`` is the index of the
enclosing span, or -1.

This module imports nothing from ``pipeadc`` at import time.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LEAF_LAYERS = frozenset({"stages"})

_METRIC_FNS = ("coherent_frequency", "spectrum", "sndr_sfdr_enob", "ramp_linearity")
_REPORT_FNS = ("write_codes_csv", "write_trace_csv", "write_linearity_csv",
               "write_spectrum_csv", "write_settle_csv", "write_sweep_csv",
               "write_linearity_plot", "write_spectrum_plot", "write_sweep_plot")

# (owner, attribute, layer); owner is "module" or "module:Class".
PATCHES = (
    [("pipeadc.config", f, "config") for f in (
        "degraded_config", "ideal_config", "preset_config", "with_mismatch",
        "validate", "set_param")]
    + [("pipeadc.engine", "validate", "config"),
       ("pipeadc.solver", "validate", "config"),
       ("pipeadc.solver", "set_param", "config"),
       ("pipeadc.cli", "preset_config", "config"),
       ("pipeadc.cli", "load_config", "config")]
    + [(m, "generate", "waveforms")
       for m in ("pipeadc.waveforms", "pipeadc.solver", "pipeadc.cli")]
    + [("pipeadc.engine:PipelineEngine", "__init__", "engine"),
       ("pipeadc.engine:PipelineEngine", "simulate", "engine"),
       ("pipeadc.cli", "settle_report", "engine")]
    + [("pipeadc.engine", f, "stages") for f in (
        "settle_coefficients", "settle_value", "sub_adc_decide", "flash2b",
        "comparator_diff")]
    + [("pipeadc.stages", "comparator_diff", "stages")]
    + [("pipeadc.correction", f, "correction")
       for f in ("digitize", "correct_result", "correct_stream")]
    + [("pipeadc.solver", "digitize", "correction"),
       ("pipeadc.cli", "digitize", "correction"),
       ("pipeadc.cli", "correct_result", "correction")]
    + [(m, f, "metrics") for m in ("pipeadc.metrics", "pipeadc.solver", "pipeadc.cli")
       for f in _METRIC_FNS]
    + [("pipeadc.solver", "sweep", "solver")]
    + [("pipeadc.reports", f, "reports") for f in _REPORT_FNS]
    + [("pipeadc.cli", "run_subcommand", "cli")]
)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{'init' if attr == '__init__' else attr}"


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def current_objects() -> dict:
    """The object each patch target refers to right now, keyed by target."""
    return {(owner, attr): getattr(_owner(owner), attr) for owner, attr, _ in PATCHES}


def untouched(originals: dict) -> list[str]:
    """Targets that no longer refer to the object recorded in ``originals``."""
    now = current_objects()
    return [f"{o}.{a}" for (o, a), obj in originals.items() if now[(o, a)] is not obj]


def engine_path(config) -> str:
    """Derived from the config alone: reset on, or every k_mem zero, is memoryless."""
    memoryless = config.clock.reset_enabled or (
        config.sha.ota.k_mem == 0.0 and all(st.ota.k_mem == 0.0 for st in config.stages))
    return "vectorized" if memoryless else "stepped"


# data rows each CSV writer emits, read from its arguments rather than the file
_CSV_ROWS = {
    "reports.write_codes_csv": lambda a: a[1].codes,
    "reports.write_trace_csv": lambda a: a[1].flash,
    "reports.write_linearity_csv": lambda a: a[1].dnl,
    "reports.write_spectrum_csv": lambda a: a[1].power_dbc,
    "reports.write_settle_csv": lambda a: a[1],
    "reports.write_sweep_csv": lambda a: a[3],
}
_COUNTED = {"waveforms.generate", "engine.simulate", "correction.correct_stream",
            "solver.sweep", "cli.run_subcommand"}


def _count_result(counts: Counter, name: str, args, result) -> None:
    if name == "waveforms.generate":
        counts["waveforms.samples"] += len(result)
    elif name == "engine.simulate":
        n = len(result.flash)
        counts["engine.samples"] += n
        counts[f"engine.{engine_path(args[0].config)}_samples"] += n
        if result.residues is not None:
            counts["engine.residue_bytes"] += result.residues.nbytes
    elif name == "correction.correct_stream":
        counts["correction.codes"] += len(result.codes)
    elif name == "solver.sweep":
        counts["solver.points"] += len(result)
    elif name.startswith("reports."):
        counts["reports.bytes"] += os.stat(result).st_size
        rows = _CSV_ROWS.get(name)
        if rows is not None:
            counts["reports.rows"] += len(rows(args))
    elif name == "cli.run_subcommand":
        counts["cli.commands"] += 1


class Tracer:
    """Spans and per-name aggregates of the traced calls of one process."""

    def __init__(self):
        self.capture = -1
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self._stack: list[list] = []   # [name, layer, time in direct children, span index]
        self._depth: Counter = Counter()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (no children, no parent)."""
        self.spans.append([self.capture, name, start, end, -1])
        self.calls[name] += 1
        for table in (self.busy, self.self_time):
            table[name] += end - start
        self.layer_busy[name.partition(".")[0]] += end - start

    def _wrap(self, fn, name: str, layer: str):
        stack, depth, spans = self._stack, self._depth, self.spans
        leaf = layer in LEAF_LAYERS
        counted = name in _COUNTED or layer == "reports"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = parent = -1
            if not leaf:
                parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                index = len(spans)
                spans.append(None)
            frame = [name, layer, 0.0, index]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = end - start
                self.calls[name] += 1
                self.busy[name] += dur
                self.self_time[name] += dur - frame[2]
                if depth[layer] == 0:
                    self.layer_busy[layer] += dur
                if stack:
                    stack[-1][2] += dur
                if not leaf:
                    spans[index] = [self.capture, name, start, end, parent]
            if counted:
                _count_result(self.counts, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        originals = current_objects()
        try:
            for owner, attr, layer in PATCHES:
                setattr(_owner(owner), attr,
                        self._wrap(originals[(owner, attr)], span_name(layer, attr), layer))
            yield
        finally:
            for (owner, attr), obj in originals.items():
                setattr(_owner(owner), attr, obj)

    def summary(self) -> dict:
        """Additive aggregates; summaries of several processes merge by summing."""
        layer_self = defaultdict(float)
        for name, t in self.self_time.items():
            layer_self[name.partition(".")[0]] += t
        return {"calls": dict(self.calls), "counts": dict(self.counts),
                "busy": dict(self.busy), "self": dict(self.self_time),
                "layer_busy": dict(self.layer_busy), "layer_self": dict(layer_self)}


def merge(summaries) -> dict:
    out: dict = {}
    for s in summaries:
        for table, values in s.items():
            dst = out.setdefault(table, {})
            for k, v in values.items():
                dst[k] = dst.get(k, 0) + v
    return out
