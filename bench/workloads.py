"""The four workloads of the pipeadc benchmark; ``run.py`` runs each in a fresh interpreter.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--smoke]
    python3 bench/workloads.py --record     # rewrite references.json (default seed, full size)

One process generates the load as a closed loop: a capture starts when the
previous one and its output check have finished. Each workload is a fixed
list of captures derived from the seed; the run times one untimed warm-up
capture, then repeats the list in rounds until ``--seconds`` have passed and
enough captures lie beyond the workload's tail percentile. Only the call
that produces a capture's outputs is timed; its output check is not.

A capture is one stimulus -> codes -> report. Workload seed s draws the
mismatch seeds s*1000 + i of the ``degraded`` preset:

* ramp-mc: over-range 2^20-sample ramps through ``degraded`` (5 seeds) and
  ``ideal``, each through digitize -> ramp_linearity. Exercises the
  vectorized engine on large arrays; bypasses the stepped path and reports.
* sine-mc: 200 coherent 4096-point sines, one ``degraded`` seed each,
  through digitize -> spectrum -> sndr_sfdr_enob. Per-capture fixed costs
  dominate, so a change that helps only long arrays should show no change.
* memory-sweep: ``solver.sweep`` of ``ota.k_mem`` over a fixed grid from
  0.02 to 1.0 at 500 MHz GBW with the reset phase off, metric enob, one
  point per call, jobs=1. The per-sample stepped engine does the work.
* cli-capture: five ``pipeadc`` commands, each a fresh interpreter calling
  ``pipeadc.cli.main`` through ``cli_entry.py``. The only workload that runs
  the ``reports`` and ``cli`` modules. ``settle-report`` is the fifth
  command so that neither the median nor the tail percentile falls on the
  boundary between two kinds of command.

Every capture is checked: invariants on its first appearance in a run
(lengths, warm-up of 7, codes in [0, 255], the ideal preset against
``ideal_quantize`` away from code edges), byte-identical repeats after that,
and at the default seed the digests and values recorded in references.json.
The model is not validated against silicon, so no error figure is given;
the simulated statistics are printed as labels only.

The last line of standard output is one JSON object with the run's
end-to-end metrics (untraced) or per-layer table (traced), percentiles,
failures and run record.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pipeadc
import pipeadc.cli  # noqa: F401  (so that every patch target resolves)
from pipeadc import config as pconfig, correction, metrics, solver, waveforms

import tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("ramp-mc", "sine-mc", "memory-sweep", "cli-capture")
DEFAULT_SEED = 0
SEED_STRIDE = 1000
WARMUP = 7
MIN_BEYOND = 10
HARD_CAP_S = 140.0
REL_TOL = 1e-9

SIZES = {
    "ramp-mc": {"ramp_samples": 2 ** 20, "seeds": 5},
    "sine-mc": {"n_fft": 4096, "seeds": 200},
    "memory-sweep": {"n_fft": 8192, "k_mem": [0.02, 0.05, 0.1, 0.2, 0.5, 1.0]},
    "cli-capture": {"ramp_samples": 2 ** 19, "trace_samples": 2 ** 14, "n_fft": 4096,
                    "lin_samples": 2 ** 19},
}
SMOKE_SIZES = {
    "ramp-mc": {"ramp_samples": 2 ** 14, "seeds": 2},
    "sine-mc": {"n_fft": 256, "seeds": 4},
    "memory-sweep": {"n_fft": 256, "k_mem": [0.05, 1.0]},
    "cli-capture": {"ramp_samples": 2 ** 14, "trace_samples": 256, "n_fft": 256,
                    "lin_samples": 2 ** 14},
}
# Highest percentile that leaves at least MIN_BEYOND captures beyond it in a
# 25 s run at the seed commit and repeated within a tenth over ten runs.
TAIL_PCT = {"ramp-mc": 80, "sine-mc": 90, "memory-sweep": 90, "cli-capture": 70}


# ---------------------------------------------------------------------------
# captures and their checks


@dataclass
class Capture:
    """One stimulus -> codes -> report.

    ``run`` is the timed part. ``inspect`` turns its result into a digest, a
    dict of reported values and a callable that lists invariant violations.
    """

    key: str
    samples: int
    run: Callable[[], object]
    inspect: Callable[[object], tuple]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def codes_digest(codes) -> str:
    return _digest(np.asarray(codes).astype("<i2").tobytes())


def stream_errors(codes, warmup: int, n_in: int) -> list[str]:
    codes = np.asarray(codes)
    errs = []
    if len(codes) != n_in:
        errs.append(f"{len(codes)} codes for {n_in} input samples")
    if warmup != WARMUP:
        errs.append(f"warm-up {warmup}, expected {WARMUP}")
    if codes.dtype.kind not in "iu":
        errs.append(f"codes have dtype {codes.dtype}")
    elif codes.size and (codes.min() < 0 or codes.max() > 255):
        errs.append(f"codes outside [0, 255]: {codes.min()}..{codes.max()}")
    return errs


def ideal_errors(codes, v, vref: float) -> list[str]:
    """The ideal chain must equal ideal_quantize for inputs away from code edges."""
    x = np.asarray(v)[:len(v) - WARMUP]
    c = np.asarray(codes)[WARMUP:len(x) + WARMUP]
    pos = (x + vref) / (2.0 * vref) * 256.0
    away = np.abs(pos - np.round(pos)) > 1e-6
    bad = int(np.count_nonzero(c[away] != pipeadc.ideal_quantize(x[away], vref)))
    return [f"{bad} ideal codes differ from ideal_quantize"] if bad else []


def enob_errors(values: dict) -> list[str]:
    enob = values["enob"]
    return [] if math.isfinite(enob) and 0.0 < enob <= 8.05 else [f"implausible ENOB {enob}"]


def ramp_input(cfg, length: int):
    """The full-scale ramp the ``linearity`` command and criterion 5 use."""
    vref = cfg.reference.vref
    return waveforms.generate(pipeadc.Waveform(kind="ramp", length=length, v_low=-vref,
                                               v_high=vref), cfg.clock)


def _ramp_capture(key: str, make_config, length: int, ideal: bool) -> Capture:
    def run():
        cfg = make_config()
        v = ramp_input(cfg, length)
        stream = correction.digitize(v, cfg)
        return cfg, v, stream, metrics.ramp_linearity(stream)

    def inspect(raw):
        cfg, v, stream, rep = raw
        values = {"max_dnl": rep.max_dnl[0], "max_inl": rep.max_inl[0], "warmup": stream.warmup}

        def invariants():
            errs = stream_errors(stream.codes, stream.warmup, len(v))
            return errs + ideal_errors(stream.codes, v, cfg.reference.vref) if ideal else errs

        return codes_digest(stream.codes), values, invariants

    return Capture(key, length, run, inspect)


def _sine_capture(key: str, seed: int, n_fft: int) -> Capture:
    length = n_fft + pipeadc.PIPELINE_LATENCY_SAMPLES

    def run():
        cfg = pconfig.degraded_config(seed=seed)
        fs = cfg.clock.fs
        f_in, signal_bin = metrics.coherent_frequency(fs, n_fft, fs / 16.0)
        v = waveforms.generate(pipeadc.Waveform(kind="sine", length=length,
                                                amplitude=cfg.reference.vref, frequency=f_in),
                               cfg.clock)
        stream = correction.digitize(v, cfg)
        return v, stream, metrics.sndr_sfdr_enob(metrics.spectrum(stream, n_fft), signal_bin)

    def inspect(raw):
        v, stream, rep = raw
        values = {"enob": rep.enob, "sndr_db": rep.sndr_db, "sfdr_db": rep.sfdr_db,
                  "warmup": stream.warmup}
        return codes_digest(stream.codes), values, lambda: (
            stream_errors(stream.codes, stream.warmup, len(v)) + enob_errors(values))

    return Capture(key, length, run, inspect)


def _sweep_capture(base, k_mem: float, n_fft: int) -> Capture:
    def run():
        return solver.sweep(base, "ota.k_mem", [k_mem], "enob", n_fft=n_fft, jobs=1)

    def inspect(points):
        values = {"k_mem": points[0].value, "enob": points[0].metric} if len(points) == 1 else {}

        def invariants():
            if values.get("k_mem") != k_mem:
                return [f"sweep returned {points!r} for k_mem {k_mem}"]
            return enob_errors(values)

        return "", values, invariants

    return Capture(f"k_mem={k_mem!r}", n_fft + pipeadc.PIPELINE_LATENCY_SAMPLES, run, inspect)


# (key, pipeadc arguments without --out, output files, input samples converted)
def cli_commands(seed: int, sizes: dict) -> list[tuple]:
    s = str(seed * SEED_STRIDE)
    ramp = sizes["ramp_samples"] + pipeadc.PIPELINE_LATENCY_SAMPLES
    trace = sizes["trace_samples"] + pipeadc.PIPELINE_LATENCY_SAMPLES
    lin = sizes["lin_samples"]
    n_fft = sizes["n_fft"]
    return [
        ("simulate-ramp", ["simulate", "--config", "ideal", "--waveform", "ramp",
                           "--length", str(ramp)], ["codes.csv"], ramp),
        ("simulate-trace", ["simulate", "--config", "degraded", "--seed", s, "--waveform", "sine",
                            "--length", str(trace), "--trace"], ["codes.csv", "trace.csv"], trace),
        ("spectrum", ["spectrum", "--config", "degraded", "--seed", s, "--nfft", str(n_fft)],
         ["spectrum.csv", "spectrum.gp"], n_fft + pipeadc.PIPELINE_LATENCY_SAMPLES),
        ("linearity", ["linearity", "--config", "degraded", "--seed", s, "--samples", str(lin)],
         ["linearity.csv", "linearity.gp"], lin + pipeadc.PIPELINE_LATENCY_SAMPLES),
        ("settle-report", ["settle-report", "--config", "degraded", "--seed", s],
         ["settle_report.csv"], 64),
    ]


_STDOUT_VALUES = {"enob": r"ENOB = (\S+) bit", "max_dnl": r"max \|DNL\| = (\S+) LSB",
                  "max_inl": r"max \|INL\| = (\S+) LSB"}


def _csv(data: bytes) -> tuple[str, np.ndarray]:
    text = data.decode("utf-8")
    header, _, body = text.partition("\n")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2) if body else np.zeros((0, 0))
    return header, rows


def cli_file_errors(key: str, files: dict, length: int) -> list[str]:
    """Invariants of one command's output files, parsed back from their bytes."""
    errs = []
    for name, data in files.items():
        if data is None:
            errs.append(f"{name} missing")
        elif not data:
            errs.append(f"{name} empty")
    if errs:
        return errs
    if "codes.csv" in files:
        header, rows = _csv(files["codes.csv"])
        if header != "sample_index,code,warmup_flag" or rows.shape != (length, 3):
            return [f"codes.csv: header {header!r}, shape {rows.shape}"]
        flags = rows[:, 2]
        if not (np.array_equal(rows[:, 0], np.arange(length))
                and np.all(flags[:WARMUP] == 1) and np.all(flags[WARMUP:] == 0)):
            errs.append("codes.csv: bad sample index or warm-up flags")
        codes = rows[:, 1]
        errs += stream_errors(codes.astype(np.int64), WARMUP, length)
        if np.any(codes != np.round(codes)):
            errs.append("codes.csv: non-integer code")
        if key == "simulate-ramp":
            cfg = pconfig.ideal_config()
            errs += ideal_errors(codes.astype(np.int64), ramp_input(cfg, length),
                                 cfg.reference.vref)
    if "trace.csv" in files:
        _, rows = _csv(files["trace.csv"])
        if rows.shape != (length, 16):
            return errs + [f"trace.csv: shape {rows.shape}"]
        if not (np.isin(rows[:, 9:15], (-1, 0, 1)).all() and np.isin(rows[:, 15], range(4)).all()):
            errs.append("trace.csv: decisions out of range")
    expected_rows = {"linearity.csv": 256, "settle_report.csv": 7}
    for name, n in expected_rows.items():
        if name in files and files[name].count(b"\n") != n + 1:
            errs.append(f"{name}: expected {n} rows")
    if "linearity.csv" in files:
        _, rows = _csv(files["linearity.csv"])
        if rows[0, 1] != 0.0 or rows[-1, 1] != 0.0:
            errs.append("linearity.csv: end-code DNL not pinned to 0")
    return errs


class CliRunner:
    """Launches the CLI commands; collects their traces when tracing is on."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.trace = False
        self.capture = -1
        self.summaries: list[dict] = []
        self.spans: list[list] = []
        self.peak_rss_kb = 0

    def capture_for(self, key: str, argv: list, names: list, length: int) -> Capture:
        out_dir = self.workdir / key
        result_path = self.workdir / f"{key}.result.json"
        stdout_path = self.workdir / f"{key}.stdout"

        def run():
            with open(stdout_path, "wb") as out, open(self.workdir / f"{key}.stderr", "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(result_path),
                     "1" if self.trace else "0", "--", *argv, "--out", str(out_dir)],
                    stdout=out, stderr=err)
                try:
                    return proc.wait(timeout=120)
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()

        def inspect(status):
            result = json.loads(result_path.read_text()) if result_path.exists() else {}
            files = {n: (out_dir / n).read_bytes() if (out_dir / n).exists() else None
                     for n in names}
            stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
            for path in (result_path, stdout_path):
                path.unlink(missing_ok=True)
            shutil.rmtree(out_dir, ignore_errors=True)
            self.peak_rss_kb = max(self.peak_rss_kb, result.get("peak_rss_kb", 0))
            if "summary" in result:
                self.summaries.append(result["summary"])
                offset = len(self.spans)
                self.spans += [[self.capture, n, a, b, p + offset if p >= 0 else -1]
                               for _, n, a, b, p in result["spans"]]
            values = {"status": status, "changed": len(result.get("changed", [None]))}
            for name, pattern in _STDOUT_VALUES.items():
                m = re.search(pattern, stdout)
                if m:
                    values[name] = float(m.group(1))
            digest = _digest(b"".join(_digest(files[n] or b"").encode() for n in names))

            def invariants():
                errs = [] if status == 0 else [f"exit status {status}"]
                if values["changed"]:
                    errs.append(f"patch targets changed: {result.get('changed')}")
                errs += cli_file_errors(key, files, length)
                return errs + enob_errors(values) if "enob" in values else errs

            return digest, values, invariants

        return Capture(key, length, run, inspect)


def setup_config(workload: str, seed: int):
    """The config a workload starts from; what ``setup_s`` resolves."""
    if workload == "memory-sweep":
        cfg = pconfig.set_param(pconfig.degraded_config(seed=seed * SEED_STRIDE), "ota.gbw", 500e6)
        return pconfig.set_param(cfg, "clock.reset_enabled", False)
    if workload == "cli-capture":
        return pconfig.preset_config("degraded", seed=seed * SEED_STRIDE)
    return pconfig.degraded_config(seed=seed * SEED_STRIDE)


def make_captures(workload: str, seed: int, sizes: dict, workdir: Path) -> tuple[list, object]:
    """The workload's capture list and, for cli-capture, its runner."""
    first = seed * SEED_STRIDE
    if workload == "ramp-mc":
        length = sizes["ramp_samples"] + pipeadc.PIPELINE_LATENCY_SAMPLES
        caps = [_ramp_capture(f"degraded:{s}", lambda s=s: pconfig.degraded_config(seed=s),
                              length, ideal=False)
                for s in range(first, first + sizes["seeds"])]
        return caps + [_ramp_capture("ideal", pconfig.ideal_config, length, ideal=True)], None
    if workload == "sine-mc":
        return [_sine_capture(f"degraded:{s}", s, sizes["n_fft"])
                for s in range(first, first + sizes["seeds"])], None
    if workload == "memory-sweep":
        base = setup_config(workload, seed)
        return [_sweep_capture(base, k, sizes["n_fft"]) for k in sizes["k_mem"]], None
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = CliRunner(workdir)
    return [runner.capture_for(*cmd) for cmd in cli_commands(seed, sizes)], runner


def engine_paths(workload: str, seed: int, sizes: dict) -> dict:
    if workload == "memory-sweep":
        base = setup_config(workload, seed)
        return {f"k_mem={k!r}": tracer.engine_path(pconfig.set_param(base, "ota.k_mem", k))
                for k in sizes["k_mem"]}
    return {"all": tracer.engine_path(setup_config(workload, seed))}


class Checker:
    """Counts attempted and failed captures and keeps the first failures' reasons."""

    def __init__(self, references: dict | None):
        self.references = references
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {reason}")

    def check(self, key: str, digest: str, values: dict, invariants) -> bool:
        self.attempted += 1
        problems = []
        if key in self.first:
            first_digest, first_values, first_ok = self.first[key]
            if (digest, values) != (first_digest, first_values):
                problems.append("differs from the same capture earlier in this run")
            elif not first_ok:
                problems.append("repeats a failed capture")
        else:
            problems += invariants()
            if self.references is not None:
                problems += reference_errors(self.references.get(key), digest, values)
            self.first[key] = (digest, values, not problems)
        if problems:
            self.fail(key, "; ".join(problems))
        return not problems

    def run(self, capture: Capture) -> float:
        """Run and check one capture; returns the host time of its timed part."""
        t0 = time.perf_counter()
        try:
            raw = capture.run()
        except Exception as exc:  # a capture that raises is a failed capture
            dt = time.perf_counter() - t0
            self.attempted += 1
            self.fail(capture.key, f"raised {type(exc).__name__}: {exc}")
            return dt
        dt = time.perf_counter() - t0
        try:
            self.check(capture.key, *capture.inspect(raw))
        except Exception as exc:  # an output that cannot be inspected is wrong
            self.attempted += 1
            self.fail(capture.key, f"check raised {type(exc).__name__}: {exc}")
        return dt


def reference_errors(ref: dict | None, digest: str, values: dict) -> list[str]:
    if ref is None:
        return ["no reference recorded"]
    errs = [] if ref["digest"] == digest else ["digest differs from the reference"]
    if set(ref["values"]) != set(values):
        return errs + [f"reported {sorted(values)}, reference has {sorted(ref['values'])}"]
    for name, want in ref["values"].items():
        got = values[name]
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
            errs.append(f"{name} {got!r}, reference {want!r}")
    return errs


# ---------------------------------------------------------------------------
# the timed loop


def run_rounds(captures, checker: Checker, seconds: float, min_captures: int,
               rounds: int | None = None, on_capture=None) -> tuple[list, int, float]:
    """Repeat the capture list; returns the capture times, the rounds run and the wall time.

    Stops after ``rounds`` rounds when given; otherwise once ``seconds`` have
    passed and at least ``min_captures`` captures were timed, or at HARD_CAP_S.
    """
    times = []
    n_rounds = 0
    start = time.perf_counter()
    while True:
        for cap in captures:
            if on_capture is not None:
                on_capture(len(times))
            times.append(checker.run(cap))
        n_rounds += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if n_rounds >= rounds:
                break
        elif (elapsed >= seconds and len(times) >= min_captures) or elapsed >= HARD_CAP_S:
            break
    return times, n_rounds, time.perf_counter() - start


def min_captures_for(pct: int) -> int:
    """Smallest capture count that leaves MIN_BEYOND captures beyond the pct-th percentile."""
    return -(-MIN_BEYOND * 100 // (100 - pct))


def end_to_end(captures: list, times: list, pct: int, peak_rss_kb: int) -> dict:
    """Throughput is all samples converted over all timed host time, and the
    mean capture time is that time over the captures.

    Means, not medians, are the gated figures. On a shared host a capture
    runs in one of two speeds (about 1.6x apart for the stepped engine)
    depending on whether the neighbours are busy, and the share of each
    drifts from run to run. A mean moves in proportion to that share; a
    median jumps the whole gap when the share is near one half. The median
    is still printed as ``capture_ms_p50``.
    """
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    samples = sum(captures[i % len(captures)].samples for i in range(len(times)))
    return {
        "throughput_msps": samples / sum(times) / 1e6,
        "capture_ms_mean": statistics.fmean(times) * 1e3,
        "capture_ms_p50": statistics.median(times) * 1e3,
        "capture_ms_tail": tail * 1e3,
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
    }


def layer_table(s: dict, rounds: int) -> dict:
    """Per-layer metrics per round of the capture list, from a tracer summary."""
    def g(table, key):
        return s.get(table, {}).get(key, 0)

    calls = s.get("calls", {})
    simulate_s = g("busy", "engine.simulate")
    samples = g("counts", "engine.samples")
    out = {
        "config.build_s": g("layer_busy", "config"),
        "config.calls": sum(v for k, v in calls.items() if k.startswith("config.")),
        "waveforms.generate_s": g("busy", "waveforms.generate"),
        "waveforms.samples": g("counts", "waveforms.samples"),
        "engine.init_s": g("busy", "engine.init"),
        "engine.simulate_s": simulate_s,
        "engine.self_s": g("layer_self", "engine"),
        "engine.samples": samples,
        "engine.vectorized_samples": g("counts", "engine.vectorized_samples"),
        "engine.stepped_samples": g("counts", "engine.stepped_samples"),
        "engine.residue_bytes": g("counts", "engine.residue_bytes"),
        "stages.self_s": g("layer_self", "stages"),
        "stages.settle_value_calls": calls.get("stages.settle_value", 0),
        "stages.sub_adc_decide_calls": calls.get("stages.sub_adc_decide", 0),
        "stages.flash2b_calls": calls.get("stages.flash2b", 0),
        "stages.comparator_diff_calls": calls.get("stages.comparator_diff", 0),
        "correction.correct_stream_s": g("busy", "correction.correct_stream"),
        "correction.self_s": g("layer_self", "correction"),
        "correction.codes": g("counts", "correction.codes"),
        "metrics.busy_s": g("layer_busy", "metrics"),
        "metrics.ramp_linearity_s": g("busy", "metrics.ramp_linearity"),
        "metrics.spectrum_s": g("busy", "metrics.spectrum"),
        "metrics.sndr_sfdr_enob_s": g("busy", "metrics.sndr_sfdr_enob"),
        "metrics.ramp_linearity_calls": calls.get("metrics.ramp_linearity", 0),
        "metrics.spectrum_calls": calls.get("metrics.spectrum", 0),
        "solver.sweep_s": g("busy", "solver.sweep"),
        "solver.sweep_self_s": g("layer_self", "solver"),
        "solver.points": g("counts", "solver.points"),
        "reports.write_s": g("layer_busy", "reports"),
        "reports.rows": g("counts", "reports.rows"),
        "reports.bytes": g("counts", "reports.bytes"),
        "cli.import_s": g("busy", "cli.import"),
        "cli.run_subcommand_s": g("busy", "cli.run_subcommand"),
        "cli.self_s": g("self", "cli.run_subcommand"),
        "cli.commands": g("counts", "cli.commands"),
    }
    out = {k: v / rounds for k, v in out.items()}
    out["engine.msps"] = samples / simulate_s / 1e6 if simulate_s > 0 else 0.0
    return out


def simulated_labels(workload: str, first: dict) -> dict:
    """Simulated statistics of the run's captures: labels, never gated metrics."""
    vals = {k: v[1] for k, v in first.items()}
    if workload == "ramp-mc":
        deg = [v for k, v in vals.items() if k != "ideal"]
        out = {"max_abs_dnl_degraded": max(abs(v["max_dnl"]) for v in deg),
               "max_abs_inl_degraded": max(abs(v["max_inl"]) for v in deg)}
        if "ideal" in vals:
            out.update(max_abs_dnl_ideal=abs(vals["ideal"]["max_dnl"]),
                       max_abs_inl_ideal=abs(vals["ideal"]["max_inl"]))
        return out
    if workload == "memory-sweep":
        return {f"enob_at_{k}": v["enob"] for k, v in vals.items()}
    enobs = [v["enob"] for v in vals.values() if "enob" in v]
    out = {"mean_enob": statistics.fmean(enobs)} if enobs else {}
    for v in vals.values():
        out.update({f"max_abs_{n[4:]}": abs(v[n]) for n in ("max_dnl", "max_inl") if n in v})
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out: Path,
                 smoke: bool) -> dict:
    originals = tracer.current_objects()
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    references = None
    if seed == DEFAULT_SEED and not smoke:
        recorded = json.loads(REFERENCES.read_text())[workload]
        if recorded["sizes"] != sizes:
            raise SystemExit(f"{REFERENCES.name} holds {workload} at other sizes; run --record")
        references = recorded["captures"]
    out.mkdir(parents=True, exist_ok=True)
    captures, cli = make_captures(workload, seed, sizes, out / "cli")
    checker = Checker(references)
    pct = TAIL_PCT[workload]
    checker.run(captures[0])                      # untimed warm-up capture
    result = {"workload": workload, "seed": seed}
    if not trace:
        times, n_rounds, _ = run_rounds(captures, checker, seconds, min_captures_for(pct))
        peak = cli.peak_rss_kb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = end_to_end(captures, times, pct, peak)
        cuts = statistics.quantiles(times, n=100, method="inclusive")
        result["percentiles_ms"] = {p: cuts[p - 1] * 1e3
                                    for p in (50, 60, 65, 70, 75, 80, 90, 95, 99)}
        by_key = {c.key: statistics.median(times[i::len(captures)]) * 1e3
                  for i, c in enumerate(captures)}
        if len(by_key) <= 10:
            result["median_ms_by_input"] = by_key
        changed = tracer.untouched(originals)
        if changed:
            checker.fail("untraced run", f"patch targets changed: {changed}")
    else:
        times, n_rounds, wall0 = run_rounds(captures, checker, seconds / 3.0, 1)
        t = tracer.Tracer()
        if cli:
            cli.trace = True
            on_capture = lambda i: setattr(cli, "capture", i)  # noqa: E731
        else:
            on_capture = lambda i: setattr(t, "capture", i)  # noqa: E731
        with t.installed():
            _, _, wall1 = run_rounds(captures, checker, 0.0, 1, rounds=n_rounds,
                                     on_capture=on_capture)
        changed = tracer.untouched(originals)
        if changed:
            checker.fail("traced run", f"patch targets not restored: {changed}")
        summary = tracer.merge(cli.summaries) if cli else t.summary()
        spans = cli.spans if cli else t.spans
        layers = layer_table(summary, n_rounds)
        layers["trace.overhead_s"] = (wall1 - wall0) / n_rounds
        layers["trace.overhead_frac"] = (wall1 - wall0) / wall0
        result["layers"] = layers
        spans_path = out / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["capture", "name", "start", "end", "parent"], "spans": spans}))
        result["spans_file"] = str(spans_path)
    result.update(
        attempted=checker.attempted, failed=checker.failed, errors=checker.errors,
        captures=len(times), rounds=n_rounds, tail_pct=pct,
        tail_beyond=len(times) - math.ceil(len(times) * pct / 100),
        record={
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "sizes": sizes,
            "engine_path": engine_paths(workload, seed, sizes),
            "capture_inputs": [c.key for c in captures],
            "references_checked": references is not None,
            "simulated": simulated_labels(workload, checker.first),
            "validation": "model not validated against silicon; no error figure is given",
        })
    (out / "record.json").write_text(json.dumps(result, indent=1))
    return result


def record_references() -> None:
    """Run every capture once at the default seed and full size; store digests and values."""
    refs = {}
    for workload in WORKLOADS:
        workdir = Path(".bench_build") / "pipeadc" / "record"
        captures, _ = make_captures(workload, DEFAULT_SEED, SIZES[workload], workdir)
        checker = Checker(None)
        for cap in captures:
            checker.run(cap)
        if checker.failed:
            raise SystemExit(f"{workload}: {checker.errors}")
        refs[workload] = {"sizes": SIZES[workload], "captures": {
            k: {"digest": d, "values": v} for k, (d, v, _) in checker.first.items()}}
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=Path(".bench_build") / "pipeadc")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--record", action="store_true", help="rewrite references.json")
    args = p.parse_args(argv)
    if args.record:
        record_references()
        return 0
    if args.workload is None or args.seed < 0:
        p.error("--workload is required and --seed must be >= 0")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
                          args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
