import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipeadc import (MIN_DC_GAIN, ConfigError, OtaParams, PIPELINE_LATENCY_SAMPLES, Waveform,
                     coherent_frequency, default_config, degraded_config, digitize, gain_to_db,
                     generate, ideal_config, min_gbw, ramp_linearity, ramp_report,
                     settle_coefficients, sine_report, sndr_sfdr_enob, spectrum, sweep)
import pipeadc.solver
from pipeadc.config import set_param
from pipeadc.stages import settle_value

T_SETTLE = 0.387 / 166.6e6


def test_min_gain_main_anchor():
    # n=8, a stage MDAC's beta=0.5, quarter-LSB budget: 2048 linear = 66.2 dB
    assert MIN_DC_GAIN == pytest.approx(2048.0, rel=1e-12)
    assert gain_to_db(MIN_DC_GAIN) == pytest.approx(66.2, abs=0.05)


def test_min_gbw_reproduces_950mhz():
    gbw = min_gbw(T_SETTLE)
    assert gbw == pytest.approx(950e6, rel=0.02)
    # closed form: (n*ln2 + ln(1/err)) / (2*pi*beta*t)
    want = (8 * math.log(2) + math.log(4)) / (2 * math.pi * 0.5 * T_SETTLE)
    assert gbw == pytest.approx(want, rel=1e-12)


def test_min_gbw_scales_exactly():
    assert min_gbw(2 * T_SETTLE) == min_gbw(T_SETTLE) / 2.0


@pytest.mark.parametrize("t_settle", [0.0, -T_SETTLE, math.nan],
                         ids=["zero-t_settle", "negative-t_settle", "nan-t_settle"])
def test_budget_validation(t_settle):
    with pytest.raises(ValueError, match="^t_settle must be positive"):
        min_gbw(t_settle)


def test_budget_consistency_with_settling():
    # an amplifier built exactly to the solved minimums settles a worst-case
    # full-swing residue to within half an LSB
    ota = OtaParams(a0=MIN_DC_GAIN, gbw=min_gbw(T_SETTLE))
    vref = 0.6
    lsb = 2 * vref / 256.0
    settled = settle_value(vref, 0.0, *settle_coefficients(ota, 0.5, T_SETTLE))
    assert abs(settled - vref) <= 0.5 * lsb


# --- the two bench tests -------------------------------------------------------


def _fields(report):
    """Every field of a report, arrays as bytes, so equal means bitwise equal."""
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(report).values()]


@pytest.mark.parametrize("config", [ideal_config(), degraded_config(seed=3)],
                         ids=["ideal", "degraded-3"])
def test_sine_and_ramp_reports_equal_the_hand_built_chain(config):
    fs, vref = config.clock.fs, config.reference.vref
    n_fft, samples = 1024, 2 ** 16
    f_in, m = coherent_frequency(fs, n_fft, fs / 16.0)
    sine = generate(Waveform(kind="sine", length=n_fft + PIPELINE_LATENCY_SAMPLES,
                             amplitude=vref, frequency=f_in), config.clock)
    want = sndr_sfdr_enob(spectrum(digitize(sine, config), n_fft), m)
    got, got_f_in = sine_report(config, n_fft)
    assert got_f_in == f_in
    assert _fields(got) == _fields(want)
    ramp = generate(Waveform(kind="ramp", length=samples + PIPELINE_LATENCY_SAMPLES,
                             v_low=-vref, v_high=vref), config.clock)
    assert _fields(ramp_report(config, samples)) == _fields(ramp_linearity(digitize(ramp, config)))


def test_sweep_enob_point_equals_sine_report():
    config = degraded_config(seed=2)
    (point,) = sweep(config, "ota.gbw", [800e6], "enob", n_fft=1024)
    assert point.metric == sine_report(set_param(config, "ota.gbw", 800e6), 1024)[0].enob


# --- sweep ---------------------------------------------------------------------


def test_sweep_gain_axis_enob_trend():
    # ENOB rises with gain; at the quantization-limited top the measurement
    # can dither by ~0.01 bit, so the monotonicity check carries a small slack
    pts = sweep(ideal_config(), "ota.a0_db", [40.0, 60.0, 66.2, 80.0, 100.0], "enob")
    values = [p.metric for p in pts]
    assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))
    assert values[1] > values[0]
    assert values[-1] == pytest.approx(8.0, abs=0.05)


def test_sweep_settle_fraction_enob_trend():
    base = set_param(set_param(ideal_config(), "ota.gbw", 950e6), "ota.a0_db", 100.0)
    pts = sweep(base, "clock.settle_fraction", [0.2, 0.3, 0.387, 0.5], "enob")
    values = [p.metric for p in pts]
    assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))
    assert values[1] > values[0] + 0.5  # the starved region really is worse


def test_sweep_preserves_order_and_values():
    pts = sweep(ideal_config(), "ota.a0_db", [80.0, 60.0, 100.0], "enob")
    assert [p.value for p in pts] == [80.0, 60.0, 100.0]


def test_sweep_empty_values():
    assert sweep(ideal_config(), "ota.a0_db", [], "enob") == []


def test_sweep_invalid_path_or_metric():
    with pytest.raises(Exception, match="unknown key"):
        sweep(ideal_config(), "ota.bogus", [1.0], "enob")
    with pytest.raises(ValueError, match="metric"):
        sweep(ideal_config(), "ota.a0_db", [60.0], "snr")


@pytest.mark.parametrize("axis,metric", [("clock.fs", "enob"), ("reference.vref", "dnl")])
def test_sweep_point_out_of_domain_names_its_key(axis, metric):
    # each point's config is validated before the stimulus is built from it:
    # unchecked, a negative fs fails in coherent_frequency and a negative vref
    # in the ramp generator, with messages that name neither key
    with pytest.raises(ConfigError, match=rf"^{axis}: must be in \(0, inf\)$"):
        sweep(default_config(), axis, [-1.0], metric, n_fft=256, ramp_samples=2 ** 12)


def test_sweep_dnl_metric_runs():
    pts = sweep(ideal_config(), "ota.a0_db", [100.0], "dnl", ramp_samples=2 ** 16)
    assert len(pts) == 1
    assert pts[0].metric < 0.05


def test_sweep_dnl_reports_missing_codes():
    # at 300 MHz the degraded preset misses dozens of codes; that is DNL -1,
    # not a stimulus too poor to measure
    pts = sweep(degraded_config(seed=0), "ota.gbw", [3e8], "dnl", ramp_samples=2 ** 18)
    assert [p.metric for p in pts] == [1.0]


def test_sweep_parallel_matches_serial():
    vals = [60.0, 80.0, 100.0]
    serial = sweep(ideal_config(), "ota.a0_db", vals, "enob", jobs=1)
    parallel = sweep(ideal_config(), "ota.a0_db", vals, "enob", jobs=3)
    assert serial == parallel


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        sweep(ideal_config(), "ota.a0_db", [60.0], "enob", n_fft=256, jobs=jobs)


@pytest.mark.parametrize("jobs,n_values,cpus,workers", [
    (8, 3, 2, 2),      # clamped to the CPUs
    (8, 3, 16, 3),     # clamped to the values
    (2, 3, 16, 2),     # as asked
    (8, 3, None, None),  # unknown CPU count: serial
    (4, 1, 16, None),  # one value: serial
])
def test_sweep_clamps_pool_size(monkeypatch, jobs, n_values, cpus, workers):
    pools = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor: records the size, runs in-process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeadc.solver.os, "cpu_count", lambda: cpus)
    vals = [60.0, 80.0, 100.0][:n_values]
    pts = sweep(ideal_config(), "ota.a0_db", vals, "enob", n_fft=256, jobs=jobs)
    assert [p.value for p in pts] == vals
    assert pools == ([] if workers is None else [workers])


def test_import_loads_no_process_pool():
    # only a parallel sweep needs the process pool, so importing the package
    # (which every command does) must not pay for multiprocessing
    src = str(Path(pipeadc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, pipeadc; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
