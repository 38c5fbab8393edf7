"""Error-budget inversion, the converter's three bench tests, and design-space sweeps.

Keeping the total settling error of a stage under half an LSB and splitting
it evenly between the static (finite gain) and dynamic (finite bandwidth)
contributions gives two closed forms, with n = N_BITS = 8:

    gain budget:      1/(beta*a0) < ERR_FRACTION * 2^-n   ->  a0_min
    bandwidth budget: exp(-t * 2*pi*beta*gbw) < ERR_FRACTION * 2^-n  ->  gbw_min

The LSB here is interpreted at the full converter resolution for every
stage, which is what collapses the requirement to a single gain and a single
bandwidth number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .config import AdcConfig, MDAC_BETA, N_BITS, N_STAGES, set_param, validate
from .correction import digitize
from .engine import PIPELINE_LATENCY_SAMPLES, PipelineEngine
from .metrics import (LinearityReport, SpectrumReport, coherent_frequency, ramp_linearity,
                      sndr_sfdr_enob, spectrum)
from .waveforms import Waveform, generate

# the default records: codes after the warm-up of the sine and of the ramp test
N_FFT = 4096
RAMP_SAMPLES = 2 ** 20
SWEEP_METRICS = {"enob": "bits", "inl": "lsb", "dnl": "lsb"}  # each metric's CSV unit
# each error term gets a quarter LSB: the half-LSB settling allowance split
# equally between the static and the dynamic error
ERR_FRACTION = 0.25
# minimum amplifier DC gain (linear), a0_min, at a stage MDAC's feedback factor
MIN_DC_GAIN = 2.0 ** N_BITS / (MDAC_BETA * ERR_FRACTION)


def min_gbw(t_settle: float) -> float:
    """Minimum gain-bandwidth product at a stage MDAC's feedback factor.

    gbw_min = ln(1 / (ERR_FRACTION * 2^-N_BITS)) / (2*pi*MDAC_BETA*t_settle),
    i.e. enough time constants inside t_settle for the residual exponential
    to drop below the budgeted fraction of an LSB. t_settle is checked here
    too, as it is a bare float and need not come from a validated clock.
    """
    if not t_settle > 0.0:
        raise ValueError(f"t_settle must be positive, got {t_settle!r}")
    return math.log(1.0 / (ERR_FRACTION * 2.0 ** -N_BITS)) / (
        2.0 * math.pi * MDAC_BETA * t_settle)


# ---------------------------------------------------------------------------
# the three bench tests, each assembled here only


def sine_tone(fs: float, n_fft: int) -> tuple[float, int]:
    """The test tone of an n_fft record: (f_in, bin) of the coherent bin nearest fs/16."""
    return coherent_frequency(fs, n_fft, fs / 16.0)


def sine_report(config: AdcConfig, n_fft: int) -> tuple[SpectrumReport, float]:
    """SNDR/SFDR/ENOB of a full-scale sine at :func:`sine_tone`, and its frequency.

    The capture is n_fft samples plus the pipeline latency, so the metric sees
    n_fft codes after the warm-up.
    """
    f_in, signal_bin = sine_tone(config.clock.fs, n_fft)
    wave = Waveform(kind="sine", length=n_fft + PIPELINE_LATENCY_SAMPLES,
                    amplitude=config.reference.vref, frequency=f_in)
    stream = digitize(generate(wave, config.clock), config)
    return sndr_sfdr_enob(spectrum(stream, n_fft), signal_bin), f_in


def ramp_report(config: AdcConfig, samples: int) -> LinearityReport:
    """Code-density DNL/INL of a -vref to +vref ramp of samples plus the pipeline latency."""
    vref = config.reference.vref
    wave = Waveform(kind="ramp", length=samples + PIPELINE_LATENCY_SAMPLES,
                    v_low=-vref, v_high=vref)
    return ramp_linearity(digitize(generate(wave, config.clock), config))


@dataclass(frozen=True)
class SettleRow:
    """One line of the step-settling report."""

    stage: str
    ideal_mv: float
    simulated_mv: float
    error_pct: float


def settle_report(config: AdcConfig) -> list[SettleRow]:
    """Full-swing step experiment: settled level and percent error per slice.

    A -vref to +vref step is applied and held; once the pipe reaches steady
    state each slice's settled output is compared against its own input (the
    value a perfect full-scale pass would reproduce), which chains the report
    exactly like a bench measurement of the setup error: the ideal column of
    row k is the simulated column of row k-1.
    """
    vref = config.reference.vref
    wave = generate(Waveform(kind="pulse", length=64, v_low=-vref, v_high=vref), config.clock)
    res = PipelineEngine(config).simulate(wave).residues[-1]
    rows = []
    ideal = vref
    names = ["SHA"] + [f"Stage{k}" for k in range(1, N_STAGES + 1)]
    for i, name in enumerate(names):
        sim = float(res[i])
        if ideal == 0.0:
            raise ValueError(f"{name}: its input, the {names[i - 1]} output, settled to 0 V, "
                             "so its percent error is undefined")
        err_pct = (ideal - sim) / ideal * 100.0
        rows.append(SettleRow(stage=name, ideal_mv=ideal * 1e3,
                              simulated_mv=sim * 1e3, error_pct=err_pct))
        ideal = sim
    return rows


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    value: float
    metric: float


def _sweep_one(args) -> float:
    config, axis, value, metric, n_fft, ramp_samples = args
    cfg = validate(set_param(config, axis, value))
    if metric == "enob":
        return sine_report(cfg, n_fft)[0].enob
    report = ramp_report(cfg, ramp_samples)
    if metric == "dnl":
        return abs(report.max_dnl[0])
    return abs(report.max_inl[0])


def sweep(config: AdcConfig, axis: str, values, metric: str,
          n_fft: int = N_FFT, ramp_samples: int = RAMP_SAMPLES,
          jobs: int = 1) -> list[SweepPoint]:
    """Map one parameter axis to a metric, one independent run per value.

    Each run rebuilds a fresh engine from the modified config (same drawn
    mismatch), so runs are order-independent and may fan out across processes
    with jobs > 1; the pool never gets more workers than there are values or
    CPUs. Results always come back in input order. axis takes the config file
    key syntax, including the a0_db alias and the broadcasting ota. prefix.
    """
    if metric not in SWEEP_METRICS:
        raise ValueError(f"unknown sweep metric: {metric!r} (use one of {tuple(SWEEP_METRICS)})")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    set_param(config, axis, 1.0)  # fail fast on a bad path, even with no values
    tasks = [(config, axis, float(v), metric, n_fft, ramp_samples) for v in values]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it pulls in multiprocessing, which every other command can skip
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            metrics = list(pool.map(_sweep_one, tasks))
    else:
        metrics = [_sweep_one(t) for t in tasks]
    return [SweepPoint(value=t[2], metric=m) for t, m in zip(tasks, metrics)]
