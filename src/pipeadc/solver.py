"""Error-budget inversion and design-space sweeps.

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

from .config import AdcConfig, N_BITS, set_param, validate
from .correction import digitize
from .engine import PIPELINE_LATENCY_SAMPLES
from .metrics import coherent_frequency, ramp_linearity, sndr_sfdr_enob, spectrum
from .waveforms import Waveform, generate

SWEEP_METRICS = ("enob", "inl", "dnl")
# each error term gets a quarter LSB: the half-LSB settling allowance split
# equally between the static and the dynamic error
ERR_FRACTION = 0.25


def _check_positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def min_dc_gain(beta: float) -> float:
    """Minimum amplifier DC gain (linear): a0_min = 2^N_BITS / (beta * ERR_FRACTION)."""
    _check_positive("beta", beta)
    return 2.0 ** N_BITS / (beta * ERR_FRACTION)


def min_gbw(beta: float, t_settle: float) -> float:
    """Minimum gain-bandwidth product.

    gbw_min = ln(1 / (ERR_FRACTION * 2^-N_BITS)) / (2*pi*beta*t_settle),
    i.e. enough time constants inside t_settle for the residual exponential
    to drop below the budgeted fraction of an LSB.
    """
    _check_positive("beta", beta)
    _check_positive("t_settle", t_settle)
    return math.log(1.0 / (ERR_FRACTION * 2.0 ** -N_BITS)) / (
        2.0 * math.pi * beta * t_settle)


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    value: float
    metric: float


def _sweep_one(args) -> float:
    config, axis, value, metric, n_fft, ramp_samples = args
    cfg = validate(set_param(config, axis, value))
    fs = cfg.clock.fs
    vref = cfg.reference.vref
    if metric == "enob":
        f_in, m = coherent_frequency(fs, n_fft, fs / 16.0)
        wave = generate(Waveform(kind="sine", length=n_fft + PIPELINE_LATENCY_SAMPLES,
                                 amplitude=vref, frequency=f_in), cfg.clock)
        report = sndr_sfdr_enob(spectrum(digitize(wave, cfg), n_fft), m)
        return report.enob
    wave = generate(Waveform(kind="ramp", length=ramp_samples + PIPELINE_LATENCY_SAMPLES,
                             v_low=-vref, v_high=vref), cfg.clock)
    report = ramp_linearity(digitize(wave, cfg))
    if metric == "dnl":
        return abs(report.max_dnl[0])
    return abs(report.max_inl[0])


def sweep(config: AdcConfig, axis: str, values, metric: str,
          n_fft: int = 4096, ramp_samples: int = 2 ** 20,
          jobs: int = 1) -> list[SweepPoint]:
    """Map one parameter axis to a metric, one independent run per value.

    Each run rebuilds a fresh engine from the modified config (same seed), so
    runs are order-independent and may fan out across processes with jobs > 1;
    the pool never gets more workers than there are values or CPUs. Results
    always come back in input order. axis takes the config file key syntax,
    including the a0_db alias and the broadcasting ota. prefix.
    """
    if metric not in SWEEP_METRICS:
        raise ValueError(f"unknown sweep metric: {metric!r} (use one of {SWEEP_METRICS})")
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
