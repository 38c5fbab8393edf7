"""Error-budget inversion and design-space sweeps.

Keeping the total settling error of a stage under half an LSB and splitting
it evenly between the static (finite gain) and dynamic (finite bandwidth)
contributions gives two closed forms:

    gain budget:      1/(beta*a0) < err_fraction * 2^-n   ->  a0_min
    bandwidth budget: exp(-t * 2*pi*beta*gbw) < err_fraction * 2^-n  ->  gbw_min

The LSB here is interpreted at the full converter resolution for every
stage, which is what collapses the requirement to a single gain and a single
bandwidth number. The relaxed per-stage variant (each later stage resolves
fewer remaining bits) is available through :func:`relaxed_budgets` but is
not the default.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

from .config import AdcConfig, N_BITS, gain_to_db, set_param, validate
from .correction import digitize
from .engine import PIPELINE_LATENCY_SAMPLES
from .metrics import coherent_frequency, ramp_linearity, sndr_sfdr_enob, spectrum
from .waveforms import Waveform, generate

SWEEP_METRICS = ("enob", "inl", "dnl")


@dataclass(frozen=True)
class Budget:
    """Settling error budget for one stage.

    err_fraction is the share of an LSB granted to each error term; the
    default 1/4 comes from splitting the half-LSB allowance equally between
    the static and the dynamic error.
    """

    n_bits: int = N_BITS
    err_fraction: float = 0.25
    beta: float = 0.5
    t_settle: float = 0.387 / 166.6e6

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        if not 0.0 < self.err_fraction < 1.0:
            raise ValueError("err_fraction must be in (0, 1)")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")


class GainRequirement(NamedTuple):
    linear: float
    db: float


def min_dc_gain(b: Budget) -> GainRequirement:
    """Minimum amplifier DC gain: a0_min = 2^n_bits / (beta * err_fraction)."""
    linear = 2.0 ** b.n_bits / (b.beta * b.err_fraction)
    return GainRequirement(linear=linear, db=gain_to_db(linear))


def min_gbw(b: Budget) -> float:
    """Minimum gain-bandwidth product.

    gbw_min = ln(1 / (err_fraction * 2^-n_bits)) / (2*pi*beta*t_settle),
    i.e. enough time constants inside t_settle for the residual exponential
    to drop below the budgeted fraction of an LSB.
    """
    if b.t_settle <= 0.0:
        raise ValueError("t_settle must be positive")
    return math.log(1.0 / (b.err_fraction * 2.0 ** -b.n_bits)) / (
        2.0 * math.pi * b.beta * b.t_settle)


def budget_from_config(config: AdcConfig, n_bits: int = N_BITS,
                       err_fraction: float = 0.25) -> Budget:
    """Budget at the config's clocking and first-stage feedback factor."""
    return Budget(n_bits=n_bits, err_fraction=err_fraction,
                  beta=config.stages[0].ota.beta,
                  t_settle=config.clock.t_settle)


def relaxed_budgets(b: Budget, n_stages: int = 6) -> list[Budget]:
    """Optional per-stage budgets: stage k only needs the resolution still unresolved.

    Stage k (1-based) gets n_bits - (k - 1) effective bits, floored at 2.
    """
    return [replace(b, n_bits=max(2, b.n_bits - k)) for k in range(n_stages)]


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            metrics = list(pool.map(_sweep_one, tasks))
    else:
        metrics = [_sweep_one(t) for t in tasks]
    return [SweepPoint(value=t[2], metric=m) for t, m in zip(tasks, metrics)]
