"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance is pinned here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from pipeadc import (CodeStream, OtaParams, PIPELINE_LATENCY_SAMPLES, PipelineEngine,
                     Waveform, coherent_frequency, default_config, degraded_config, digitize,
                     gain_to_db, generate, ideal_config, ideal_quantize, min_dc_gain, min_gbw,
                     ramp_report, settle_coefficients, settle_report, sine_report,
                     sndr_sfdr_enob, spectrum)
from pipeadc.config import MDAC_BETA, SHA_BETA, set_param
from pipeadc.stages import settle_value

from oracle import stepped

VREF = 0.6
NFFT = 4096


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = ideal_config()
    centers = -VREF + (np.arange(256) + 0.5) * 2.0 * VREF / 256.0
    rng = np.random.default_rng(12345)
    rand = rng.uniform(-VREF, VREF, 10000)
    # every decision threshold of the ideal chain sits on the vref/128 grid
    grid = VREF / 128.0
    dist = np.abs(rand / grid - np.round(rand / grid)) * grid
    rand = rand[dist > 1e-9 * VREF]
    inputs = np.concatenate([centers, rand, np.zeros(PIPELINE_LATENCY_SAMPLES)])
    codes = digitize(inputs, cfg).codes[PIPELINE_LATENCY_SAMPLES:]
    oracle = ideal_quantize(inputs[:-PIPELINE_LATENCY_SAMPLES], VREF)
    mismatches = int(np.sum(codes != oracle))
    elapsed = time.perf_counter() - t0
    _report(1, "ideal pipeline equals the 8-bit quantizer oracle",
            mismatches == 0 and elapsed < 5.0,
            f"{len(oracle)} inputs, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_2_ideal_dynamic_range():
    t0 = time.perf_counter()
    rep, _ = sine_report(ideal_config(), NFFT)
    elapsed = time.perf_counter() - t0
    ok = abs(rep.sndr_db - 49.9) <= 0.3 and abs(rep.enob - 8.00) <= 0.05 and elapsed < 5.0
    _report(2, "full-scale coherent sine through the ideal pipeline",
            ok, f"SNDR {rep.sndr_db:.2f} dB, ENOB {rep.enob:.3f}, {elapsed:.2f}s")


def test_criterion_3_solver_anchors():
    gain = min_dc_gain(0.5)
    gain_db = gain_to_db(gain)
    gbw = min_gbw(0.5, 0.387 / 166.6e6)
    ok = abs(gain_db - 66.2) <= 0.05 and abs(gbw - 950e6) <= 0.02 * 950e6
    _report(3, "minimum gain 66.2 dB and minimum GBW 950 MHz",
            ok, f"A0 {gain_db:.2f} dB ({gain:.0f}), GBW {gbw / 1e6:.1f} MHz")


# The silicon's measured ENOB at 10.4 MHz. Printed beside criterion 4 so the
# loss the model does not contain stays visible; it is not the bracket.
PAPER_ENOB = 7.33

# Criterion 4 holds the engine to the first-order error model below. The
# model drops the second-order error products, the comparator offsets and
# the flash offsets; over the 20 degraded seeds they shift the seed-mean ENOB
# by 0.0005 bit, so 0.01 bit bounds them with room to spare while a lost
# mismatch term (0.03 bit at the preset's sigmas) still fails.
FIRST_ORDER_TOL_BITS = 0.01


def _first_order_enob(config):
    """ENOB of a memoryless converter built from the documented residue law alone.

    Each slice scales its residue by its closed-loop settling factor
    g*(1 - e), with g = beta*a0/(1 + beta*a0) and e = exp(-2*pi*beta*gbw*t), at
    the feedback factor of the slice's role: SHA_BETA for the SHA, MDAC_BETA for a stage.
    Decisions are taken at the ideal +-vref/4 thresholds of the ideal chain,
    and stage k's error against the ideal residue 2u - d*vref is referred to
    the input with weight 2^-k. The sum, plus the SHA's own gain error, is
    quantized by the ideal 8-bit quantizer: the correction logic turns the
    chain into exactly that quantizer when the analog is ideal.
    """
    t = config.clock.settle_fraction / config.clock.fs
    vref = config.reference.vref

    def scale(ota, beta):
        g = beta * ota.a0 / (1.0 + beta * ota.a0)
        e = math.exp(-2.0 * math.pi * beta * ota.gbw * t)
        return g * (1.0 - e)

    f_in, signal_bin = coherent_frequency(config.clock.fs, NFFT, 10.417e6)
    v = generate(Waveform(kind="sine", length=NFFT, amplitude=VREF, frequency=f_in),
                 config.clock)
    v_eq = scale(config.sha.ota, SHA_BETA) * v
    u = v
    for k, st in enumerate(config.stages, start=1):
        a = scale(st.ota, MDAC_BETA)
        d = np.where(u > vref / 4.0, 1, np.where(u < -vref / 4.0, -1, 0))
        err = (2.0 * (a * (1.0 + st.gain_mismatch) - 1.0) * u
               - (a * (1.0 + st.dac_mismatch) - 1.0) * d * vref)
        v_eq = v_eq + err / 2.0 ** k
        u = 2.0 * u - d * vref
    stream = CodeStream(codes=ideal_quantize(v_eq, vref))
    return sndr_sfdr_enob(spectrum(stream, NFFT), signal_bin).enob


def test_criterion_4_enob_bracket():
    configs = [degraded_config(seed=seed) for seed in range(20)]
    enobs = [sine_report(cfg, NFFT)[0].enob for cfg in configs]
    mean = float(np.mean(enobs))
    predicted = float(np.mean([_first_order_enob(cfg) for cfg in configs]))
    ok = abs(mean - predicted) <= FIRST_ORDER_TOL_BITS
    _report(4, f"degraded preset, seed-averaged ENOB within {FIRST_ORDER_TOL_BITS} bit "
               "of the first-order error model",
            ok, f"mean {mean:.4f}, model {predicted:.4f}, min {min(enobs):.3f}, "
                f"max {max(enobs):.3f}; silicon {PAPER_ENOB}, gap {mean - PAPER_ENOB:+.3f} "
                "not modelled")


def test_criterion_5_linearity_brackets():
    t0 = time.perf_counter()
    max_dnl, max_inl = 0.0, 0.0
    for seed in range(20):
        rep = ramp_report(degraded_config(seed=seed), 2 ** 20)
        max_dnl = max(max_dnl, abs(rep.max_dnl[0]))
        max_inl = max(max_inl, abs(rep.max_inl[0]))
    ideal_rep = ramp_report(ideal_config(), 2 ** 20)
    ideal_dnl = abs(ideal_rep.max_dnl[0])
    ideal_inl = abs(ideal_rep.max_inl[0])
    elapsed = time.perf_counter() - t0
    ok = (0.05 <= max_dnl <= 0.6 and 0.1 <= max_inl <= 0.8
          and ideal_dnl < 0.02 and ideal_inl < 0.02 and elapsed < 60.0)
    _report(5, "degraded linearity in bracket, ideal flat",
            ok, f"maxDNL {max_dnl:.3f}, maxINL {max_inl:.3f}, "
                f"ideal {ideal_dnl:.4f}/{ideal_inl:.4f}, {elapsed:.1f}s")


def test_criterion_6_settling_analytics():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10000):
        a0 = 10.0 ** rng.uniform(0.5, 7)
        beta = rng.uniform(0.05, 1.0)
        gbw = 10.0 ** rng.uniform(6, 10)
        t = 10.0 ** rng.uniform(-12, -7)
        target = rng.uniform(-1.0, 1.0)
        got = settle_value(target, 0.0,
                           *settle_coefficients(OtaParams(a0=a0, gbw=gbw), beta, t))
        v_static = (beta * a0) / (1.0 + beta * a0) * target
        tau = 1.0 / (2.0 * math.pi * beta * gbw)
        want = v_static * (1.0 - math.exp(-t / tau))
        if want != 0.0:
            worst = max(worst, abs(got - want) / abs(want))
    # the degraded preset's amplifiers without its drawn mismatch
    rows = settle_report(set_param(set_param(default_config(), "ota.a0_db", 67.0),
                                   "ota.gbw", 950e6))
    errs = [r.error_pct for r in rows]
    monotone = all(b >= a for a, b in zip(errs, errs[1:]))
    ok = worst < 1e-9 and monotone
    _report(6, "settling law exact on a 10^4 grid, report errors monotone",
            ok, f"worst rel err {worst:.1e}, chain {errs[0]:.2f}% -> {errs[-1]:.2f}%")


def test_criterion_7_reset_phase():
    # the memory term scales with the residual exponential, so it is surfaced
    # at a bandwidth where settling is visibly incomplete (GBW 500 MHz)
    base = set_param(degraded_config(seed=0), "ota.gbw", 500e6)
    sndr_on = sine_report(base, NFFT)[0].sndr_db
    leaky = set_param(set_param(base, "clock.reset_enabled", False), "ota.k_mem", 0.05)
    sndr_off = sine_report(leaky, NFFT)[0].sndr_db

    clean = set_param(set_param(base, "clock.reset_enabled", False), "ota.k_mem", 0.0)
    wave = generate(Waveform(kind="sine", length=512, amplitude=VREF,
                             frequency=base.clock.fs / 16.0), base.clock)
    on_run = PipelineEngine(base).simulate(wave)
    off_run = stepped(clean, wave)
    identical = (np.array_equal(on_run.decisions, off_run.decisions)
                 and np.array_equal(on_run.flash, off_run.flash)
                 and np.array_equal(on_run.residues, off_run.residues))
    ok = sndr_off < sndr_on and identical
    _report(7, "amplifier memory strictly degrades SNDR; k_mem=0 is bit-identical",
            ok, f"SNDR on {sndr_on:.3f} dB vs off {sndr_off:.3f} dB, "
                f"k_mem=0 identical: {identical}")


def test_criterion_8_dft_oracle():
    from pipeadc import CodeStream
    worst = 0.0
    parseval_worst = 0.0
    for n_fft in (16, 64, 256, 1024):
        rng = np.random.default_rng(n_fft)
        n = np.arange(n_fft)
        codes = np.clip(np.round(128 + 90 * np.sin(2 * np.pi * 3 * n / n_fft)
                                 + rng.integers(-3, 4, size=n_fft)), 0, 255).astype(int)
        stream = CodeStream(codes=codes, warmup=0)
        got = spectrum(stream, n_fft)
        x = (codes - codes.mean()) / 128.0
        k = np.arange(n_fft // 2 + 1)
        dft = np.exp(-2j * np.pi * np.outer(k, n) / n_fft) @ x
        want = np.abs(dft) ** 2
        want[1:n_fft // 2] *= 2.0
        want /= n_fft ** 2
        scale = want.max()
        worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        parseval_worst = max(parseval_worst,
                             abs(got.sum() - np.mean(x ** 2)) / np.mean(x ** 2))
    ok = worst < 1e-9 and parseval_worst < 1e-9
    _report(8, "spectrum matches the direct O(N^2) DFT and Parseval",
            ok, f"worst bin err {worst:.1e}, Parseval err {parseval_worst:.1e}")


def test_criterion_9_redundancy_tolerance():
    cfg = ideal_config()
    v = np.linspace(-VREF, VREF, 2 ** 14)
    wave = np.concatenate([v, np.zeros(PIPELINE_LATENCY_SAMPLES)])
    base = digitize(wave, cfg).codes
    changed = 0
    for k in range(6):
        for fld in ("cmp_offset_hi", "cmp_offset_lo"):
            for sign in (1.0, -1.0):
                shifted = set_param(cfg, f"stages[{k}].{fld}", sign * VREF / 8.0)
                changed += int(np.sum(digitize(wave, shifted).codes != base))
    _report(9, "any single threshold off by vref/8 leaves all codes unchanged",
            changed == 0, f"{changed} code changes over 24 perturbations x 2^14 inputs")
