import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pipeadc import (ConfigError, PIPELINE_LATENCY_SAMPLES, PipelineEngine, StageParams,
                     Waveform, default_config, degraded_config, digitize, flash2b, generate,
                     ideal_config, settle_report, settling_fit_config, sub_adc_decide, validate)
from pipeadc import engine, stages
from pipeadc.config import PRESETS, config_to_text, preset_config, set_param
from pipeadc.engine import MAX_SWEEPS
from pipeadc.stages import flash_thresholds, sub_adc_thresholds

from oracle import certify, stepped

VREF = 0.6


def assert_bit_identical(a, b):
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.flash, b.flash)
    assert np.array_equal(a.residues.view(np.int64), b.residues.view(np.int64))


def budget_limit_config():
    """The degraded preset's amplifiers (67 dB, 950 MHz) without its drawn mismatch."""
    return set_param(set_param(default_config(), "ota.a0_db", 67.0), "ota.gbw", 950e6)


def memory_config(seed=0, k_mem=0.5, gbw=500e6):
    cfg = set_param(degraded_config(seed=seed), "clock.reset_enabled", False)
    return set_param(set_param(cfg, "ota.gbw", gbw), "ota.k_mem", k_mem)

# published full-swing step response, settled millivolts per slice
STEP_TABLE_MV = {"SHA": 599.7, "Stage1": 599.2, "Stage2": 598.5, "Stage3": 596.3,
                 "Stage4": 593.9, "Stage5": 587.4, "Stage6": 575.6}


def test_constant_zero_stream():
    r = PipelineEngine(ideal_config()).simulate(np.zeros(32))
    settled = r.decisions[PIPELINE_LATENCY_SAMPLES:]
    assert np.all(settled == 0)
    # zero sits on the flash 0-threshold; the tie takes the lower cell
    assert np.all(r.flash[PIPELINE_LATENCY_SAMPLES:] == 1)


@pytest.mark.parametrize("waveform,shape", [(np.zeros(0), "(0,)"), (np.zeros((2, 3)), "(2, 3)"),
                                            (np.float64(0.1), "()")], ids=["empty", "2-d", "0-d"])
def test_empty_waveform_rejected(waveform, shape):
    with pytest.raises(ValueError, match=rf"empty 1-D array, got shape {re.escape(shape)}$"):
        PipelineEngine(ideal_config()).simulate(waveform)


@pytest.mark.parametrize("bad,index", [(float("nan"), 1), (float("inf"), 1), (-float("inf"), 3)])
def test_non_finite_input_rejected(bad, index):
    wave = np.zeros(12)
    wave[:4] = 0.1, 0.2, 0.3, 0.4
    wave[index] = bad
    wave[5] = float("nan")  # only the first bad index is named
    with pytest.raises(ValueError, match=f"non-finite input sample at index {index}"):
        digitize(wave, ideal_config())


def test_over_range_input_rejected():
    # 1e308 would overflow the first stage's 2u into inf and its residues into NaN
    wave = np.zeros(12)
    wave[:4] = 1e308, 1e308, -0.1, 0.0
    with pytest.raises(ValueError, match="input sample at index 0 is out of range"):
        PipelineEngine(ideal_config()).simulate(wave)
    wave = np.zeros(12)
    wave[3] = -1.000001e6 * VREF
    wave[5] = float("nan")  # only the first bad index is named
    with pytest.raises(ValueError, match="input sample at index 3 is out of range"):
        PipelineEngine(degraded_config(seed=1)).simulate(wave)
    # the limit itself is accepted and cannot overflow
    wave = np.array([1e6, -1e6, 0.0, 1e6, 0.3]) * VREF
    with np.errstate(over="raise", invalid="raise"):
        for cfg in (ideal_config(), degraded_config(seed=2)):
            assert_bit_identical(PipelineEngine(cfg).simulate(wave), stepped(cfg, wave))


def test_single_sample_run():
    r = PipelineEngine(ideal_config()).simulate(np.array([0.25]))
    assert len(r.flash) == 1


def test_determinism_bit_identical():
    cfg = degraded_config(seed=9)
    wave = np.sin(np.linspace(0, 40, 500)) * VREF
    a = PipelineEngine(cfg).simulate(wave)
    b = PipelineEngine(cfg).simulate(wave)
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.flash, b.flash)
    assert np.array_equal(a.residues, b.residues)


def test_vectorized_path_matches_stepped_path():
    # the batch fast path must be bit-identical to stepping the state machine
    cfg = degraded_config(seed=2)
    eng = PipelineEngine(cfg)
    wave = np.sin(np.linspace(0, 11, 300)) * 0.55
    fast = eng.simulate(wave)
    assert_bit_identical(fast, stepped(cfg, wave))
    assert (fast.sweeps, fast.stepped_samples) == (1, 0)


# checked by the certificate, so that shrinking a failure takes seconds, not
# the minutes it took when each shrink step reran the per-sample oracle
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(wave=arrays(np.float64, st.integers(1, 300), elements=st.floats(-0.7, 0.7)),
       k_mem=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=7, max_size=7),
       gbw=st.floats(100e6, 2e9),
       seed=st.integers(0, 2 ** 16),
       reset=st.booleans(),
       block=st.integers(1, 64),
       cap=st.integers(1, 8))
# stage 1 keeps memory, over blocks of two samples: the changes of the pair's
# second channel, not its first, say where the pair is still unconverged
@example(wave=np.array([0.5, 0.0, 0.5, 0.5]), k_mem=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
         gbw=100e6, seed=0, reset=False, block=2, cap=1)
def test_relaxation_matches_stepped_property(wave, k_mem, gbw, seed, reset, block, cap):
    # small blocks make short runs cross many block boundaries, and a small
    # sweep cap makes groups stall, so that ``_step`` finishes them
    cfg = set_param(memory_config(seed=seed, gbw=gbw), "clock.reset_enabled", reset)
    cfg = set_param(cfg, "sha.ota.k_mem", k_mem[0])
    for k in range(6):
        cfg = set_param(cfg, f"stages[{k}].ota.k_mem", k_mem[k + 1])
    eng = PipelineEngine(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "BLOCK_SAMPLES", block)
        mp.setattr(engine, "MAX_SWEEPS", cap)
        fast = eng.simulate(wave)
    certify(cfg, wave, fast)
    assert 1 <= fast.sweeps <= cap
    assert 0 <= fast.stepped_samples <= 4 * wave.size
    # a sweep reads the one before only through a group's first channel's memory
    if reset or not any(k_mem[ch] for ch in (0, 1, 3, 5)):
        assert (fast.sweeps, fast.stepped_samples) == (1, 0)


@pytest.mark.parametrize("cfg", [preset_config(name) for name in sorted(PRESETS)] + [
    memory_config(seed=0, k_mem=1.0, gbw=200e6),
    memory_config(seed=3, k_mem=0.5, gbw=1e6),
    set_param(memory_config(seed=3, k_mem=0.0), "stages[1].ota.k_mem", 0.7),
    set_param(memory_config(seed=1, k_mem=1.0), "clock.reset_enabled", True),
], ids=sorted(PRESETS) + ["200MHz", "1MHz", "second-channel", "reset"])
def test_certificate_agrees_with_stepped(cfg):
    # The two oracles agree: the literal sequential run solves every
    # per-sample equation, and so does the engine's result, bit-identical to it.
    wave = np.sin(np.linspace(0, 31, 3 * MAX_SWEEPS)) * 0.9 * VREF
    slow = stepped(cfg, wave)
    certify(cfg, wave, slow)
    fast = PipelineEngine(cfg).simulate(wave)
    certify(cfg, wave, fast)
    assert_bit_identical(fast, slow)


def test_certificate_rejects_one_ulp():
    # one ulp on any one residue, one decision or one flash code breaks an equation
    cfg = memory_config(seed=0, k_mem=1.0, gbw=200e6)
    wave = np.sin(np.linspace(0, 31, 500)) * 0.9 * VREF
    good = stepped(cfg, wave)
    for ch in range(7):
        residues = good.residues.copy()
        residues[321, ch] = np.nextafter(residues[321, ch], np.inf)
        with pytest.raises(AssertionError, match="fails at sample 32[12] of 500$"):
            certify(cfg, wave, dataclasses.replace(good, residues=residues))
    residues = good.residues.copy()
    residues[-1, 0] = np.nextafter(residues[-1, 0], -np.inf)
    with pytest.raises(AssertionError, match="^channel 0 residue fails at sample 499 of 500$"):
        certify(cfg, wave, dataclasses.replace(good, residues=residues))
    decisions = good.decisions.copy()
    decisions[40, 2] += 1 if decisions[40, 2] < 1 else -1
    with pytest.raises(AssertionError, match="^stage 3 decision fails at sample 40 of 500$"):
        certify(cfg, wave, dataclasses.replace(good, decisions=decisions))
    flash = good.flash.copy()
    flash[7] ^= 1
    with pytest.raises(AssertionError, match="^flash fails at sample 7 of 500$"):
        certify(cfg, wave, dataclasses.replace(good, flash=flash))


@pytest.mark.parametrize("gbw,kind", [(200e6, "sine"), (100e6, "sine"), (30e6, "sine"),
                                      (200e6, "ramp")])
def test_cap_binding_run_is_certified(gbw, kind):
    # 2^16 samples, too long for the per-sample oracle in a unit test: every
    # group hits the sweep cap in some block and ``_step`` finishes it
    n = 2 ** 16
    wave = (0.9 * VREF * np.sin(2 * np.pi * 1031 / n * np.arange(n) + 0.3) if kind == "sine"
            else np.linspace(-0.9 * VREF, 0.9 * VREF, n))
    cfg = memory_config(seed=0, k_mem=1.0, gbw=gbw)
    fast = PipelineEngine(cfg).simulate(wave)
    assert fast.sweeps == MAX_SWEEPS and fast.stepped_samples > n
    certify(cfg, wave, fast)


def test_long_memory_run_is_certified():
    # 2^20 samples, 64 blocks, at the memory-sweep workload's 500 MHz
    n = 2 ** 20
    wave = 0.95 * VREF * np.sin(2 * np.pi * 8191 / n * np.arange(n))
    cfg = memory_config(seed=5, k_mem=1.0, gbw=500e6)
    fast = PipelineEngine(cfg).simulate(wave)
    assert 1 < fast.sweeps < MAX_SWEEPS
    certify(cfg, wave, fast)


def test_runs_read_only_the_compiled_table():
    # A run reads the engine's per-channel table, never its config: with the
    # config gone, the sweeps and ``_step`` give the same bits as before.
    eng = PipelineEngine(memory_config(seed=0, k_mem=1.0, gbw=100e6))
    wave = 0.9 * VREF * np.sin(np.arange(20000) * 0.2)
    first = eng.simulate(wave)
    eng.config = None
    again = eng.simulate(wave)
    assert again.stepped_samples > 0
    assert (again.sweeps, again.stepped_samples) == (first.sweeps, first.stepped_samples)
    assert_bit_identical(again, first)


def test_relaxation_hits_sweep_cap_and_stays_exact():
    # At 1 MHz GBW the SHA keeps k_mem*exp(-2*pi*gbw*t_settle) ~ 0.985 of
    # its previous output per sample, so sweeps j and j+1 differ by about
    # 0.985**j of full scale and a bitwise fixed point needs thousands of
    # sweeps. A sweep finalizes at least one sample, so the run is made
    # longer than MAX_SWEEPS for the cap to bind. The stage groups stall as
    # well, and each is stepped on its own: stepped_samples sums over groups.
    eng = PipelineEngine(memory_config(seed=1, k_mem=1.0, gbw=1e6))
    wave = np.sin(np.linspace(0, 23, 3 * MAX_SWEEPS)) * VREF
    fast = eng.simulate(wave)
    assert fast.sweeps == MAX_SWEEPS
    assert wave.size < fast.stepped_samples < 4 * wave.size
    assert_bit_identical(fast, stepped(eng.config, wave))
    lean = eng.simulate(wave, record_residues=False)
    assert lean.residues is None
    assert np.array_equal(lean.decisions, fast.decisions)
    assert np.array_equal(lean.flash, fast.flash)


def test_sweep_cap_in_a_middle_block_stays_exact(monkeypatch):
    # Three blocks: zeros, whose residues stay exactly 0.0 so one sweep
    # converges; the 1 MHz sine of the test above, which hits the cap; and a
    # tail shorter than MAX_SWEEPS, which cannot (a sweep finalizes a sample).
    block = 3 * MAX_SWEEPS
    monkeypatch.setattr(engine, "BLOCK_SAMPLES", block)
    eng = PipelineEngine(memory_config(seed=1, k_mem=1.0, gbw=1e6))
    sine = np.sin(np.linspace(0, 23, block)) * VREF
    wave = np.concatenate([np.zeros(block), sine, sine[:MAX_SWEEPS // 2]])
    fast = eng.simulate(wave)
    assert fast.sweeps == MAX_SWEEPS
    # the zero block leaves the state a run starts from, so the middle block
    # run alone steps the same samples, and the other blocks step none
    alone = eng.simulate(sine)
    assert 0 < fast.stepped_samples == alone.stepped_samples < 4 * block
    assert_bit_identical(fast, stepped(eng.config, wave))
    lean = eng.simulate(wave, record_residues=False)
    assert np.array_equal(lean.decisions, fast.decisions)
    assert np.array_equal(lean.flash, fast.flash)


def test_sweep_cap_in_a_later_group_stays_exact():
    # A memoryless SHA converges at once, while at 1 MHz GBW the stages keep
    # about 0.985 of their last output, so each stage group hits the cap at
    # some sample and ``_step`` finishes it from there. Each group takes its
    # input from the one before it once that one is final, stepped or not.
    cfg = set_param(memory_config(seed=1, k_mem=1.0, gbw=1e6), "sha.ota.k_mem", 0.0)
    eng = PipelineEngine(cfg)
    wave = np.sin(np.linspace(0, 23, 3 * MAX_SWEEPS)) * VREF
    fast = eng.simulate(wave)
    assert fast.sweeps == MAX_SWEEPS
    assert wave.size < fast.stepped_samples < 3 * wave.size
    assert_bit_identical(fast, stepped(eng.config, wave))


def test_sweep_cap_in_an_early_group_leaves_later_groups_relaxing():
    # Only stages 1 and 2 are slow (1 MHz, k_mem 1.0), so group {1, 2} stalls
    # at some sample s and is stepped from there. Groups {3, 4} and {5, 6}
    # (500 MHz, k_mem 0.5) still converge by sweeps over the whole block,
    # past s, so fewer samples are stepped than the run holds.
    cfg = memory_config(seed=1, k_mem=0.5, gbw=500e6)
    for k in (0, 1):
        cfg = set_param(set_param(cfg, f"stages[{k}].ota.gbw", 1e6), f"stages[{k}].ota.k_mem", 1.0)
    eng = PipelineEngine(cfg)
    wave = np.sin(np.linspace(0, 23, 3 * MAX_SWEEPS)) * VREF
    fast = eng.simulate(wave)
    assert fast.sweeps == MAX_SWEEPS
    assert 0 < fast.stepped_samples < wave.size
    assert_bit_identical(fast, stepped(cfg, wave))


@pytest.mark.parametrize("reset", [False, True])
def test_relaxation_groups(reset):
    # The channels on one amplifier relax together, with memory or without:
    # the SHA has its own, stages (1,2), (3,4) and (5,6) share one each.
    cfg = set_param(memory_config(), "clock.reset_enabled", reset)
    assert [list(g) for g in PipelineEngine(cfg)._groups] == [[0], [1, 2], [3, 4], [5, 6]]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_memoryless_preset_takes_one_sweep_per_group(name, monkeypatch):
    # every preset resets its amplifiers, so each group's one sweep is final,
    # as it is with reset off when no amplifier keeps any of its output;
    # short blocks make the run cross block boundaries
    monkeypatch.setattr(engine, "BLOCK_SAMPLES", 64)
    wave = np.sin(np.linspace(0, 17, 300)) * VREF
    no_reset = set_param(set_param(preset_config(name), "clock.reset_enabled", False),
                         "ota.k_mem", 0.0)
    for cfg in (preset_config(name), no_reset):
        fast = PipelineEngine(cfg).simulate(wave)
        assert (fast.sweeps, fast.stepped_samples) == (1, 0)
        assert_bit_identical(fast, stepped(cfg, wave))


def assert_overflow_matches_stepped(memory_keys, monkeypatch):
    """Every stage gain at 2 * 1.49, 70 MHz amplifiers, k_mem 1.0 on memory_keys only.

    A 1.5 vref input then grows the residues until they overflow to inf and
    NaN. simulate must refuse the run, naming the sample where the stepped
    oracle first goes non-finite, and match the oracle bit for bit before it.
    Blocks of MAX_SWEEPS samples leave that sample to the sweeps of a late
    block; in one 16K block the groups hit the cap early and ``_step``
    computes it.
    """
    cfg = memory_config(seed=0, k_mem=0.0, gbw=70e6)
    for key in memory_keys:
        cfg = set_param(cfg, key, 1.0)
    for k in range(6):
        cfg = set_param(cfg, f"stages[{k}].gain_mismatch", 0.49)
    eng = PipelineEngine(cfg)
    wave = np.full(20000, 1.5 * VREF)
    with np.errstate(over="ignore", invalid="ignore"):
        slow = stepped(cfg, wave)
        bad = ~np.isfinite(slow.residues).all(axis=1)
        first = int(bad.argmax())
        assert 0 < first and bad[first:].all()
        for block in (MAX_SWEEPS, engine.BLOCK_SAMPLES):
            monkeypatch.setattr(engine, "BLOCK_SAMPLES", block)
            with pytest.raises(ValueError, match=f"non-finite residue at sample {first}$"):
                eng.simulate(wave)
    prefix = eng.simulate(wave[:first])
    assert np.isfinite(prefix.residues).all()
    assert np.array_equal(prefix.decisions, slow.decisions[:first])
    assert np.array_equal(prefix.flash, slow.flash[:first])
    assert np.array_equal(prefix.residues.view(np.int64), slow.residues[:first].view(np.int64))
    return first


def test_overflowing_memory_run_matches_stepped(monkeypatch):
    # every amplifier keeps its whole last output: overflow at sample 15873
    assert assert_overflow_matches_stepped(["ota.k_mem"], monkeypatch) == 15873


def test_overflow_past_a_memory_loop_matches_stepped(monkeypatch):
    # Only stages 1 and 2 keep memory. Their loop grows, and stage 6, which
    # keeps none, is the first to overflow, at sample 16307 while the loop is
    # still finite; the engine starts stage 6 from 0.0 where the oracle takes
    # 0.0 times its last output, which differs only once that is non-finite.
    keys = ["stages[0].ota.k_mem", "stages[1].ota.k_mem"]
    assert assert_overflow_matches_stepped(keys, monkeypatch) == 16307


def test_memory_run_converges_in_few_sweeps():
    eng = PipelineEngine(memory_config(seed=2, k_mem=0.5))
    wave = np.sin(np.linspace(0, 31, 2000)) * VREF
    fast = eng.simulate(wave)
    assert 1 < fast.sweeps < MAX_SWEEPS
    assert fast.stepped_samples == 0
    assert_bit_identical(fast, stepped(eng.config, wave))


def test_memory_on_a_second_channel_only_takes_one_sweep():
    # Stage 2 starts from 0.7 of stage 1's output in the same sample, but
    # stage 1, the first on their amplifier, keeps none of stage 2's: a sweep
    # reads nothing of the one before, so the first is exact.
    no_memory = memory_config(seed=3, k_mem=0.0)
    cfg = set_param(no_memory, "stages[1].ota.k_mem", 0.7)
    wave = np.sin(np.linspace(0, 31, 2000)) * VREF
    fast = PipelineEngine(cfg).simulate(wave)
    assert (fast.sweeps, fast.stepped_samples) == (1, 0)
    assert_bit_identical(fast, stepped(cfg, wave))
    memoryless = PipelineEngine(no_memory).simulate(wave)
    assert not np.array_equal(fast.residues[:, 2], memoryless.residues[:, 2])


def test_reset_clears_all_memory():
    # with reset on, later outputs cannot depend on earlier inputs
    cfg = set_param(default_config(), "ota.k_mem", 1.0)  # memory knob armed but reset wins
    tail = np.linspace(-0.5, 0.5, 40)
    a = PipelineEngine(cfg).simulate(np.concatenate([[0.59], tail]))
    b = PipelineEngine(cfg).simulate(np.concatenate([[-0.59], tail]))
    assert np.array_equal(a.residues[8:], b.residues[8:])


def test_memory_leaks_without_reset():
    cfg = set_param(set_param(default_config(), "clock.reset_enabled", False),
                    "ota.k_mem", 0.5)
    tail = np.linspace(-0.5, 0.5, 40)
    a = PipelineEngine(cfg).simulate(np.concatenate([[0.59], tail]))
    b = PipelineEngine(cfg).simulate(np.concatenate([[-0.59], tail]))
    assert not np.array_equal(a.residues[8:], b.residues[8:])


@pytest.mark.parametrize("key,value,named", [
    ("ota.gbw", 1e-300, "sha.ota.gbw"),
    ("stages[3].ota.gbw", 1e-300, "stages[3].ota.gbw"),
    ("clock.settle_fraction", 1e-300, "clock.settle_fraction / clock.fs"),
])
def test_an_amplifier_whose_settling_factor_rounds_to_one_is_rejected(key, value, named):
    cfg = validate(set_param(default_config(), key, value))  # each key is in its interval
    with pytest.raises(ConfigError, match=re.escape(named)):
        PipelineEngine(cfg)


def test_an_amplifier_that_settles_by_a_hair_is_accepted():
    # exp(-t_settle / tau) is 1 - 7.3e-12 here (1 - 1.5e-11 for the SHA): below 1, so accepted
    PipelineEngine(set_param(default_config(), "ota.gbw", 1e-3))


def test_kmem_zero_equals_reset_enabled_bitwise():
    base = degraded_config(seed=4)
    no_reset = set_param(set_param(base, "clock.reset_enabled", False), "ota.k_mem", 0.0)
    wave = np.sin(np.linspace(0, 9, 400)) * VREF
    a = PipelineEngine(base).simulate(wave)
    # force the sequential path so the equivalence is not just shared code
    b = stepped(no_reset, wave)
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.flash, b.flash)
    assert np.array_equal(a.residues, b.residues)


def _stepped_key(config, key, text):
    """config with key alone moved one valid step: a flipped bool, else +-(1 % + 0.01)."""
    if text in ("true", "false"):
        return set_param(config, key, text == "false")
    for value in (float(text) * 1.01 + 0.01, float(text) * 0.99 - 0.01):
        try:
            return validate(set_param(config, key, value))
        except ConfigError:
            pass
    raise AssertionError(f"no valid step for {key} = {text}")


def test_every_config_key_changes_the_conversion():
    # reset off, so every amplifier, stage and flash parameter reaches the bits;
    # a key that changes no residue, decision or flash bit is a knob the model never reads
    base = memory_config(seed=3)
    vref = base.reference.vref
    ramp = generate(Waveform(kind="ramp", length=2 ** 14 + 7, v_low=-vref, v_high=vref),
                    base.clock)

    def output(cfg):
        r = PipelineEngine(cfg).simulate(ramp)
        return r.residues.tobytes(), r.decisions.tobytes(), r.flash.tobytes()

    lines = [line.split(" = ") for line in config_to_text(base).splitlines()[1:]]
    assert len(lines) == 52
    reference = output(base)
    dead = [key for key, text in lines if output(_stepped_key(base, key, text)) == reference]
    assert dead == []


def test_latency_invariance():
    cfg = degraded_config(seed=1)
    wave = np.sin(np.linspace(0, 7, 256)) * 0.5
    k = 11
    delayed = np.concatenate([np.zeros(k), wave])
    a = digitize(wave, cfg).codes
    b = digitize(delayed, cfg).codes
    lat = PIPELINE_LATENCY_SAMPLES
    assert np.array_equal(b[lat + k:], a[lat:])


MAX_FLOAT = float(np.finfo(np.float64).max)


def probe_points(thresholds):
    """The floats nearest each threshold and their neighbours, float extremes, a dense grid."""
    pts = [0.0, -0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT, MAX_FLOAT / 2, -MAX_FLOAT / 2]
    for t in map(float, thresholds):
        if np.isfinite(t):
            pts += [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]
    return np.concatenate([pts, np.linspace(-2 * VREF, 2 * VREF, 20001)])


def assert_strict_threshold(x, t):
    """x is the smallest float above the real threshold t."""
    assert Fraction(x) > t >= Fraction(np.nextafter(x, -np.inf))


# Exact oracle: the comparator laws compare the input with the real sum
# threshold + offset, evaluated here in rational arithmetic.
@pytest.mark.parametrize("hi,lo,levels", [
    (0.0, 0.0, None),
    (VREF / 8, VREF / 8, None),
    (-VREF / 8, -VREF / 8, None),
    (VREF / 8, -VREF / 8, None),
    (-VREF / 8, VREF / 8, None),
    (-0.3 * VREF, 0.3 * VREF, None),  # crossing: the +1 threshold lies below the -1 one
    (-VREF / 4, VREF / 4, None),  # both thresholds at zero, flips a denormal step away
    (1e300, -1e300, None),  # neither level is reached by any input the engine accepts
    # the smallest floats reaching d >= 0 and d = +1 stay finite at offsets
    # near the float maximum
    (1e308, -1e308, (-1e308, float(np.nextafter(1e308, np.inf)))),
    (-1e308, 1e308, None),  # +1 from the most negative floats up
])
def test_stage_thresholds_match_sub_adc_decide(hi, lo, levels):
    q = Fraction(0.25 * VREF)
    t_hi, t_lo = q + Fraction(hi), Fraction(lo) - q
    thr_hi, thr_lo = sub_adc_thresholds(StageParams(cmp_offset_hi=hi, cmp_offset_lo=lo), VREF)
    assert_strict_threshold(thr_hi, t_hi)
    # lo is the smallest float at or above t_lo, unless crossing clamps it to hi
    assert ((thr_lo == thr_hi and Fraction(thr_hi) < t_lo)
            or Fraction(thr_lo) >= t_lo > Fraction(np.nextafter(thr_lo, -np.inf)))
    u = probe_points((t_hi, t_lo))
    want = [1 if Fraction(x) > t_hi else -1 if Fraction(x) < t_lo else 0 for x in u.tolist()]
    got = sub_adc_decide(u, thr_hi, thr_lo)
    assert got.dtype == np.int8
    assert got.tolist() == want
    assert [sub_adc_decide(x, thr_hi, thr_lo) for x in u.tolist()] == want
    if levels is not None:
        want = np.array(want)
        assert (u[want >= 0].min(), u[want == 1].min()) == levels


@pytest.mark.parametrize("offsets", [
    (0.0, 0.0, 0.0),
    (VREF / 8, -VREF / 8, VREF / 8),
    (0.45 * VREF, 0.0, -0.45 * VREF),  # the outer comparators cross
    (1e300, 0.0, -1e300),
    (1e308, -1e308, 0.0),  # one comparator trips only near the float maximum, one always
    (-1e308, 1e308, 1e-12),
])
def test_flash_thresholds_match_flash2b(offsets):
    thresholds = [Fraction(thr) + Fraction(off)
                  for thr, off in zip((-0.5 * VREF, 0.0, 0.5 * VREF), offsets)]
    derived = flash_thresholds(offsets, VREF)
    for x, t in zip(derived, thresholds):
        assert_strict_threshold(x, t)
    u = probe_points(thresholds)
    want = [sum(Fraction(x) > t for t in thresholds) for x in u.tolist()]
    got = flash2b(u, derived)
    assert got.dtype == np.int8
    assert got.tolist() == want
    assert [flash2b(x, derived) for x in u.tolist()] == want


def test_thresholds_derived_once_per_engine(monkeypatch):
    # 15 thresholds (hi and lo of six stages, three in the flash) come from
    # the config alone, so the engine derives each once, at construction,
    # however many samples its sweeps compare or ``_step`` steps.
    calls = []
    above = stages._above
    monkeypatch.setattr(stages, "_above", lambda *a: calls.append(a) or above(*a))
    eng = PipelineEngine(memory_config(seed=0, k_mem=1.0, gbw=100e6))
    assert len(calls) == 15
    result = eng.simulate(0.9 * VREF * np.sin(np.arange(20000) * 0.2))
    assert result.sweeps == MAX_SWEEPS and result.stepped_samples > 0
    assert len(calls) == 15


def test_full_swing_step_tracks_published_chain():
    # -600 mV -> +600 mV step with the fitted preset: SHA..Stage4 settled
    # values within 0.5 % of the published chain
    rows = settle_report(settling_fit_config())
    for row in rows[:5]:
        want = STEP_TABLE_MV[row.stage]
        assert row.simulated_mv == pytest.approx(want, rel=5e-3), row.stage


def test_settle_report_fitted_preset_anchors():
    rows = settle_report(settling_fit_config())
    by_name = {r.stage: r for r in rows}
    assert by_name["SHA"].error_pct == pytest.approx(0.05, abs=0.02)
    assert 1.0 < by_name["Stage6"].error_pct < 5.0


def test_settle_report_ideal_is_exact():
    cfg = set_param(set_param(ideal_config(), "ota.a0", float("inf")),
                    "ota.gbw", float("inf"))
    rows = settle_report(cfg)
    for row in rows:
        assert row.error_pct == 0.0


def test_settle_report_errors_monotone_down_the_chain():
    for cfg in (default_config(), budget_limit_config()):
        errs = [r.error_pct for r in settle_report(cfg)]
        assert all(b >= a for a, b in zip(errs, errs[1:]))


def test_settle_report_halved_gain_strictly_worse():
    base = budget_limit_config()
    a0 = base.stages[0].ota.a0
    worse = set_param(base, "ota.a0", a0 / 2.0)
    for r_base, r_worse in zip(settle_report(base), settle_report(worse)):
        assert r_worse.error_pct > r_base.error_pct


def test_record_residues_toggle():
    r = PipelineEngine(ideal_config()).simulate(np.zeros(10), record_residues=False)
    assert r.residues is None
    assert len(r.flash) == 10
