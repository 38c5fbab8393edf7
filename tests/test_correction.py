from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pipeadc import (PIPELINE_LATENCY_SAMPLES, PipelineEngine, correct_stream, digitize,
                     ideal_config, ideal_quantize)
from pipeadc.config import set_param

VREF = 0.6
N_STAGES = 6


@dataclass(frozen=True)
class CorrectionInput:
    """Time-aligned decisions for one input sample: six ternary digits plus the flash code."""

    d: tuple[int, ...]
    d_flash: int


def align_and_correct(c: CorrectionInput) -> int:
    """Scalar reference for correct_stream: one sample's redundant decisions to a code."""
    if len(c.d) != N_STAGES:
        raise ValueError(f"expected {N_STAGES} stage decisions, got {len(c.d)}")
    acc = 128 + (int(c.d_flash) - 2)
    if not 0 <= c.d_flash <= 3:
        raise ValueError(f"d_flash must be in 0..3, got {c.d_flash}")
    for i, d in enumerate(c.d, start=1):
        if d not in (-1, 0, 1):
            raise ValueError(f"stage decision must be -1, 0 or +1, got {d}")
        acc += d * (1 << (7 - i))
    return min(255, max(0, acc))


def test_midscale_code():
    assert align_and_correct(CorrectionInput(d=(0,) * 6, d_flash=2)) == 128


def test_full_scale_codes_clamp():
    assert align_and_correct(CorrectionInput(d=(1,) * 6, d_flash=3)) == 255
    assert align_and_correct(CorrectionInput(d=(-1,) * 6, d_flash=0)) == 0


def test_weighted_sum_example():
    # hand-traced 0.3*vref pattern: d = (+1,-1,0,+1,0,-1), flash cell 2
    c = CorrectionInput(d=(1, -1, 0, 1, 0, -1), d_flash=2)
    assert align_and_correct(c) == 128 + 64 - 32 + 8 - 2


def test_out_of_domain_rejected():
    with pytest.raises(ValueError):
        align_and_correct(CorrectionInput(d=(2, 0, 0, 0, 0, 0), d_flash=2))
    with pytest.raises(ValueError):
        align_and_correct(CorrectionInput(d=(0,) * 6, d_flash=4))
    with pytest.raises(ValueError):
        align_and_correct(CorrectionInput(d=(0,) * 5, d_flash=2))


def test_pure_function():
    c = CorrectionInput(d=(1, 0, -1, 0, 1, 0), d_flash=1)
    assert align_and_correct(c) == align_and_correct(c)


def test_ideal_quantize_examples():
    assert ideal_quantize(-VREF, VREF) == 0
    assert ideal_quantize(0.0, VREF) == 128
    assert ideal_quantize(VREF - 1e-9, VREF) == 255
    assert ideal_quantize(VREF, VREF) == 255  # clamp at the top rail


def test_ideal_quantize_array_form():
    v = np.array([-VREF, 0.0, VREF / 2.0])
    assert list(ideal_quantize(v, VREF)) == [0, 128, 192]


def test_stream_alignment_against_scalar_correction():
    # feed one non-trivial sample through the ideal pipe and reassemble by hand
    cfg = ideal_config()
    vin = 0.3 * VREF
    wave = np.concatenate([[vin], np.zeros(PIPELINE_LATENCY_SAMPLES)])
    result = PipelineEngine(cfg).simulate(wave)
    stream = correct_stream(result.decisions, result.flash)
    n = PIPELINE_LATENCY_SAMPLES
    manual = align_and_correct(CorrectionInput(
        d=tuple(int(result.decisions[n - 6 + k, k]) for k in range(6)),
        d_flash=int(result.flash[n])))
    assert stream.codes[n] == manual == ideal_quantize(vin, VREF)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(v=arrays(np.float64, st.integers(2, 2000), elements=st.floats(-VREF, VREF)))
@example(v=np.linspace(-VREF, VREF, 2 ** 16))  # dense sweep over every code
def test_monotonic_transfer_function(v):
    # code is nondecreasing in the input
    v = np.sort(v)
    wave = np.concatenate([v, np.zeros(PIPELINE_LATENCY_SAMPLES)])
    codes = digitize(wave, ideal_config()).codes[PIPELINE_LATENCY_SAMPLES:]
    assert np.all(np.diff(codes) >= 0)


SHIFT_WAVE = np.concatenate([np.linspace(-VREF, VREF, 8192), np.zeros(PIPELINE_LATENCY_SAMPLES)])
SHIFT_BASE = digitize(SHIFT_WAVE, ideal_config()).codes


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(stage=st.integers(0, 5), comparator=st.sampled_from(["hi", "lo"]),
       offset=st.floats(-VREF / 8, VREF / 8))
@example(stage=2, comparator="hi", offset=VREF / 8)
def test_single_threshold_shift_absorbed(stage, comparator, offset):
    # any one stage comparator off by up to vref/8 must not change a single
    # output code; the flash has no redundancy, so its thresholds are not drawn
    shifted = set_param(ideal_config(), f"stages[{stage}].cmp_offset_{comparator}", offset)
    assert np.array_equal(digitize(SHIFT_WAVE, shifted).codes, SHIFT_BASE)


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(decisions=arrays(np.int8, st.tuples(st.integers(1, 40), st.just(N_STAGES)),
                        elements=st.integers(-1, 1)),
       data=st.data())
def test_correct_stream_matches_scalar_oracle(decisions, data):
    # every code, warm-up included, is the scalar correction of the decisions
    # that entered the pipe 7 - k steps earlier (zero before the first sample)
    n = len(decisions)
    flash = data.draw(arrays(np.int8, n, elements=st.integers(0, 3)))
    stream = correct_stream(decisions, flash)
    assert stream.codes.dtype == np.int16
    for i in range(n):
        d = tuple(int(decisions[i - 7 + k, k - 1]) if i - 7 + k >= 0 else 0
                  for k in range(1, N_STAGES + 1))
        assert stream.codes[i] == align_and_correct(CorrectionInput(d=d, d_flash=int(flash[i])))
    # the engine's layout: each stage's digits contiguous
    engine_layout = correct_stream(np.asfortranarray(decisions), flash).codes
    assert engine_layout.dtype == np.int16
    assert np.array_equal(engine_layout, stream.codes)
    # any int8 digits, in range or not, give the clipped exact int64 sum
    wide = data.draw(arrays(np.int8, decisions.shape, elements=st.integers(-128, 127)))
    wide_flash = data.draw(arrays(np.int8, n, elements=st.integers(-128, 127)))
    wide_codes = correct_stream(wide, wide_flash).codes
    assert np.array_equal(wide_codes, int64_correction(wide, wide_flash))
    assert np.array_equal(correct_stream(np.asfortranarray(wide), wide_flash).codes,
                          wide_codes)


def int64_correction(decisions, flash):
    """The weighted sum in int64, clipped: the exact form of correct_stream for any int8 input."""
    n = len(flash)
    acc = np.full(n, 126, dtype=np.int64) + flash.astype(np.int64)
    for k in range(1, N_STAGES + 1):
        shift = PIPELINE_LATENCY_SAMPLES - k
        if shift < n:
            acc[shift:] += (1 << (7 - k)) * decisions[:n - shift, k - 1].astype(np.int64)
    return np.clip(acc, 0, 255)


@pytest.mark.parametrize("digit,rail", [(127, 255), (-128, 0)])
def test_sums_past_the_rails_clip_to_them(digit, rail):
    # in-range digits never pass code 255 or 0; these do once every stage's digit is summed
    decisions = np.full((12, N_STAGES), digit, dtype=np.int8)
    flash = np.full(12, digit, dtype=np.int8)
    codes = correct_stream(decisions, flash).codes
    assert np.array_equal(codes, int64_correction(decisions, flash))
    assert np.all(codes[PIPELINE_LATENCY_SAMPLES - 1:] == rail)


def test_code_stream_metadata():
    cfg = ideal_config()
    stream = digitize(np.zeros(20), cfg)
    assert stream.warmup == PIPELINE_LATENCY_SAMPLES
    assert stream.codes.min() >= 0 and stream.codes.max() <= 255
