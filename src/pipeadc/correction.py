"""Redundant-sign-digit correction: align the stage decisions and sum them into 8-bit codes.

Each 1.5-bit stage contributes one signed digit with a one-bit overlap into
the next stage, so the final code is a weighted overlap-add:

    code = 128 + sum_i d_i * 2^(7-i) + (d_flash - 2),  clamped to [0, 255]

The constants follow from the mid-rise code mapping (an input of 0 sits on
the 127/128 boundary): with ideal analog the chain then agrees exactly with
:func:`ideal_quantize` for every input away from code edges, which is the
test that pins the offsets.
"""

from __future__ import annotations

import numpy as np

from .config import AdcConfig, CodeStream, N_STAGES
from .engine import PIPELINE_LATENCY_SAMPLES, PipelineEngine, SimulationResult

MID_CODE = 128
FLASH_MID = 2


def correct_stream(decisions: np.ndarray, flash: np.ndarray) -> CodeStream:
    """Vectorized correction of a raw decision stream.

    The pipeline emits stage k's decision for input sample m at step m + k and
    the flash decision at step m + 7, so the code assembled at step n combines
    d_k[n - (7 - k)] with flash[n]. Output length equals input length; the
    first PIPELINE_LATENCY_SAMPLES codes mix in the zero-initialized pipe and
    are flagged as warm-up.

    The codes are int16, which holds every partial sum of int8 decisions
    and flash exactly, in any layout (the engine's is column-major).
    """
    n = len(flash)
    acc = flash.astype(np.int16)
    acc += MID_CODE - FLASH_MID
    for k in range(1, N_STAGES + 1):
        shift = PIPELINE_LATENCY_SAMPLES - k
        if shift < n:
            acc[shift:] += decisions[:n - shift, k - 1] * np.int16(1 << (7 - k))
    codes = np.clip(acc, 0, 255, out=acc)
    return CodeStream(codes=codes, warmup=min(n, PIPELINE_LATENCY_SAMPLES))


def correct_result(result: SimulationResult) -> CodeStream:
    return correct_stream(result.decisions, result.flash)


def digitize(waveform, config: AdcConfig) -> CodeStream:
    """End-to-end conversion of a waveform into a corrected code stream."""
    result = PipelineEngine(config).simulate(waveform, record_residues=False)
    return correct_result(result)


def ideal_quantize(vin, vref: float):
    """Uniform mid-rise 8-bit quantizer over [-vref, +vref).

    code = floor((vin + vref) / (2*vref) * 256), clamped to [0, 255].
    Scalar in, int out; array in, int64 array out. This is the independent
    reference the corrected pipeline is checked against.
    """
    raw = np.floor((vin + vref) / (2.0 * vref) * 256.0)
    code = np.clip(raw, 0, 255)
    if np.isscalar(vin):
        return int(code)
    return code.astype(np.int64)
