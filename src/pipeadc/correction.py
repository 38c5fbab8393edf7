"""Redundant-sign-digit correction: shift-and-add the aligned stage decisions into codes.

Each 1.5-bit stage gives one signed digit d_k with a one-bit overlap into the
next, so a code is the digits read as one binary number (Horner) plus the flash:

    acc = 2*acc + d_k for k = 1..N_STAGES, from acc = 0
    code = 2*acc + d_flash + MID_CODE - FLASH_MID, clipped to [0, FULL_SCALE_CODES - 1]

The offsets follow from the mid-rise code mapping (an input of 0 sits on the
MID_CODE - 1 / MID_CODE edge): with ideal analog the chain then agrees exactly
with :func:`ideal_quantize` away from code edges, which is the test that pins them.
"""

from __future__ import annotations

import numpy as np

from .config import AdcConfig, CodeStream, FULL_SCALE_CODES, MID_CODE, N_FLASH_THRESHOLDS, N_STAGES
from .engine import PIPELINE_LATENCY_SAMPLES, PipelineEngine, SimulationResult

FLASH_MID = (N_FLASH_THRESHOLDS + 1) // 2


def correct_stream(decisions: np.ndarray, flash: np.ndarray) -> CodeStream:
    """Vectorized correction of a raw decision stream.

    The pipeline emits stage k's decision for input sample m at step m + k and
    the flash decision at step m + 7, so the code assembled at step n combines
    d_k[n - (7 - k)] with flash[n]. Output length equals input length; the
    first PIPELINE_LATENCY_SAMPLES codes mix in the zero-initialized pipe and
    are flagged as warm-up. The int16 accumulator holds every partial sum of
    int8 decisions and flash exactly, in any layout (the engine's is column-major).
    """
    n = len(flash)
    acc = np.zeros(n, dtype=np.int16)
    for k in range(1, N_STAGES + 1):
        acc *= 2
        shift = PIPELINE_LATENCY_SAMPLES - k
        if shift < n:
            acc[shift:] += decisions[:n - shift, k - 1]
    acc *= 2
    acc += flash
    acc += MID_CODE - FLASH_MID
    codes = np.clip(acc, 0, FULL_SCALE_CODES - 1, out=acc)
    return CodeStream(codes=codes, warmup=min(n, PIPELINE_LATENCY_SAMPLES))


def correct_result(result: SimulationResult) -> CodeStream:
    return correct_stream(result.decisions, result.flash)


def digitize(waveform, config: AdcConfig) -> CodeStream:
    """End-to-end conversion of a waveform into a corrected code stream."""
    result = PipelineEngine(config).simulate(waveform, record_residues=False)
    return correct_result(result)


def ideal_quantize(vin, vref: float):
    """Uniform mid-rise N_BITS-bit quantizer over [-vref, +vref).

    code = floor((vin + vref) / (2*vref) * FULL_SCALE_CODES), clamped to
    [0, FULL_SCALE_CODES - 1]. Scalar in, int out; array in, int64 array out.
    This is the independent reference the corrected pipeline is checked against.
    """
    raw = np.floor((vin + vref) / (2.0 * vref) * FULL_SCALE_CODES)
    code = np.clip(raw, 0, FULL_SCALE_CODES - 1)
    if np.isscalar(vin):
        return int(code)
    return code.astype(np.int64)
