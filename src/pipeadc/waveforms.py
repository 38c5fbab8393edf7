"""Test stimuli: sine, ramp, pulse and DC waveform generation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ClockParams, FULL_SCALE_CODES

# each kind and the fields it reads
KINDS = {"sine": ("amplitude", "frequency"), "ramp": ("v_low", "v_high"),
         "pulse": ("v_low", "v_high"), "dc": ("amplitude",)}


@dataclass(frozen=True)
class Waveform:
    """Stimulus description.

    amplitude and frequency drive the sine (and amplitude the dc level);
    v_low/v_high are the edges of the ramp and pulse. length is the number of
    samples (>= 1). The fields a kind reads must be finite.
    """

    kind: str
    length: int
    amplitude: float = 0.0
    frequency: float = 0.0
    v_low: float = 0.0
    v_high: float = 0.0


def generate(w: Waveform, clock: ClockParams) -> np.ndarray:
    """Render the waveform at the configured sample rate.

    sine:  v[n] = A * sin(2*pi*f*n/fs), so the first sample is exactly 0.
    ramp:  linear from v_low - 1 LSB to v_high + 1 LSB inclusive, where the
           LSB is (v_high - v_low)/FULL_SCALE_CODES; the overshoot guarantees the end
           codes saturate during a code-density test.
    pulse: holds v_low for the first half, steps to v_high at the midpoint.
    dc:    constant at amplitude.
    """
    if w.kind not in KINDS:
        raise ValueError(f"unknown waveform kind: {w.kind!r}")
    if isinstance(w.length, bool) or not isinstance(w.length, (int, np.integer)) or w.length < 1:
        raise ValueError(f"length must be an integer >= 1, got {w.length!r}")
    for name in KINDS[w.kind]:
        if not math.isfinite(getattr(w, name)):
            raise ValueError(f"{name} must be finite, got {getattr(w, name)!r}")
    if w.kind == "sine":
        if w.frequency <= 0.0:
            raise ValueError("sine requires a positive frequency")
        return w.amplitude * np.sin(2.0 * np.pi * w.frequency * np.arange(w.length) / clock.fs)
    if w.kind == "ramp":
        if w.v_high <= w.v_low:
            raise ValueError("ramp requires v_high > v_low")
        lsb = (w.v_high - w.v_low) / FULL_SCALE_CODES
        lo = w.v_low - lsb
        hi = w.v_high + lsb
        if w.length == 1:
            return np.array([lo])
        # lo + (hi - lo) * n / (length - 1), formed in one buffer
        v = np.arange(w.length, dtype=np.float64)
        v *= hi - lo
        v /= w.length - 1
        v += lo
        return v
    if w.kind == "pulse":
        v = np.full(w.length, w.v_low, dtype=np.float64)
        v[w.length // 2:] = w.v_high
        return v
    return np.full(w.length, w.amplitude, dtype=np.float64)
