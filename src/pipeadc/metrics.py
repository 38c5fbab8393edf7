"""Evaluation metrics: histogram DNL/INL from a ramp, DFT-based SNDR/SFDR/ENOB from a sine.

Both tests mirror standard converter bench practice: a slow over-range ramp
feeds the code-density histogram, and a coherently sampled sine feeds an
unwindowed DFT. Warm-up codes are always dropped here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CodeStream, FULL_SCALE_CODES, MID_CODE

DB_CAP = 200.0
ENOB_SLOPE_DB = 6.02
ENOB_OFFSET_DB = 1.76
# least mean hits per interior code a ramp capture must give
MIN_HITS = 32.0

# bins left out of SNDR/SFDR on each side of the signal: the usual guard of
# an unwindowed DFT, so no near-carrier spread counts as noise
SIGNAL_GUARD_BINS = 1


@dataclass(frozen=True)
class LinearityReport:
    """Per-code DNL/INL in LSB plus the extrema.

    dnl and inl have one entry per code; the end codes, 0 and FULL_SCALE_CODES - 1,
    are excluded from the histogram average and pinned to zero. max_dnl/max_inl
    hold (signed value, code) at the largest magnitude over interior codes.
    missing_codes lists interior codes never hit (their DNL is exactly -1).
    """

    dnl: np.ndarray
    inl: np.ndarray
    max_dnl: tuple[float, int]
    max_inl: tuple[float, int]
    missing_codes: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumReport:
    """SNDR/SFDR/ENOB plus per-bin powers relative to the carrier, bin k at k*fs/n_fft."""

    power_dbc: np.ndarray
    signal_bin: int
    sndr_db: float
    sfdr_db: float
    enob: float


def ramp_linearity(stream: CodeStream) -> LinearityReport:
    """Code-density linearity from a ramp capture.

    DNL[k] = H[k]/H_avg - 1 over interior codes 1..254 with H_avg the mean
    interior count; INL is the running sum of DNL with the endpoint-fit line
    removed, so INL[1] = INL[254] = 0. The stimulus must give at least
    ``MIN_HITS`` samples per interior code on average, and the codes it hits
    must span at least half the range. Missing codes inside that span are a
    property of the converter under test and are flagged (DNL -1), however
    many there are.

    Counted by runs of equal codes, the histogram relies on codes coming in runs:
    a ramp's 2^20 codes make a few hundred, 0.3 ms against 3.5 for a plain bincount
    on a 2-core Xeon (2026-10). Run-less codes cost more: 12-15 ms against 1.7 per
    2^20 random codes, 5-6 against 2-3 with 0.7 LSB of noise; this model makes none.
    """
    codes = np.asarray(stream.codes)[stream.warmup:]
    if codes.size == 0:
        raise ValueError("insufficient code coverage: empty stream after warm-up")
    runs = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
    hist = np.bincount(codes[runs], weights=np.diff(runs, append=codes.size),
                       minlength=FULL_SCALE_CODES)[:FULL_SCALE_CODES]
    interior = hist[1:FULL_SCALE_CODES - 1]
    h_avg = float(interior.mean())
    hit = np.flatnonzero(hist)
    if h_avg < MIN_HITS or hit[-1] - hit[0] < FULL_SCALE_CODES // 2:
        raise ValueError(
            f"insufficient code coverage: {h_avg:.1f} hits per interior code, "
            f"codes {hit[0]}-{hit[-1]} hit")
    missing = tuple(int(k) for k in np.nonzero(interior == 0)[0] + 1)

    dnl = np.zeros(FULL_SCALE_CODES)
    dnl[1:FULL_SCALE_CODES - 1] = interior / h_avg - 1.0

    inl_raw = np.cumsum(dnl)
    k = np.arange(FULL_SCALE_CODES, dtype=np.float64)
    last = FULL_SCALE_CODES - 2
    line = inl_raw[1] + (inl_raw[last] - inl_raw[1]) * (k - 1.0) / (last - 1.0)
    inl = inl_raw - line
    inl[0] = 0.0
    inl[FULL_SCALE_CODES - 1] = 0.0

    di = int(np.argmax(np.abs(dnl[1:FULL_SCALE_CODES - 1]))) + 1
    ii = int(np.argmax(np.abs(inl[1:FULL_SCALE_CODES - 1]))) + 1
    return LinearityReport(dnl=dnl, inl=inl, max_dnl=(float(dnl[di]), di),
                           max_inl=(float(inl[ii]), ii), missing_codes=missing)


def spectrum(stream: CodeStream, n_fft: int) -> np.ndarray:
    """One-sided power spectrum of the first n_fft post-warm-up codes: n_fft/2 + 1 bin powers.

    Codes are mean-removed, scaled by 1/MID_CODE so a full-scale sine has unit
    amplitude, and transformed unwindowed. Bin k's power is
    |X_k|^2 * m_k / N^2 with m_k = 2 except at DC and Nyquist, which makes the
    total equal the mean square of the signal (Parseval).

    n_fft must be a power of two no longer than the usable stream. Callers
    snap the tone to a coherent bin (:func:`coherent_frequency`), so no
    window is needed (IEEE Std 1241-2010). The DFT is exact (checked against
    a direct O(N^2) sum in the tests).
    """
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two")
    codes = np.asarray(stream.codes)[stream.warmup:]
    if codes.size < n_fft:
        raise ValueError(f"stream too short: {codes.size} usable codes, need {n_fft}")
    x = (codes[:n_fft] - codes[:n_fft].mean()) / float(MID_CODE)
    spec = np.fft.rfft(x)
    power = np.abs(spec) ** 2
    power[1:n_fft // 2] *= 2.0
    power /= float(n_fft) ** 2
    return power


def sndr_sfdr_enob(power: np.ndarray, signal_bin: int) -> SpectrumReport:
    """Fold the bin powers of :func:`spectrum` into SNDR, SFDR and ENOB.

    SNDR is signal-bin power over the sum of every other bin, excluding DC
    and SIGNAL_GUARD_BINS bins on each side of the signal; SFDR is signal
    power over the single largest remaining bin; ENOB = (SNDR - 1.76)/6.02.
    Remaining bins with no power report the 200 dB cap; no remaining bin is
    an error.
    """
    nyquist = power.size - 1
    if not 0 < signal_bin < nyquist:
        raise ValueError(f"signal bin must lie strictly inside (0, {nyquist})")
    p_sig = float(power[signal_bin])
    if p_sig == 0.0:
        raise ValueError("signal bin has zero power")
    mask = np.ones(power.size, dtype=bool)
    mask[0] = False
    mask[signal_bin - SIGNAL_GUARD_BINS:signal_bin + SIGNAL_GUARD_BINS + 1] = False
    if not mask.any():
        raise ValueError(f"n_fft = {2 * nyquist} leaves no bin beside DC, the signal "
                         "and its guard bins")
    p_other = float(power[mask].sum())
    p_peak = float(power[mask].max())

    sndr = DB_CAP if p_other <= 0.0 else min(DB_CAP, 10.0 * math.log10(p_sig / p_other))
    sfdr = DB_CAP if p_peak <= 0.0 else min(DB_CAP, 10.0 * math.log10(p_sig / p_peak))
    enob = (sndr - ENOB_OFFSET_DB) / ENOB_SLOPE_DB

    floor = p_sig * 10.0 ** (-2.0 * DB_CAP / 10.0)
    dbc = 10.0 * np.log10(np.maximum(power, floor) / p_sig)
    return SpectrumReport(power_dbc=dbc, signal_bin=signal_bin,
                          sndr_db=sndr, sfdr_db=sfdr, enob=enob)


def coherent_frequency(fs: float, n_fft: int, f_target: float) -> tuple[float, int]:
    """Snap a target frequency to the nearest coherent odd bin.

    Returns (f_in, M) with f_in = M*fs/n_fft, where M is the odd integer
    closest to f_target*n_fft/fs within [1, n_fft/2); equidistant ties take
    the larger odd. n_fft must be a power of two >= 4, the smallest size with
    a bin strictly inside (0, n_fft/2); odd M is then coprime to n_fft, so
    every sample of the record lands on a distinct phase.
    """
    if n_fft < 4 or n_fft & (n_fft - 1):
        raise ValueError(f"n_fft must be a power of two >= 4, got {n_fft}")
    if not 0.0 < f_target < fs / 2.0:
        raise ValueError("target frequency must lie in (0, fs/2)")
    m_real = f_target * n_fft / fs
    lo = max(1, 2 * int((m_real - 1.0) // 2.0) + 1)
    hi = lo + 2
    m = hi if (hi - m_real) <= (m_real - lo) else lo
    top = n_fft // 2 - 1
    m = min(m, top if top % 2 else top - 1)
    return m * fs / n_fft, m
