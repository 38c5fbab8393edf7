"""Evaluation metrics: histogram DNL/INL from a ramp, DFT-based SNDR/SFDR/ENOB from a sine.

Both tests mirror standard converter bench practice: a slow over-range ramp
feeds the code-density histogram, and a coherently sampled sine feeds a
rectangular-window DFT. Warm-up codes are always dropped here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CodeStream, N_BITS

FULL_SCALE_CODES = 2 ** N_BITS
MID_CODE = FULL_SCALE_CODES // 2
DB_CAP = 200.0
ENOB_SLOPE_DB = 6.02
ENOB_OFFSET_DB = 1.76
# least mean hits per interior code a ramp capture must give
MIN_HITS = 32.0

# leakage bins excluded around the signal on top of the signal bin itself
_LEAK = {"rectangular": 1, "hann": 2}


@dataclass(frozen=True)
class LinearityReport:
    """Per-code DNL/INL in LSB plus the extrema.

    dnl and inl have one entry per code; the end codes (0 and 255) are
    excluded from the histogram average and pinned to zero. max_dnl/max_inl
    hold (signed value, code) at the largest magnitude over interior codes.
    missing_codes lists interior codes never hit (their DNL is exactly -1).
    """

    dnl: np.ndarray
    inl: np.ndarray
    max_dnl: tuple[float, int]
    max_inl: tuple[float, int]
    missing_codes: tuple[int, ...]
    hits_per_code: float


@dataclass(frozen=True)
class SpectrumData:
    """One-sided power spectrum of the normalized code stream.

    Codes are mean-removed, scaled by 1/128 so a full-scale sine has unit
    amplitude, multiplied by the window, and transformed. bin_power[k] is
    |X_k|^2 * m_k / N^2 with m_k = 2 except at DC and Nyquist, which makes the
    total equal the mean square of the windowed signal (Parseval).
    """

    bin_power: np.ndarray
    freqs: np.ndarray
    n_fft: int
    window: str
    fs: float


@dataclass(frozen=True)
class SpectrumReport:
    """SNDR/SFDR/ENOB plus per-bin powers relative to the carrier."""

    power_dbc: np.ndarray
    freqs: np.ndarray
    signal_bin: int
    signal_freq: float
    sndr_db: float
    sfdr_db: float
    enob: float
    window: str


def ramp_linearity(stream: CodeStream) -> LinearityReport:
    """Code-density linearity from a ramp capture.

    DNL[k] = H[k]/H_avg - 1 over interior codes 1..254 with H_avg the mean
    interior count; INL is the running sum of DNL with the endpoint-fit line
    removed, so INL[1] = INL[254] = 0. The stimulus must cover the range with
    at least ``MIN_HITS`` samples per interior code on average; individual
    missing codes are a property of the converter under test and are flagged
    rather than rejected, unless so many are missing that the stimulus
    clearly never spanned the range.
    """
    codes = np.asarray(stream.codes)[stream.warmup:]
    if codes.size == 0:
        raise ValueError("insufficient code coverage: empty stream after warm-up")
    hist = np.bincount(codes, minlength=FULL_SCALE_CODES)
    interior = hist[1:FULL_SCALE_CODES - 1].astype(np.float64)
    h_avg = float(interior.mean())
    missing = tuple(int(k) for k in np.nonzero(interior == 0)[0] + 1)
    if h_avg < MIN_HITS or len(missing) > interior.size // 10:
        raise ValueError(
            f"insufficient code coverage: {h_avg:.1f} hits per interior code, "
            f"{len(missing)} interior codes missing")

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
    return LinearityReport(dnl=dnl, inl=inl,
                           max_dnl=(float(dnl[di]), di),
                           max_inl=(float(inl[ii]), ii),
                           missing_codes=missing,
                           hits_per_code=h_avg)


def _window(name: str, n: int) -> np.ndarray:
    if name == "rectangular":
        return np.ones(n)
    if name == "hann":
        return np.hanning(n)
    raise ValueError(f"unknown window: {name!r} (use 'rectangular' or 'hann')")


def spectrum(stream: CodeStream, n_fft: int, window: str = "rectangular") -> SpectrumData:
    """One-sided power spectrum of the first n_fft post-warm-up codes.

    n_fft must be a power of two no longer than the usable stream. The
    transform itself is an exact DFT (verified against a direct O(N^2)
    evaluation in the tests); see :class:`SpectrumData` for the scaling.
    """
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ValueError("n_fft must be a power of two")
    codes = np.asarray(stream.codes)[stream.warmup:]
    if codes.size < n_fft:
        raise ValueError(f"stream too short: {codes.size} usable codes, need {n_fft}")
    x = (codes[:n_fft] - codes[:n_fft].mean()) / float(MID_CODE)
    w = _window(window, n_fft)
    spec = np.fft.rfft(x * w)
    power = np.abs(spec) ** 2
    power[1:n_fft // 2] *= 2.0
    power /= float(n_fft) ** 2
    freqs = np.arange(n_fft // 2 + 1) * (stream.fs / n_fft)
    return SpectrumData(bin_power=power, freqs=freqs, n_fft=n_fft,
                        window=window, fs=stream.fs)


def sndr_sfdr_enob(data: SpectrumData, signal_bin: int) -> SpectrumReport:
    """Fold the spectrum into SNDR, SFDR and ENOB.

    SNDR is signal-bin power over the sum of every other bin, excluding DC
    and the window leakage neighbors of the signal (+-1 bin rectangular,
    +-2 hann); SFDR is signal power over the single largest remaining bin;
    ENOB = (SNDR - 1.76)/6.02. A spectrum with no residual power reports the
    200 dB cap.
    """
    p = data.bin_power
    nyquist = data.n_fft // 2
    if not 0 < signal_bin < nyquist:
        raise ValueError(f"signal bin must lie strictly inside (0, {nyquist})")
    p_sig = float(p[signal_bin])
    if p_sig == 0.0:
        raise ValueError("signal bin has zero power")
    leak = _LEAK[data.window]
    mask = np.ones(p.size, dtype=bool)
    mask[0] = False
    mask[max(0, signal_bin - leak):signal_bin + leak + 1] = False
    p_other = float(p[mask].sum())
    p_peak = float(p[mask].max()) if mask.any() else 0.0

    sndr = DB_CAP if p_other <= 0.0 else min(DB_CAP, 10.0 * math.log10(p_sig / p_other))
    sfdr = DB_CAP if p_peak <= 0.0 else min(DB_CAP, 10.0 * math.log10(p_sig / p_peak))
    enob = (sndr - ENOB_OFFSET_DB) / ENOB_SLOPE_DB

    floor = p_sig * 10.0 ** (-2.0 * DB_CAP / 10.0)
    dbc = 10.0 * np.log10(np.maximum(p, floor) / p_sig)
    return SpectrumReport(power_dbc=dbc, freqs=data.freqs, signal_bin=signal_bin,
                          signal_freq=float(data.freqs[signal_bin]),
                          sndr_db=sndr, sfdr_db=sfdr, enob=enob, window=data.window)


def coherent_frequency(fs: float, n_fft: int, f_target: float) -> tuple[float, int]:
    """Snap a target frequency to the nearest coherent odd bin.

    Returns (f_in, M) with f_in = M*fs/n_fft, where M is the odd integer
    coprime to n_fft closest to f_target*n_fft/fs; equidistant ties take the
    larger odd. Odd M guarantees coprimality for the power-of-two n_fft used
    here, so every sample of the record lands on a distinct phase.
    """
    if not 0.0 < f_target < fs / 2.0:
        raise ValueError("target frequency must lie in (0, fs/2)")
    m_real = f_target * n_fft / fs
    lo = 2 * int((m_real - 1.0) // 2.0) + 1
    lo = max(1, lo)
    hi = lo + 2
    m = hi if (hi - m_real) <= (m_real - lo) else lo
    top = n_fft // 2 - 1
    m = min(m, top if top % 2 else top - 1)
    m = max(1, m)
    while math.gcd(m, n_fft) != 1:
        m -= 2
        if m < 1:
            raise ValueError("no coherent bin available")
    return m * fs / n_fft, m
