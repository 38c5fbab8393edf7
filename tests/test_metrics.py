import math

import numpy as np
import pytest

from pipeadc import (CodeStream, PIPELINE_LATENCY_SAMPLES, Waveform,
                     coherent_frequency, digitize, generate, ideal_config,
                     ramp_linearity, sndr_sfdr_enob, spectrum)

FS = 166.6e6


def synth_stream(codes, warmup=0):
    return CodeStream(codes=np.asarray(codes, dtype=np.int64), fs=FS, warmup=warmup)


def direct_dft_power(codes, n_fft):
    """O(N^2) oracle for the spectrum, replicating the documented normalization."""
    x = (codes[:n_fft] - codes[:n_fft].mean()) / 128.0
    n = np.arange(n_fft)
    power = np.empty(n_fft // 2 + 1)
    for k in range(n_fft // 2 + 1):
        bin_val = np.sum(x * np.exp(-2j * np.pi * k * n / n_fft))
        p = abs(bin_val) ** 2
        if 0 < k < n_fft // 2:
            p *= 2.0
        power[k] = p / n_fft ** 2
    return power


# --- linearity ---------------------------------------------------------------


def ideal_ramp_stream(n_samples, vref=0.6):
    cfg = ideal_config()
    wave = generate(Waveform(kind="ramp", length=n_samples + PIPELINE_LATENCY_SAMPLES,
                             v_low=-vref, v_high=vref), cfg.clock)
    return digitize(wave, cfg)


def test_ideal_ramp_linearity_is_flat():
    report = ramp_linearity(ideal_ramp_stream(2 ** 22))
    assert abs(report.max_dnl[0]) < 0.02
    assert abs(report.max_inl[0]) < 0.02
    assert not report.missing_codes


def test_dnl_normalization_properties():
    report = ramp_linearity(ideal_ramp_stream(2 ** 20))
    interior = report.dnl[1:255]
    assert np.all(interior >= -1.0)
    assert abs(interior.sum()) < 1e-9
    assert report.dnl[0] == 0.0 and report.dnl[255] == 0.0
    # endpoint-fit: INL pinned to zero at both interior ends
    assert report.inl[1] == pytest.approx(0.0, abs=1e-12)
    assert report.inl[254] == pytest.approx(0.0, abs=1e-12)
    # inl is the cumulative dnl minus the endpoint line; check against a
    # direct recomputation
    line = report.inl  # already corrected
    raw = np.cumsum(report.dnl)
    fit = raw[1] + (raw[254] - raw[1]) * (np.arange(256) - 1.0) / 253.0
    expect = raw - fit
    assert np.allclose(line[1:255], expect[1:255], atol=1e-12)


def test_all_identical_codes_rejected():
    with pytest.raises(ValueError, match="insufficient code coverage"):
        ramp_linearity(synth_stream(np.full(100000, 128)))


def test_too_few_samples_rejected():
    with pytest.raises(ValueError, match="insufficient code coverage"):
        ramp_linearity(ideal_ramp_stream(1000))


def test_missing_interior_code_flagged():
    # a healthy ramp with one code surgically removed
    stream = ideal_ramp_stream(2 ** 18)
    codes = stream.codes[stream.warmup:]
    codes = codes[codes != 77]
    report = ramp_linearity(synth_stream(codes))
    assert 77 in report.missing_codes
    assert report.dnl[77] == -1.0


def test_warmup_dropped():
    codes = ideal_ramp_stream(2 ** 18).codes
    poisoned = codes.copy()
    poisoned[:PIPELINE_LATENCY_SAMPLES] = 200  # garbage that must be ignored
    a = ramp_linearity(synth_stream(codes, warmup=PIPELINE_LATENCY_SAMPLES))
    b = ramp_linearity(synth_stream(poisoned, warmup=PIPELINE_LATENCY_SAMPLES))
    assert np.array_equal(a.dnl, b.dnl)


# --- spectrum ----------------------------------------------------------------


def test_pure_tone_has_single_bin():
    n_fft, m = 4096, 101
    n = np.arange(n_fft)
    codes = np.round(127.5 + 127.0 * np.sin(2 * np.pi * m * n / n_fft)).astype(int)
    data = spectrum(synth_stream(codes), n_fft)
    p = data.bin_power.copy()
    sig = p[m]
    p[m] = 0
    p[0] = 0
    # everything but the tone is quantization noise, 50 dB below
    assert sig > 0.4
    assert p.max() < sig * 1e-3


def test_dc_only_stream_is_all_zero():
    data = spectrum(synth_stream(np.full(1024, 200)), 1024)
    assert np.all(data.bin_power == 0.0)


@pytest.mark.parametrize("n_fft", [16, 64, 256, 1024])
def test_spectrum_matches_direct_dft(n_fft):
    rng = np.random.default_rng(n_fft)
    n = np.arange(n_fft * 2)
    codes = np.clip(np.round(128 + 100 * np.sin(2 * np.pi * 3 * n / n_fft)
                             + rng.integers(-2, 3, size=n_fft * 2)), 0, 255).astype(int)
    got = spectrum(synth_stream(codes), n_fft).bin_power
    want = direct_dft_power(codes, n_fft)
    scale = want.max()
    assert np.allclose(got, want, rtol=1e-9, atol=scale * 1e-15)


def test_parseval():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 256, size=2048)
    data = spectrum(synth_stream(codes), 2048)
    x = (codes - codes.mean()) / 128.0
    assert data.bin_power.sum() == pytest.approx(np.mean(x ** 2), rel=1e-9)


def test_time_reversal_preserves_bin_powers():
    rng = np.random.default_rng(6)
    codes = rng.integers(0, 256, size=512)
    a = spectrum(synth_stream(codes), 512).bin_power
    b = spectrum(synth_stream(codes[::-1]), 512).bin_power
    assert np.allclose(a, b, rtol=1e-9, atol=1e-18)


def test_stream_too_short_rejected():
    with pytest.raises(ValueError, match="stream too short"):
        spectrum(synth_stream(np.zeros(100, dtype=int)), 1024)
    with pytest.raises(ValueError, match="power of two"):
        spectrum(synth_stream(np.zeros(1000, dtype=int)), 1000)


# --- sndr / sfdr / enob -------------------------------------------------------


def test_enob_from_published_sndr():
    # 45.9 dB -> 7.33 bit
    assert (45.9 - 1.76) / 6.02 == pytest.approx(7.33, abs=0.005)
    n_fft, m = 4096, 101
    n = np.arange(n_fft)
    codes = np.round(127.5 + 127.0 * np.sin(2 * np.pi * m * n / n_fft)).astype(int)
    rep = sndr_sfdr_enob(spectrum(synth_stream(codes), n_fft), m)
    assert rep.enob == pytest.approx((rep.sndr_db - 1.76) / 6.02, abs=1e-12)


def test_enob_formula_anchor():
    assert (49.92 - 1.76) / 6.02 == pytest.approx(8.00, abs=0.002)


def test_degenerate_spectrum_caps_at_200db():
    n_fft, m = 256, 31
    power = np.zeros(n_fft // 2 + 1)
    power[m] = 1.0
    from pipeadc.metrics import SpectrumData
    data = SpectrumData(bin_power=power, freqs=np.arange(n_fft // 2 + 1) * FS / n_fft,
                        n_fft=n_fft, fs=FS)
    rep = sndr_sfdr_enob(data, m)
    assert rep.sndr_db == 200.0
    assert rep.sfdr_db == 200.0


def test_sndr_sfdr_leave_out_dc_and_one_bin_each_side_of_the_signal():
    # known answer: DC and bins m-1, m+1 are left out, bins m-2, m+2 count
    n_fft, m = 256, 31
    power = np.zeros(n_fft // 2 + 1)
    power[m] = 1.0
    power[0] = 10.0
    power[[m - 1, m + 1]] = 0.5
    power[[m - 2, m + 2]] = 1e-4
    power[90] = 1e-5
    from pipeadc.metrics import SpectrumData
    data = SpectrumData(bin_power=power, freqs=np.arange(n_fft // 2 + 1) * FS / n_fft,
                        n_fft=n_fft, fs=FS)
    rep = sndr_sfdr_enob(data, m)
    assert rep.sndr_db == pytest.approx(10.0 * math.log10(1.0 / 2.1e-4), rel=1e-12)
    assert rep.sfdr_db == pytest.approx(40.0, rel=1e-12)


def test_zero_signal_bin_rejected():
    data = spectrum(synth_stream(np.full(256, 10)), 256)
    with pytest.raises(ValueError, match="zero power"):
        sndr_sfdr_enob(data, 31)


def test_signal_bin_domain_checked():
    data = spectrum(synth_stream(np.arange(256) % 256), 256)
    for bad in (0, 128, 200):
        with pytest.raises(ValueError):
            sndr_sfdr_enob(data, bad)


def test_power_dbc_referenced_to_carrier():
    n_fft, m = 1024, 101
    n = np.arange(n_fft)
    codes = np.round(127.5 + 127.0 * np.sin(2 * np.pi * m * n / n_fft)).astype(int)
    rep = sndr_sfdr_enob(spectrum(synth_stream(codes), n_fft), m)
    assert rep.power_dbc[m] == pytest.approx(0.0, abs=1e-12)
    assert rep.power_dbc.max() == pytest.approx(0.0, abs=1e-12)


# --- coherent frequency --------------------------------------------------------


def test_coherent_frequency_published_tone():
    f_in, m = coherent_frequency(FS, 4096, 10.417e6)
    assert m == 257
    assert f_in == pytest.approx(257 * FS / 4096, rel=1e-15)
    assert f_in == pytest.approx(10.453e6, rel=1e-3)


def test_coherent_frequency_tie_takes_larger_odd():
    f_in, m = coherent_frequency(FS, 8, FS / 4.0)  # lands exactly on 2.0
    assert m == 3
    assert f_in == pytest.approx(3 * FS / 8, rel=1e-15)


def test_coherent_frequency_out_of_nyquist():
    with pytest.raises(ValueError):
        coherent_frequency(FS, 4096, FS / 2.0)
    with pytest.raises(ValueError):
        coherent_frequency(FS, 4096, 0.0)


@pytest.mark.parametrize("n_fft", [-4, 0, 1, 2, 3, 6, 1000])
def test_coherent_frequency_rejects_bad_n_fft(n_fft):
    with pytest.raises(ValueError, match="n_fft"):
        coherent_frequency(FS, n_fft, FS / 16.0)


def test_coherent_frequency_smallest_n_fft():
    # n_fft 4 is the smallest size with a bin strictly inside (0, n_fft/2)
    assert coherent_frequency(FS, 4, FS * 0.4) == (FS / 4, 1)


def test_coherent_frequency_stays_inside_nyquist():
    f_in, m = coherent_frequency(FS, 16, FS * 0.49)
    assert m % 2 == 1
    assert m < 8
    f_in2, m2 = coherent_frequency(FS, 4096, FS / 1e5)
    assert m2 == 1
