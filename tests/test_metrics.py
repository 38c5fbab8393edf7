import math

import numpy as np
import pytest

from pipeadc import (CodeStream, PIPELINE_LATENCY_SAMPLES, Waveform,
                     coherent_frequency, degraded_config, digitize, generate, ideal_config,
                     ramp_linearity, sndr_sfdr_enob, spectrum)
from pipeadc.metrics import MIN_N_FFT

FS = 166.6e6


def synth_stream(codes, warmup=0):
    return CodeStream(codes=np.asarray(codes, dtype=np.int64), warmup=warmup)


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


def test_ramp_linearity_rejects_a_stream_that_is_all_warm_up():
    with pytest.raises(ValueError, match="empty stream after warm-up"):
        ramp_linearity(synth_stream(np.arange(7), warmup=7))


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


def _histogram_stream(counts):
    """A stream whose code k occurs counts[k] times."""
    return synth_stream(np.repeat(np.arange(len(counts)), counts))


def test_known_answer_linearity_pins_both_end_codes():
    # interior codes take 40 hits each except 60 at code 1 and 20 at code 2,
    # so H_avg = 40, DNL[1] = +0.5, DNL[2] = -0.5, and the raw INL is 0.5 at
    # code 1 and 0 from code 2 on; the endpoint line runs from 0.5 at code 1
    # to 0 at code 254, and would put code 0 at -(0.5 + 0.5/253) unpinned
    counts = np.full(256, 40)
    counts[[0, 255]] = 5
    counts[1], counts[2] = 60, 20
    report = ramp_linearity(_histogram_stream(counts))
    assert report.max_dnl == (0.5, 1)
    assert report.dnl[2] == -0.5 and not report.dnl[3:255].any()
    k = np.arange(2, 255)
    assert np.allclose(report.inl[2:255], -0.5 + 0.5 * (k - 1.0) / 253.0, rtol=0, atol=1e-15)
    assert report.inl[0] == 0.0 and report.inl[255] == 0.0
    assert report.max_inl[1] == 2 and report.missing_codes == ()


@pytest.mark.parametrize("interior_hits,accepted", [(32, True), (31, False)])
def test_min_hits_edge(interior_hits, accepted):
    # exactly MIN_HITS (32) hits per interior code on average is enough
    counts = np.full(256, interior_hits)
    if accepted:
        assert not ramp_linearity(_histogram_stream(counts)).missing_codes
    else:
        with pytest.raises(ValueError, match="^insufficient code coverage: 31.0 hits"):
            ramp_linearity(_histogram_stream(counts))


@pytest.mark.parametrize("top,accepted", [(128, True), (127, False)])
def test_coverage_span_edge(top, accepted):
    # codes 0..top hit, 70 times each: at least 32 hits per interior code on
    # average, so only the span decides; a span of exactly half the range is enough
    counts = np.zeros(256, dtype=np.int64)
    counts[:top + 1] = 70
    if accepted:
        report = ramp_linearity(_histogram_stream(counts))
        assert report.missing_codes == tuple(range(top + 1, 255))
    else:
        with pytest.raises(ValueError, match=f"codes 0-{top} hit$"):
            ramp_linearity(_histogram_stream(counts))


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


def bincount_linearity(codes):
    """The documented DNL/INL, extrema and missing codes from a plain bincount histogram."""
    hist = np.bincount(codes, minlength=256).astype(np.float64)
    dnl = np.zeros(256)
    dnl[1:255] = hist[1:255] / hist[1:255].mean() - 1.0
    raw = np.cumsum(dnl)
    inl = raw - (raw[1] + (raw[254] - raw[1]) * (np.arange(256) - 1.0) / 253.0)
    inl[[0, 255]] = 0.0
    di = int(np.argmax(np.abs(dnl[1:255]))) + 1
    ii = int(np.argmax(np.abs(inl[1:255]))) + 1
    missing = tuple(int(k) for k in np.flatnonzero(hist[1:255] == 0) + 1)
    return dnl, inl, (dnl[di], di), (inl[ii], ii), missing


def _long_run_codes():
    # an ideal ramp: a few hundred runs, each one code up from the last
    stream = ideal_ramp_stream(2 ** 18)
    codes = stream.codes[stream.warmup:]
    assert np.count_nonzero(np.diff(codes)) < 300 and (np.diff(codes) >= 0).all()
    return codes


def _runless_codes():
    # random codes with every repeat of a neighbour dropped: every run is one code long
    codes = np.random.default_rng(7).integers(0, 256, 256 * 64)
    codes = codes[np.r_[True, codes[1:] != codes[:-1]]]
    assert np.bincount(codes, minlength=256).min() >= 32
    return codes


def _stepping_down_codes():
    # degraded seed 5's ramp steps back down a code more than a hundred times
    cfg = degraded_config(seed=5)
    wave = generate(Waveform(kind="ramp", length=2 ** 16, v_low=-0.6, v_high=0.6), cfg.clock)
    stream = digitize(wave, cfg)
    codes = stream.codes[stream.warmup:]
    assert (np.diff(codes) < 0).sum() > 100
    return codes


@pytest.mark.parametrize("make_codes", [_long_run_codes, _runless_codes, _stepping_down_codes])
def test_run_count_matches_bincount(make_codes):
    codes = make_codes()
    dnl, inl, max_dnl, max_inl, missing = bincount_linearity(codes)
    report = ramp_linearity(CodeStream(codes=codes))
    assert np.array_equal(report.dnl, dnl)
    assert np.allclose(report.inl, inl, rtol=0, atol=1e-12)
    assert report.max_dnl == max_dnl
    assert report.max_inl[1] == max_inl[1]
    assert report.max_inl[0] == pytest.approx(max_inl[0], rel=0, abs=1e-12)
    assert report.missing_codes == missing


# --- spectrum ----------------------------------------------------------------


def test_pure_tone_has_single_bin():
    n_fft, m = 4096, 101
    n = np.arange(n_fft)
    codes = np.round(127.5 + 127.0 * np.sin(2 * np.pi * m * n / n_fft)).astype(int)
    p = spectrum(synth_stream(codes), n_fft)
    sig = p[m]
    p[m] = 0
    p[0] = 0
    # everything but the tone is quantization noise, 50 dB below
    assert sig > 0.4
    assert p.max() < sig * 1e-3


def test_dc_only_stream_is_all_zero():
    assert np.all(spectrum(synth_stream(np.full(1024, 200)), 1024) == 0.0)


@pytest.mark.parametrize("n_fft", [16, 64, 256, 1024])
def test_spectrum_matches_direct_dft(n_fft):
    rng = np.random.default_rng(n_fft)
    n = np.arange(n_fft * 2)
    codes = np.clip(np.round(128 + 100 * np.sin(2 * np.pi * 3 * n / n_fft)
                             + rng.integers(-2, 3, size=n_fft * 2)), 0, 255).astype(int)
    got = spectrum(synth_stream(codes), n_fft)
    want = direct_dft_power(codes, n_fft)
    scale = want.max()
    assert np.allclose(got, want, rtol=1e-9, atol=scale * 1e-15)


def test_parseval():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 256, size=2048)
    power = spectrum(synth_stream(codes), 2048)
    x = (codes - codes.mean()) / 128.0
    assert power.sum() == pytest.approx(np.mean(x ** 2), rel=1e-9)


def test_time_reversal_preserves_bin_powers():
    rng = np.random.default_rng(6)
    codes = rng.integers(0, 256, size=512)
    a = spectrum(synth_stream(codes), 512)
    b = spectrum(synth_stream(codes[::-1]), 512)
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
    rep = sndr_sfdr_enob(power, m)
    assert rep.sndr_db == 200.0
    assert rep.sfdr_db == 200.0


def test_no_bin_beside_dc_signal_and_guards_rejected():
    # n_fft = 4: bins 0-2, the signal at 1, so DC and the guard bins leave none;
    # the record floor rejects it, and every record up to half the floor
    with pytest.raises(ValueError, match=r"^n_fft = 4 is too short for a noise estimate; "
                                         r"need at least 256$"):
        sndr_sfdr_enob(np.array([0.0, 1.0, 0.0]), 1)
    power = np.zeros(MIN_N_FFT // 4 + 1)
    power[31] = 1.0
    with pytest.raises(ValueError, match=r"^n_fft = 128 is too short"):
        sndr_sfdr_enob(power, 31)


def test_sndr_sfdr_leave_out_dc_and_one_bin_each_side_of_the_signal():
    # known answer: DC and bins m-1, m+1 are left out, bins m-2, m+2 count
    n_fft, m = 256, 31
    power = np.zeros(n_fft // 2 + 1)
    power[m] = 1.0
    power[0] = 10.0
    power[[m - 1, m + 1]] = 0.5
    power[[m - 2, m + 2]] = 1e-4
    power[90] = 1e-5
    rep = sndr_sfdr_enob(power, m)
    assert rep.sndr_db == pytest.approx(10.0 * math.log10(1.0 / 2.1e-4), rel=1e-12)
    assert rep.sfdr_db == pytest.approx(40.0, rel=1e-12)


def test_zero_signal_bin_rejected():
    power = spectrum(synth_stream(np.full(256, 10)), 256)
    with pytest.raises(ValueError, match="zero power"):
        sndr_sfdr_enob(power, 31)


def test_signal_bin_domain_checked():
    power = spectrum(synth_stream(np.arange(256) % 256), 256)
    for bad in (0, 128, 200):
        with pytest.raises(ValueError):
            sndr_sfdr_enob(power, bad)


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
