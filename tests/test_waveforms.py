import numpy as np
import pytest

from pipeadc import ClockParams, Waveform, generate

CLOCK = ClockParams()


def test_dc_zeros():
    v = generate(Waveform(kind="dc", length=8, amplitude=0.0), CLOCK)
    assert np.array_equal(v, np.zeros(8))


def test_dc_level():
    v = generate(Waveform(kind="dc", length=3, amplitude=-0.25), CLOCK)
    assert np.array_equal(v, np.full(3, -0.25))


def test_pulse_steps_at_midpoint():
    v = generate(Waveform(kind="pulse", length=4, v_low=-0.6, v_high=0.6), CLOCK)
    assert np.array_equal(v, [-0.6, -0.6, 0.6, 0.6])


def test_pulse_odd_length():
    v = generate(Waveform(kind="pulse", length=5, v_low=0.0, v_high=1.0), CLOCK)
    assert np.array_equal(v, [0.0, 0.0, 1.0, 1.0, 1.0])


def test_sine_closed_form():
    f = 10.4e6
    w = Waveform(kind="sine", length=64, amplitude=0.5, frequency=f)
    v = generate(w, CLOCK)
    n = np.arange(64)
    assert v[0] == 0.0
    assert np.allclose(v, 0.5 * np.sin(2 * np.pi * f * n / CLOCK.fs), rtol=0, atol=1e-15)


def test_sine_coherent_periodicity():
    # M cycles fit exactly in n_fft samples, so the frame repeats
    n_fft, m = 256, 17
    f = m * CLOCK.fs / n_fft
    v = generate(Waveform(kind="sine", length=2 * n_fft, amplitude=0.6, frequency=f), CLOCK)
    assert np.allclose(v[:n_fft], v[n_fft:], atol=1e-9)


def test_ramp_overshoots_by_one_lsb():
    w = Waveform(kind="ramp", length=1001, v_low=-0.6, v_high=0.6)
    v = generate(w, CLOCK)
    lsb = 1.2 / 256.0
    assert v[0] == pytest.approx(-0.6 - lsb, rel=1e-12)
    assert v[-1] == pytest.approx(0.6 + lsb, rel=1e-12)
    assert np.all(np.diff(v) > 0)
    steps = np.diff(v)
    assert steps.max() - steps.min() < 1e-12


def test_length_one():
    assert len(generate(Waveform(kind="dc", length=1, amplitude=0.1), CLOCK)) == 1
    assert len(generate(Waveform(kind="ramp", length=1, v_low=0, v_high=1), CLOCK)) == 1


@pytest.mark.parametrize("bad", [
    Waveform(kind="triangle", length=8),
    Waveform(kind="sine", length=8, amplitude=0.1, frequency=0.0),
    Waveform(kind="ramp", length=8, v_low=0.5, v_high=0.5),
    Waveform(kind="dc", length=0),
    # a length must be an int: no rounding, no bool
    Waveform(kind="ramp", length=10.5, v_low=-0.6, v_high=0.6),
    Waveform(kind="sine", length=3.5, amplitude=0.1, frequency=1e6),
    Waveform(kind="pulse", length=2.5, v_low=-0.6, v_high=0.6),
    Waveform(kind="dc", length=4.0),
    Waveform(kind="dc", length=True),
])
def test_invalid_waveforms_rejected(bad):
    with pytest.raises(ValueError, match="length" if bad.length != 8 else None):
        generate(bad, CLOCK)

