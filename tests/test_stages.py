import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeadc import (ClockParams, OtaParams, StageParams, degraded_config, flash2b,
                     mdac_residue, set_param, settle_coefficients, sub_adc_decide)
from pipeadc.config import ShaParams, db_to_gain
from pipeadc.stages import comparator_diff, settle_value

VREF = 0.6
IDEAL_STAGE = StageParams()


def settle(target, v_init, ota, t):
    """Settled amplifier output after time t, as the engine computes it."""
    g, e = settle_coefficients(ota, t)
    return settle_value(target, v_init, g, e)


def sha_hold(vin, sha, clock):
    """SHA output: unity feedback settling toward vin from a reset output node."""
    return settle(vin, 0.0, sha.ota, clock.t_settle)


def settle_reference(target, v_init, a0, beta, gbw, t):
    """Independent scalar evaluation of the settling law, written from the formulas."""
    v_static = (beta * a0) / (1.0 + beta * a0) * target
    tau = 1.0 / (2.0 * math.pi * beta * gbw)
    return v_static + (v_init - v_static) * math.exp(-t / tau)


def test_settle_asymptotic_static_value():
    # a0 = 1e6, beta = 0.5, huge t: output is v_static = (beta*a0/(1+beta*a0)) * 1 V
    ota = OtaParams(a0=1e6, gbw=1e6, beta=0.5)
    out = settle(1.0, 0.0, ota, 1.0)
    assert out == pytest.approx(0.999998, abs=1e-6)


def test_settle_one_time_constant():
    ota = OtaParams(a0=1e5, gbw=800e6, beta=0.5)
    tau = 1.0 / (2.0 * math.pi * ota.beta * ota.gbw)
    out = settle(0.25, 0.0, ota, tau)
    g = (ota.beta * ota.a0) / (1.0 + ota.beta * ota.a0)
    assert out == pytest.approx(0.25 * g * (1.0 - math.exp(-1.0)), rel=1e-12)


def test_settle_zero_target_zero_init():
    ota = OtaParams(a0=1e4, gbw=1e9, beta=0.5)
    for t in (0.0, 1e-12, 1e-9, 1.0):
        assert settle(0.0, 0.0, ota, t) == 0.0


def test_settle_matches_reference_on_grid():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        a0 = 10.0 ** rng.uniform(1, 7)
        beta = rng.uniform(0.05, 1.0)
        gbw = 10.0 ** rng.uniform(6, 10)
        t = 10.0 ** rng.uniform(-12, -7)
        target = rng.uniform(-1.0, 1.0)
        v_init = rng.uniform(-1.0, 1.0)
        got = settle(target, v_init, OtaParams(a0, gbw, beta), t)
        want = settle_reference(target, v_init, a0, beta, gbw, t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_settle_monotone_toward_static_value():
    rng = np.random.default_rng(1)
    for _ in range(500):
        ota = OtaParams(a0=10.0 ** rng.uniform(1, 6), gbw=10.0 ** rng.uniform(7, 10),
                        beta=rng.uniform(0.1, 1.0))
        target = rng.uniform(-1, 1)
        v_init = rng.uniform(-1, 1)
        v_static = 1.0 / (1.0 + 1.0 / (ota.beta * ota.a0)) * target
        t1, t2 = sorted(rng.uniform(0, 5e-9, size=2))
        d1 = abs(settle(target, v_init, ota, t1) - v_static)
        d2 = abs(settle(target, v_init, ota, t2) - v_static)
        assert d2 <= d1 + 1e-18


def test_static_error_matches_closed_form():
    # |v_static - target| / |target| == 1 / (1 + beta*a0)
    rng = np.random.default_rng(2)
    for _ in range(300):
        ota = OtaParams(a0=10.0 ** rng.uniform(0.5, 8), gbw=1e9, beta=rng.uniform(0.05, 1.0))
        target = rng.choice([-1, 1]) * 10.0 ** rng.uniform(-3, 0)
        settled = settle(target, 0.0, ota, 1.0)
        rel_err = abs(settled - target) / abs(target)
        assert rel_err == pytest.approx(1.0 / (1.0 + ota.beta * ota.a0), rel=1e-12)


def test_infinite_amplifier_is_exact_passthrough():
    ota = OtaParams(a0=math.inf, gbw=math.inf, beta=1.0)
    clock = ClockParams()
    sha = ShaParams(ota)
    for vin in (0.0, 0.6, -0.4321, 1e-9):
        assert sha_hold(vin, sha, clock) == vin


def test_sha_hold_near_published_value():
    # 67 dB unity-feedback amplifier holds 600 mV with a 0.05 % error
    sha = ShaParams(OtaParams(a0=db_to_gain(67.0), gbw=2.5e9, beta=1.0))
    out = sha_hold(0.6, sha, ClockParams())
    assert out * 1e3 == pytest.approx(599.7, abs=0.1)
    err_pct = (0.6 - out) / 0.6 * 100.0
    assert 0.03 < err_pct < 0.07


def test_sha_hold_zero_is_zero():
    sha = ShaParams(OtaParams(a0=db_to_gain(67.0), gbw=2.5e9, beta=1.0))
    assert sha_hold(0.0, sha, ClockParams()) == 0.0


# --- comparator and decisions ------------------------------------------------


def test_comparator_diff_formula():
    assert comparator_diff(0.3, -0.3, 0.1, -0.1) == pytest.approx(0.4)
    assert comparator_diff(1.0, 2.0, 3.0, 5.0) == pytest.approx(1.0)


def test_comparator_diff_antisymmetry_exact():
    rng = np.random.default_rng(3)
    vals = rng.uniform(-2, 2, size=(4000, 4))
    for a, b, c, d in vals:
        assert comparator_diff(a, b, c, d) == -comparator_diff(b, a, d, c)


def test_decide_examples():
    assert sub_adc_decide(0.0, IDEAL_STAGE, VREF) == 0
    assert sub_adc_decide(0.3 * VREF, IDEAL_STAGE, VREF) == 1
    assert sub_adc_decide(-0.3 * VREF, IDEAL_STAGE, VREF) == -1


def test_decide_exact_ties_resolve_to_zero():
    assert sub_adc_decide(VREF / 4.0, IDEAL_STAGE, VREF) == 0
    assert sub_adc_decide(-VREF / 4.0, IDEAL_STAGE, VREF) == 0


def test_decide_matches_plain_threshold_oracle():
    rng = np.random.default_rng(4)
    stages = [IDEAL_STAGE,
              StageParams(cmp_offset_hi=0.013, cmp_offset_lo=-0.007),
              StageParams(cmp_offset_hi=-0.02, cmp_offset_lo=0.05)]
    for stage in stages:
        thr_hi = VREF / 4.0 + stage.cmp_offset_hi
        thr_lo = -VREF / 4.0 + stage.cmp_offset_lo
        for vin in rng.uniform(-VREF, VREF, 20000):
            want = 1 if vin > thr_hi else (-1 if vin < thr_lo else 0)
            assert sub_adc_decide(vin, stage, VREF) == want


def test_decide_offsets_shift_thresholds():
    stage = StageParams(cmp_offset_hi=0.05)
    assert sub_adc_decide(VREF / 4.0 + 0.04, stage, VREF) == 0
    assert sub_adc_decide(VREF / 4.0 + 0.06, stage, VREF) == 1


def sc_sub_adc_decide(vin, stage, vref):
    """Scalar oracle: the switched-capacitor form, the sign of comparator_diff plus 2 * offset."""
    if comparator_diff(0.25 * vref, -0.25 * vref, vin, -vin) < -2.0 * stage.cmp_offset_hi:
        return 1
    if comparator_diff(-0.25 * vref, 0.25 * vref, vin, -vin) > -2.0 * stage.cmp_offset_lo:
        return -1
    return 0


def sc_flash2b(vin, offsets, vref):
    """Scalar oracle: the switched-capacitor form of the flash."""
    return sum(comparator_diff(thr, -thr, vin, -vin) < -2.0 * off
               for thr, off in zip((-0.5 * vref, 0.0, 0.5 * vref), offsets))


def ulp_steps(x, k):
    """The float k steps from x (k may be negative)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


unit = st.floats(-1.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(vref=st.floats(1e-3, 1.7), offs=st.lists(unit, min_size=5, max_size=5),
       far=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
       steps=st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_comparators_equal_switched_capacitor_form(vref, offs, far, steps):
    # Within vref/8 of the nominal thresholds the subtraction at the flip
    # point is exact (Sterbenz), so the exact law must give the old bits.
    hi, lo, *flash = (x * (vref / 8) for x in offs)
    stage = StageParams(cmp_offset_hi=hi, cmp_offset_lo=lo)
    q = 0.25 * vref
    near = [q + hi, lo - q] + [thr + off for thr, off in zip((-2 * q, 0.0, 2 * q), flash)]
    u = far + [ulp_steps(x, k) for x in near for k in steps]
    for x in u:
        assert sub_adc_decide(x, stage, vref) == sc_sub_adc_decide(x, stage, vref)
        assert flash2b(x, flash, vref) == sc_flash2b(x, flash, vref)


def test_comparator_arrays_equal_scalar_calls():
    rng = np.random.default_rng(6)
    # comparator offsets ten times the degraded preset's sigma
    keys = [f"stages[{i}].cmp_offset_{side}" for i in range(6) for side in ("hi", "lo")]
    keys += [f"flash_offsets[{j}]" for j in range(3)]
    cfg = degraded_config(seed=3)
    for key, offset in zip(keys, np.random.default_rng(3).normal(0.0, 0.05, len(keys)).tolist()):
        cfg = set_param(cfg, key, offset)
    u = np.concatenate([rng.uniform(-2 * VREF, 2 * VREF, 5000), [0.0, -0.0, VREF / 4, -VREF / 4]])
    for stage in cfg.stages:
        got = sub_adc_decide(u, stage, VREF)
        assert got.dtype == np.int8
        assert got.tolist() == [sub_adc_decide(x, stage, VREF) for x in u.tolist()]
    got = flash2b(u, cfg.flash_offsets, VREF)
    assert got.dtype == np.int8
    assert got.tolist() == [flash2b(x, cfg.flash_offsets, VREF) for x in u.tolist()]


# --- residue -----------------------------------------------------------------


def test_residue_examples():
    assert mdac_residue(0.0, 0, IDEAL_STAGE, VREF) == 0.0
    assert mdac_residue(VREF / 2.0, 1, IDEAL_STAGE, VREF) == pytest.approx(0.0, abs=1e-15)
    assert mdac_residue(0.3, 1, IDEAL_STAGE, 0.6) == pytest.approx(0.0, abs=1e-15)


def test_residue_mismatch_terms():
    stage = StageParams(gain_mismatch=0.01, dac_mismatch=-0.02)
    got = mdac_residue(0.1, -1, stage, VREF)
    assert got == pytest.approx(2.0 * 1.01 * 0.1 + 0.98 * VREF, rel=1e-12)
    # the array form, as the engine's sweeps call it with int8 decisions,
    # gives each element the scalar call's bits
    rng = np.random.default_rng(5)
    vin = rng.uniform(-2 * VREF, 2 * VREF, 5000)
    d = rng.integers(-1, 2, vin.size).astype(np.int8)
    vin_bits, d_bits = vin.copy(), d.copy()
    got = mdac_residue(vin, d, stage, VREF)
    want = np.array([mdac_residue(x, int(k), stage, VREF) for x, k in zip(vin.tolist(), d)])
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the law never writes into its arguments: the engine passes buffer views
    assert np.array_equal(vin.view(np.int64), vin_bits.view(np.int64))
    assert np.array_equal(d, d_bits)


def test_settle_value_array_form():
    # array v_target and v_init, as the memory sweeps call it: each element
    # has the scalar call's bits and neither argument changes
    g, e = settle_coefficients(OtaParams(a0=db_to_gain(60.0), gbw=5e8), 1e-9)
    rng = np.random.default_rng(6)
    v_target = rng.uniform(-2 * VREF, 2 * VREF, 5000)
    v_init = rng.uniform(-VREF, VREF, v_target.size)
    v_init[::7] = 0.0
    target_bits, init_bits = v_target.copy(), v_init.copy()
    got = settle_value(v_target, v_init, g, e)
    want = np.array([settle_value(t, i, g, e) for t, i in zip(v_target.tolist(), v_init.tolist())])
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(v_target.view(np.int64), target_bits.view(np.int64))
    assert np.array_equal(v_init.view(np.int64), init_bits.view(np.int64))
    # the settling formula as written in ``settle_coefficients``
    v_static = g * v_target
    formula = v_static + (v_init - v_static) * e
    assert np.array_equal(got.view(np.int64), formula.view(np.int64))
    # the memoryless form, a scalar v_init of 0.0
    got0 = settle_value(v_target, 0.0, g, e)
    want0 = np.array([settle_value(t, 0.0, g, e) for t in v_target.tolist()])
    assert np.array_equal(got0.view(np.int64), want0.view(np.int64))
    assert np.array_equal(v_target.view(np.int64), target_bits.view(np.int64))


def test_residue_bounded_with_ideal_decisions():
    # brute-force sweep: |r| <= vref whenever d comes from the ideal sub-ADC
    v = np.linspace(-VREF, VREF, 100001)
    for vin in v:
        d = sub_adc_decide(vin, IDEAL_STAGE, VREF)
        r = mdac_residue(vin, d, IDEAL_STAGE, VREF)
        assert abs(r) <= VREF + 1e-12


# --- flash -------------------------------------------------------------------


def test_flash_examples():
    zeros = (0.0, 0.0, 0.0)
    assert flash2b(-VREF, zeros, VREF) == 0
    assert flash2b(VREF, zeros, VREF) == 3
    assert flash2b(0.1 * VREF, zeros, VREF) == 2


def test_flash_tie_takes_lower_code():
    zeros = (0.0, 0.0, 0.0)
    assert flash2b(0.0, zeros, VREF) == 1
    assert flash2b(-VREF / 2.0, zeros, VREF) == 0
    assert flash2b(VREF / 2.0, zeros, VREF) == 2


def test_flash_offsets_move_thresholds():
    offs = (0.0, 0.05, 0.0)
    assert flash2b(0.04, offs, VREF) == 1
    assert flash2b(0.06, offs, VREF) == 2
