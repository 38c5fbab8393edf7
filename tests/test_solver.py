import math

import numpy as np
import pytest

from pipeadc import (Budget, OtaParams, SettleInput, budget_from_config,
                     default_config, ideal_config, min_dc_gain, min_gbw,
                     ota_settle, relaxed_budgets, sweep)
import pipeadc.solver
from pipeadc.config import set_param

T_SETTLE = 0.387 / 166.6e6


def test_min_gain_main_anchor():
    # n=8, beta=0.5, quarter-LSB budget: 2048 linear = 66.2 dB
    req = min_dc_gain(Budget(n_bits=8, err_fraction=0.25, beta=0.5))
    assert req.linear == pytest.approx(2048.0, rel=1e-12)
    assert req.db == pytest.approx(66.2, abs=0.05)


def test_min_gain_other_cases():
    assert min_dc_gain(Budget(n_bits=8, err_fraction=0.25, beta=1.0)).linear == pytest.approx(1024.0)
    assert min_dc_gain(Budget(n_bits=8, err_fraction=0.25, beta=1.0)).db == pytest.approx(60.2, abs=0.05)
    assert min_dc_gain(Budget(n_bits=1, err_fraction=0.5, beta=1.0)).linear == pytest.approx(4.0)


def test_min_gbw_reproduces_950mhz():
    gbw = min_gbw(Budget(n_bits=8, err_fraction=0.25, beta=0.5, t_settle=T_SETTLE))
    assert gbw == pytest.approx(950e6, rel=0.02)
    # closed form: (n*ln2 + ln(1/err)) / (2*pi*beta*t)
    want = (8 * math.log(2) + math.log(4)) / (2 * math.pi * 0.5 * T_SETTLE)
    assert gbw == pytest.approx(want, rel=1e-12)


def test_min_gbw_scales_exactly():
    b = Budget(n_bits=8, err_fraction=0.25, beta=0.5, t_settle=T_SETTLE)
    assert min_gbw(Budget(n_bits=8, err_fraction=0.25, beta=0.5,
                          t_settle=2 * T_SETTLE)) == min_gbw(b) / 2.0
    assert min_gbw(Budget(n_bits=8, err_fraction=0.25, beta=1.0,
                          t_settle=T_SETTLE)) == pytest.approx(min_gbw(b) / 2.0, rel=1e-15)


def test_requirements_monotone_in_budget():
    for err_lo, err_hi in [(0.1, 0.25), (0.25, 0.4)]:
        assert min_dc_gain(Budget(err_fraction=err_lo)).linear > \
            min_dc_gain(Budget(err_fraction=err_hi)).linear
        assert min_gbw(Budget(err_fraction=err_lo)) > min_gbw(Budget(err_fraction=err_hi))
    for n_lo, n_hi in [(6, 8), (8, 10)]:
        assert min_dc_gain(Budget(n_bits=n_lo)).linear < min_dc_gain(Budget(n_bits=n_hi)).linear
        assert min_gbw(Budget(n_bits=n_lo)) < min_gbw(Budget(n_bits=n_hi))


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(n_bits=0)
    with pytest.raises(ValueError):
        Budget(err_fraction=0.0)
    with pytest.raises(ValueError):
        Budget(beta=-0.5)
    with pytest.raises(ValueError):
        min_gbw(Budget(t_settle=0.0))


def test_budget_from_config():
    b = budget_from_config(default_config())
    assert b.beta == 0.5
    assert b.t_settle == pytest.approx(T_SETTLE, rel=1e-15)


def test_relaxed_budgets_decay():
    bs = relaxed_budgets(Budget(n_bits=8))
    assert [b.n_bits for b in bs] == [8, 7, 6, 5, 4, 3]


def test_budget_consistency_with_settling():
    # an amplifier built exactly to the solved minimums settles a worst-case
    # full-swing residue to within half an LSB
    b = Budget(n_bits=8, err_fraction=0.25, beta=0.5, t_settle=T_SETTLE)
    ota = OtaParams(a0=min_dc_gain(b).linear, gbw=min_gbw(b), beta=0.5)
    vref = 0.6
    lsb = 2 * vref / 256.0
    settled = ota_settle(SettleInput(v_target_in=vref, v_init=0.0, ota=ota, t=T_SETTLE))
    assert abs(settled - vref) <= 0.5 * lsb


# --- sweep ---------------------------------------------------------------------


def test_sweep_gain_axis_enob_trend():
    # ENOB rises with gain; at the quantization-limited top the measurement
    # can dither by ~0.01 bit, so the monotonicity check carries a small slack
    pts = sweep(ideal_config(), "ota.a0_db", [40.0, 60.0, 66.2, 80.0, 100.0], "enob")
    values = [p.metric for p in pts]
    assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))
    assert values[1] > values[0]
    assert values[-1] == pytest.approx(8.0, abs=0.05)


def test_sweep_settle_fraction_enob_trend():
    base = set_param(set_param(ideal_config(), "ota.gbw", 950e6), "ota.a0_db", 100.0)
    pts = sweep(base, "clock.settle_fraction", [0.2, 0.3, 0.387, 0.5], "enob")
    values = [p.metric for p in pts]
    assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))
    assert values[1] > values[0] + 0.5  # the starved region really is worse


def test_sweep_preserves_order_and_values():
    pts = sweep(ideal_config(), "ota.a0_db", [80.0, 60.0, 100.0], "enob")
    assert [p.value for p in pts] == [80.0, 60.0, 100.0]


def test_sweep_empty_values():
    assert sweep(ideal_config(), "ota.a0_db", [], "enob") == []


def test_sweep_invalid_path_or_metric():
    with pytest.raises(Exception, match="unknown key"):
        sweep(ideal_config(), "ota.bogus", [1.0], "enob")
    with pytest.raises(ValueError, match="metric"):
        sweep(ideal_config(), "ota.a0_db", [60.0], "snr")


def test_sweep_dnl_metric_runs():
    pts = sweep(ideal_config(), "ota.a0_db", [100.0], "dnl", ramp_samples=2 ** 16)
    assert len(pts) == 1
    assert pts[0].metric < 0.05


def test_sweep_parallel_matches_serial():
    vals = [60.0, 80.0, 100.0]
    serial = sweep(ideal_config(), "ota.a0_db", vals, "enob", jobs=1)
    parallel = sweep(ideal_config(), "ota.a0_db", vals, "enob", jobs=3)
    assert serial == parallel


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        sweep(ideal_config(), "ota.a0_db", [60.0], "enob", n_fft=256, jobs=jobs)


@pytest.mark.parametrize("jobs,n_values,cpus,workers", [
    (8, 3, 2, 2),      # clamped to the CPUs
    (8, 3, 16, 3),     # clamped to the values
    (2, 3, 16, 2),     # as asked
    (8, 3, None, None),  # unknown CPU count: serial
    (4, 1, 16, None),  # one value: serial
])
def test_sweep_clamps_pool_size(monkeypatch, jobs, n_values, cpus, workers):
    pools = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor: records the size, runs in-process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(pipeadc.solver, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeadc.solver.os, "cpu_count", lambda: cpus)
    vals = [60.0, 80.0, 100.0][:n_values]
    pts = sweep(ideal_config(), "ota.a0_db", vals, "enob", n_fft=256, jobs=jobs)
    assert [p.value for p in pts] == vals
    assert pools == ([] if workers is None else [workers])
