import math
from dataclasses import replace

import pytest

from pipeadc import (AdcConfig, ClockParams, ConfigError, OtaParams, StageParams,
                     db_to_gain, default_config, degraded_config, ideal_config,
                     parse_config_text, preset_config, set_param, settling_fit_config,
                     validate, with_mismatch)
from pipeadc.config import config_to_text


def test_default_config_accepted():
    c = default_config()
    assert validate(c) is c
    assert c.reference.vref == 0.6
    assert c.clock.fs == 166.6e6
    assert len(c.stages) == 6


def test_validate_idempotent():
    c = default_config()
    assert validate(validate(c)) is c


def test_five_stages_rejected():
    c = replace(default_config(), stages=default_config().stages[:5])
    with pytest.raises(ConfigError, match="stages: expected 6"):
        validate(c)


def test_zero_beta_rejected():
    bad = set_param(default_config(), "stages[0].ota.beta", 0.0)
    with pytest.raises(ConfigError, match="beta must be positive"):
        validate(bad)


@pytest.mark.parametrize("path,value,msg", [
    ("clock.settle_fraction", 0.6, "settle_fraction"),
    ("clock.settle_fraction", 0.0, "settle_fraction"),
    ("reference.vref", -1.0, "vref"),
    ("stages[3].ota.k_mem", 1.5, "k_mem"),
    ("sha.ota.a0", 0.5, "a0"),
    ("stages[1].gain_mismatch", 0.6, "gain_mismatch"),
    ("flash_offsets[2]", math.inf, "finite"),
])
def test_invariant_violations_name_the_field(path, value, msg):
    bad = set_param(default_config(), path, value)
    with pytest.raises(ConfigError, match=msg):
        validate(bad)


def test_bool_seed_rejected():
    with pytest.raises(ConfigError, match="rng_seed"):
        validate(AdcConfig(rng_seed=True))


def test_error_reports_field_path():
    bad = set_param(default_config(), "stages[2].ota.beta", -1.0)
    with pytest.raises(ConfigError) as err:
        validate(bad)
    assert str(err.value).startswith("stages[2].ota.beta")


def test_roundtrip_identity():
    for cfg in (default_config(), ideal_config(), degraded_config(seed=3),
                settling_fit_config()):
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg


def test_partial_file_overrides_defaults():
    text = """
    # comment line
    clock.fs = 100e6   # trailing comment
    stages[2].gain_mismatch = 0.01
    clock.reset_enabled = false
    rng_seed = 42
    """
    c = parse_config_text(text)
    assert c.clock.fs == 100e6
    assert c.stages[2].gain_mismatch == 0.01
    assert c.stages[1].gain_mismatch == 0.0
    assert c.clock.reset_enabled is False
    assert c.rng_seed == 42


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("clock.frequency = 1e6")
    with pytest.raises(ConfigError, match="unknown key"):
        set_param(default_config(), "stages[9].gain_mismatch", 0.0)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("clock.fs 100e6")


def test_a0_db_alias():
    c = set_param(default_config(), "sha.ota.a0_db", 60.0)
    assert c.sha.ota.a0 == pytest.approx(1000.0, rel=1e-12)
    assert c.sha.ota.a0_db == pytest.approx(60.0, abs=1e-9)


def test_ota_broadcast_path():
    c = set_param(default_config(), "ota.gbw", 1e9)
    assert c.sha.ota.gbw == 1e9
    assert all(st.ota.gbw == 1e9 for st in c.stages)
    # broadcasting leaves per-stage beta untouched
    assert c.sha.ota.beta == 1.0
    assert c.stages[0].ota.beta == 0.5


def test_mismatch_draws_deterministic_and_bounded():
    a = with_mismatch(default_config(), 1e-3, 1e-3, 5e-3, seed=7)
    b = with_mismatch(default_config(), 1e-3, 1e-3, 5e-3, seed=7)
    other = with_mismatch(default_config(), 1e-3, 1e-3, 5e-3, seed=8)
    assert a == b
    assert a != other
    for st in a.stages:
        assert abs(st.gain_mismatch) < 0.5
        assert abs(st.dac_mismatch) < 0.5
    assert a.stages[0].gain_mismatch != a.stages[1].gain_mismatch


def test_presets_registry():
    assert preset_config("default") == default_config()
    assert preset_config("degraded", seed=5) == degraded_config(seed=5)
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("nope")


def test_preset_parameter_anchors():
    d = default_config()
    assert d.sha.ota.a0_db == pytest.approx(85.0, abs=1e-9)
    assert d.sha.ota.gbw == 2.5e9
    deg = degraded_config(seed=0)
    assert deg.stages[0].ota.a0 == pytest.approx(db_to_gain(67.0), rel=1e-12)
    assert deg.stages[0].ota.gbw == 950e6
    assert deg.clock.settle_fraction == 0.387
    # SHA holds with unity feedback in every preset
    for cfg in (d, deg, ideal_config(), settling_fit_config()):
        assert cfg.sha.ota.beta == 1.0
        assert all(st.ota.beta == 0.5 for st in cfg.stages)


def test_t_settle_derivation():
    clk = ClockParams(fs=166.6e6, settle_fraction=0.387)
    assert clk.t_settle == pytest.approx(0.387 / 166.6e6, rel=1e-15)
