import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeadc import (AdcConfig, ClockParams, ConfigError, OtaParams, ReferenceConfig,
                     StageParams, db_to_gain, default_config, degraded_config, gain_to_db,
                     ideal_config, parse_config_text, preset_config, set_param,
                     settling_fit_config, validate, with_mismatch)
from pipeadc.config import N_STAGES, ShaParams, config_to_text


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


def _with_stage(i, stage):
    stages = list(default_config().stages)
    stages[i] = stage
    return replace(default_config(), stages=tuple(stages))


@pytest.mark.parametrize("config,message", [
    (AdcConfig(sha=StageParams(ota=OtaParams(beta=1.0))), "sha: expected ShaParams, got StageParams"),
    (AdcConfig(sha=ShaParams(ota=StageParams())), "sha.ota: expected OtaParams, got StageParams"),
    (AdcConfig(stages=(ShaParams(),) * 6), r"stages\[0\]: expected StageParams, got ShaParams"),
    (_with_stage(2, ShaParams()), r"stages\[2\]: expected StageParams, got ShaParams"),
    (_with_stage(4, StageParams(ota=ShaParams())),
     r"stages\[4\]\.ota: expected OtaParams, got ShaParams"),
    (AdcConfig(clock=None), "clock: expected ClockParams, got NoneType"),
    (AdcConfig(reference=None), "reference: expected ReferenceConfig, got NoneType"),
    (AdcConfig(stages=None), "stages: expected tuple, got NoneType"),
    (AdcConfig(flash_offsets=None), "flash_offsets: expected tuple, got NoneType"),
], ids=["sha", "sha.ota", "stages", "stages[2]", "stages[4].ota", "clock", "reference",
        "stages-none", "flash_offsets-none"])
def test_nodes_must_have_their_declared_types(config, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        validate(config)


def test_error_reports_field_path():
    bad = set_param(default_config(), "stages[2].ota.beta", -1.0)
    with pytest.raises(ConfigError) as err:
        validate(bad)
    assert str(err.value).startswith("stages[2].ota.beta")


def _finite(lo=-1e3, hi=1e3):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_otas = st.builds(OtaParams,
                  a0=st.one_of(st.floats(1.0, 1e12), st.just(math.inf)),
                  gbw=st.one_of(st.floats(1.0, 1e15, exclude_min=True), st.just(math.inf)),
                  beta=st.floats(0.0, 1.0, exclude_min=True),
                  k_mem=st.floats(0.0, 1.0))
_stages = st.builds(StageParams,
                    gain_mismatch=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
                    dac_mismatch=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
                    cmp_offset_hi=_finite(), cmp_offset_lo=_finite(), ota=_otas)
_configs = st.builds(
    AdcConfig,
    reference=st.builds(ReferenceConfig, vref=st.floats(0.0, 1e3, exclude_min=True)),
    clock=st.builds(ClockParams, fs=st.floats(0.0, 1e12, exclude_min=True),
                    settle_fraction=st.floats(0.0, 0.5, exclude_min=True),
                    reset_enabled=st.booleans()),
    sha=st.builds(ShaParams, ota=_otas),
    stages=st.lists(_stages, min_size=N_STAGES, max_size=N_STAGES).map(tuple),
    flash_offsets=st.tuples(_finite(), _finite(), _finite()))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(cfg=_configs)
@example(cfg=default_config())
@example(cfg=ideal_config())
@example(cfg=degraded_config(seed=3))
@example(cfg=settling_fit_config())
def test_roundtrip_identity(cfg):
    assert validate(cfg) is cfg
    assert parse_config_text(config_to_text(cfg)) == cfg


@pytest.mark.parametrize("preset", [default_config(), ideal_config(), degraded_config(seed=3),
                                    settling_fit_config()])
def test_presets_write_sixty_keys(preset):
    keys = [line.split(" = ")[0] for line in config_to_text(preset).splitlines()[1:]]
    assert len(keys) == len(set(keys)) == 59
    assert [k for k in keys if k.startswith("sha.")] == ["sha.ota.a0", "sha.ota.gbw",
                                                         "sha.ota.beta", "sha.ota.k_mem"]


def test_reference_vcm_is_unknown_key():
    # the model is fully differential: a common-mode level is not a parameter
    with pytest.raises(ConfigError, match=r"unknown key: reference\.vcm"):
        parse_config_text("reference.vref = 0.6\nreference.vcm = 0.9\n")


def test_partial_file_overrides_defaults():
    text = """
    # comment line
    clock.fs = 100e6   # trailing comment
    stages[2].gain_mismatch = 0.01
    clock.reset_enabled = false
    """
    c = parse_config_text(text)
    assert c.clock.fs == 100e6
    assert c.stages[2].gain_mismatch == 0.01
    assert c.stages[1].gain_mismatch == 0.0
    assert c.clock.reset_enabled is False


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("clock.frequency = 1e6")
    with pytest.raises(ConfigError, match="unknown key"):
        set_param(default_config(), "stages[9].gain_mismatch", 0.0)


@pytest.mark.parametrize("path", [
    "sha", "clock", "ota", "stages[2]", "flash_offsets", "stages[6].gain_mismatch",
    "flash_offsets[3]", "sha.a0_db", "clock.t_settle",
    # the SHA has no sub-ADC or MDAC, so no stage keys
    "sha.gain_mismatch", "sha.dac_mismatch", "sha.cmp_offset_hi", "sha.cmp_offset_lo",
    # the mismatch seed is an argument of the degraded preset, not a config value
    "rng_seed",
])
def test_non_leaf_and_out_of_range_paths_are_unknown_keys(path):
    with pytest.raises(ConfigError, match=f"^unknown key: {re.escape(path)}$"):
        set_param(default_config(), path, 0.0)


def test_readme_config_example_parses_to_its_values():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration files", 1)[1].split("```")[1]
    c = parse_config_text(block)
    assert c.clock == ClockParams(fs=166.6e6, settle_fraction=0.387, reset_enabled=True)
    assert c.reference.vref == 0.6
    assert c.sha.ota.a0 == db_to_gain(67.0)
    assert c.stages[2].gain_mismatch == 0.001
    assert c.flash_offsets == (0.002, 0.0, 0.0)
    assert [st.ota.gbw for st in (c.sha, *c.stages)] == [950e6] * (N_STAGES + 1)
    # everything the block does not name keeps its default
    d = default_config()
    assert c.stages[1] == replace(d.stages[1], ota=replace(d.stages[1].ota, gbw=950e6))
    assert c.sha.ota == replace(d.sha.ota, a0=c.sha.ota.a0, gbw=950e6)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("clock.fs 100e6")


def test_a0_db_alias():
    c = set_param(default_config(), "sha.ota.a0_db", 60.0)
    assert c.sha.ota.a0 == pytest.approx(1000.0, rel=1e-12)
    assert gain_to_db(c.sha.ota.a0) == pytest.approx(60.0, abs=1e-9)


@pytest.mark.parametrize("path", ["ota.a0_db", "sha.ota.a0_db", "stages[4].ota.a0_db"])
def test_a0_db_beyond_float_range_is_bad_value(path):
    with pytest.raises(ConfigError, match=f"^bad value for {re.escape(path)}: 7000"):
        set_param(default_config(), path, 7000)
    with pytest.raises(ConfigError, match=f"^bad value for {re.escape(path)}: '7000'$"):
        parse_config_text(f"{path} = 7000")
    # an infinite gain in dB is still the ideal amplifier
    d = default_config()
    assert set_param(d, path, math.inf) == set_param(d, path.replace("a0_db", "a0"), math.inf)


def test_ota_broadcast_path():
    c = set_param(default_config(), "ota.gbw", 1e9)
    assert c.sha.ota.gbw == 1e9
    assert all(st.ota.gbw == 1e9 for st in c.stages)
    # broadcasting leaves per-stage beta untouched
    assert c.sha.ota.beta == 1.0
    assert c.stages[0].ota.beta == 0.5


def test_mismatch_draws_deterministic_and_bounded():
    a = with_mismatch(default_config(), 7)
    b = with_mismatch(default_config(), 7)
    other = with_mismatch(default_config(), 8)
    assert a == b
    assert a != other
    for st in a.stages:
        assert abs(st.gain_mismatch) < 0.5
        assert abs(st.dac_mismatch) < 0.5
    assert a.stages[0].gain_mismatch != a.stages[1].gain_mismatch


def test_presets_registry():
    assert preset_config("default") == default_config()
    assert preset_config("degraded", seed=5) == degraded_config(seed=5)
    assert preset_config("degraded") == degraded_config(seed=0)
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("nope")
    for name in ("default", "ideal", "settling-fit"):
        with pytest.raises(ConfigError, match=f"^preset {name} draws no mismatch"):
            preset_config(name, seed=0)


def test_preset_parameter_anchors():
    d = default_config()
    assert gain_to_db(d.sha.ota.a0) == pytest.approx(85.0, abs=1e-9)
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
