import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeadc import (AdcConfig, ClockParams, ConfigError, OtaParams, ReferenceConfig,
                     StageParams, db_to_gain, default_config, degraded_config, gain_to_db,
                     ideal_config, load_config, parse_config_text, preset_config, set_param,
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


def test_wrong_flash_offset_count_rejected():
    c = replace(default_config(), flash_offsets=(0.0, 0.0))
    with pytest.raises(ConfigError, match="^flash_offsets: expected 3 values$"):
        validate(c)


@pytest.mark.parametrize("path,value,msg", [
    ("clock.settle_fraction", 0.6, "settle_fraction"),
    ("clock.settle_fraction", 0.0, "settle_fraction"),
    ("reference.vref", -1.0, "vref"),
    ("stages[3].ota.k_mem", 1.5, "k_mem"),
    ("sha.ota.a0", 0.5, "a0"),
    ("stages[1].gain_mismatch", 0.6, "gain_mismatch"),
    ("flash_offsets[2]", math.inf, "flash_offsets"),
])
def test_invariant_violations_name_the_field(path, value, msg):
    bad = set_param(default_config(), path, value)
    with pytest.raises(ConfigError, match=msg):
        validate(bad)


# Each leaf's interval, by leaf name, written here rather than read from
# config.py, so that a changed declaration fails the edge test below.
DOMAINS = {
    "vref": "(0, inf)", "fs": "(0, inf)", "settle_fraction": "(0, 0.5]", "reset_enabled": bool,
    "a0": "[1, inf]", "gbw": "(0, inf]", "k_mem": "[0, 1]",
    "gain_mismatch": "(-0.5, 0.5)", "dac_mismatch": "(-0.5, 0.5)",
    "cmp_offset_hi": "(-inf, inf)", "cmp_offset_lo": "(-inf, inf)", "flash_offsets": "(-inf, inf)",
}


def _edge_values(interval):
    """(accepted, rejected): each closed end and the nearest float inside each open end;
    the nearest float outside each end, NaN, and each infinity the interval excludes."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    accepted, rejected = [], [math.nan]
    for end, closed, inward in ((lo, interval[0] == "[", math.inf),
                                (hi, interval[-1] == "]", -math.inf)):
        if closed:
            accepted.append(end)
            if math.isfinite(end):
                rejected.append(math.nextafter(end, -inward))
        else:
            accepted.append(math.nextafter(end, inward))
            rejected.append(end)
    rejected += [inf for inf in (-math.inf, math.inf) if inf not in accepted + rejected]
    return accepted, rejected


# Edge values accepted by their key's interval whose clock's settling time,
# settle_fraction / fs at the default fs, underflows to 0.0: validate rejects them.
UNDERFLOWS_T_SETTLE = {("clock.settle_fraction", 5e-324)}
T_SETTLE_MESSAGE = "clock.settle_fraction / clock.fs: the settling time underflows to 0"


def test_every_key_accepts_its_edges_and_rejects_past_them():
    d = default_config()
    keys = [line.split(" = ")[0] for line in config_to_text(d).splitlines()[1:]]
    assert len(keys) == 52
    wrong = []
    for key in keys:
        leaf = re.sub(r"\[\d+\]$", "", key).rsplit(".", 1)[-1]
        if leaf not in DOMAINS:
            wrong.append(f"{key}: no domain in the test's table")
            continue
        if DOMAINS[leaf] is bool:
            accepted, rejected = [True, False], []
        else:
            accepted, rejected = _edge_values(DOMAINS[leaf])
        for value in accepted:
            try:
                cfg = validate(set_param(d, key, value))
            except ConfigError as exc:
                if (key, value) not in UNDERFLOWS_T_SETTLE or str(exc) != T_SETTLE_MESSAGE:
                    wrong.append(f"{key} = {value!r} rejected: {exc}")
                continue
            if (key, value) in UNDERFLOWS_T_SETTLE:
                wrong.append(f"{key} = {value!r} accepted though t_settle underflows")
            if f"\n{key} = {str(value).lower()}\n" not in config_to_text(cfg):
                wrong.append(f"{key} = {value!r} not stored")
        for value in rejected:
            try:
                validate(set_param(d, key, value))
                wrong.append(f"{key} = {value!r} accepted")
            except ConfigError as exc:
                if str(exc) != f"{key}: must be in {DOMAINS[leaf]}":
                    wrong.append(f"{key} = {value!r}: wrong message: {exc}")
    assert wrong == []


@pytest.mark.parametrize("fs,settle_fraction", [(1e308, 1e-20), (166.6e6, 1e-320)])
def test_clock_whose_settling_time_underflows_rejected(fs, settle_fraction):
    clock = ClockParams(fs=fs, settle_fraction=settle_fraction)
    assert clock.t_settle == 0.0
    with pytest.raises(ConfigError, match=f"^{re.escape(T_SETTLE_MESSAGE)}$"):
        validate(replace(default_config(), clock=clock))


def _with_stage(i, stage):
    stages = list(default_config().stages)
    stages[i] = stage
    return replace(default_config(), stages=tuple(stages))


@pytest.mark.parametrize("config,message", [
    (AdcConfig(sha=StageParams()), "sha: expected ShaParams, got StageParams"),
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


def _with_raw_leaf(path, value):
    """default_config() with one leaf set as given, with no parsing by set_param."""
    d = default_config()
    return {
        "clock.reset_enabled": lambda: replace(d, clock=replace(d.clock, reset_enabled=value)),
        "reference.vref": lambda: replace(d, reference=ReferenceConfig(vref=value)),
        "flash_offsets[1]": lambda: replace(d, flash_offsets=(0.0, value, 0.0)),
        "stages[3].gain_mismatch": lambda: _with_stage(3, StageParams(gain_mismatch=value)),
        "sha.ota.a0": lambda: replace(d, sha=ShaParams(ota=OtaParams(a0=value))),
    }[path]()


@pytest.mark.parametrize("path,value,message", [
    # a truthy string would run the engine memoryless
    ("clock.reset_enabled", "false", "expected bool, got str"),
    ("clock.reset_enabled", 1, "expected bool, got int"),
    ("clock.reset_enabled", None, "expected bool, got NoneType"),
    ("reference.vref", "0.6", "expected float, got str"),
    ("flash_offsets[1]", "0.0", "expected float, got str"),
    ("stages[3].gain_mismatch", True, "expected float, got bool"),
    ("sha.ota.a0", False, "expected float, got bool"),
])
def test_leaves_must_have_their_declared_types(path, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: {message}$"):
        validate(_with_raw_leaf(path, value))


@pytest.mark.parametrize("path,value", [
    ("reference.vref", 1), ("flash_offsets[1]", -2), ("stages[3].gain_mismatch", 0),
    ("sha.ota.a0", 10 ** 4), ("reference.vref", np.float64(0.5)),
])
def test_real_number_leaves_accepted(path, value):
    cfg = _with_raw_leaf(path, value)
    assert validate(cfg) is cfg


def test_int_leaf_outside_its_interval_rejected():
    with pytest.raises(ConfigError, match=r"^reference\.vref: must be in \(0, inf\)$"):
        validate(_with_raw_leaf("reference.vref", 0))


@pytest.mark.parametrize("value,expected", [(0, False), (0.0, False), (1, True), (1.0, True)])
def test_reset_enabled_takes_zero_and_one_as_numbers(value, expected):
    cfg = set_param(default_config(), "clock.reset_enabled", value)
    assert cfg.clock.reset_enabled is expected


@pytest.mark.parametrize("value", [2, 0.5])
def test_reset_enabled_rejects_other_numbers(value):
    with pytest.raises(ConfigError, match=r"^bad value for clock\.reset_enabled: "):
        set_param(default_config(), "clock.reset_enabled", value)


def test_error_reports_field_path():
    bad = set_param(default_config(), "stages[2].ota.k_mem", -1.0)
    with pytest.raises(ConfigError) as err:
        validate(bad)
    assert str(err.value).startswith("stages[2].ota.k_mem")


def _finite(lo=-1e3, hi=1e3):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_otas = st.builds(OtaParams,
                  a0=st.one_of(st.floats(1.0, 1e12), st.just(math.inf)),
                  gbw=st.one_of(st.floats(1.0, 1e15, exclude_min=True), st.just(math.inf)),
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
def test_presets_write_fifty_two_keys(preset):
    keys = [line.split(" = ")[0] for line in config_to_text(preset).splitlines()[1:]]
    assert len(keys) == len(set(keys)) == 52
    assert [k for k in keys if k.startswith("sha.")] == ["sha.ota.a0", "sha.ota.gbw",
                                                         "sha.ota.k_mem"]
    # the circuit sets every feedback factor, so no key holds one
    assert [k for k in keys if k.endswith("beta")] == []


# a file saved while the feedback factors were keys is rejected, naming the stale key
@pytest.mark.parametrize("key", ["stages[0].ota.beta", "sha.ota.beta"])
def test_saved_beta_line_is_unknown_key(key, tmp_path):
    path = tmp_path / "saved.cfg"
    path.write_text(config_to_text(default_config()) + f"{key} = 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^unknown key: {re.escape(key)}$"):
        load_config(path)


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
    # the circuit sets each amplifier's feedback factor, broadcast or not
    "ota.beta",
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


def test_t_settle_derivation():
    clk = ClockParams(fs=166.6e6, settle_fraction=0.387)
    assert clk.t_settle == pytest.approx(0.387 / 166.6e6, rel=1e-15)
