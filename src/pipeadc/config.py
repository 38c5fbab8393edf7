"""Converter configuration: value types, validation, presets, and the flat-key config file format.

Every knob of the simulator lives here. All types are frozen dataclasses; once
a config passes :func:`validate` it can be shared freely across workers.

Conventions
-----------
* Voltages are differential volts centered on 0; the analog input range is
  ``[-vref, +vref]``.
* OTA DC gain ``a0`` is stored linear; config keys may give it in dB
  through an ``a0_db`` leaf (see :func:`set_param`).
* Static mismatch and comparator offsets are fabrication-time constants: they
  are drawn once per config (see :func:`with_mismatch`), never per sample.
"""

from __future__ import annotations

import functools
import math
import re
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

N_BITS = 8
N_STAGES = 6
N_FLASH_THRESHOLDS = 3
# Monte Carlo sigmas of the degraded preset's static draws
GAIN_SIGMA = 1e-3
DAC_SIGMA = 1e-3
OFFSET_SIGMA = 5e-3


class ConfigError(ValueError):
    """A configuration invariant is violated; the message names the offending field path."""


def db_to_gain(db: float) -> float:
    """Convert a gain in dB to the linear value stored in :class:`OtaParams`."""
    return 10.0 ** (db / 20.0)


def gain_to_db(linear: float) -> float:
    return 20.0 * math.log10(linear)


@dataclass(frozen=True)
class ReferenceConfig:
    """Reference levels.

    vref is the differential half-range: full scale spans [-vref, +vref] and
    the positive/negative reference taps sit at +-vref. The model is fully
    differential, so no common-mode level enters the arithmetic.
    """

    vref: float = 0.6


@dataclass(frozen=True)
class OtaParams:
    """Behavioral amplifier: DC gain, gain-bandwidth product, feedback factor, memory.

    Params:
        a0     - linear DC gain (dimensionless, >= 1; inf allowed for an ideal amp)
        gbw    - gain-bandwidth product [Hz]
        beta   - feedback factor in hold mode, in (0, 1]; 0.5 is the nominal
                 flip-around multiply-by-2 value, 1.0 the unity-feedback hold
        k_mem  - fraction of the previous settled output left on the output
                 node when the reset phase is disabled, in [0, 1]
    """

    a0: float = 17782.794100389227
    gbw: float = 2.5e9
    beta: float = 0.5
    k_mem: float = 0.0


@dataclass(frozen=True)
class ClockParams:
    """Two-phase clocking with an optional reset slot between the working phases.

    settle_fraction is the fraction of the sample period T = 1/fs left for
    residue settling after the non-overlap and reset slots are taken out; it
    must lie in (0, 0.5] because amplification only ever gets one half-cycle.
    """

    fs: float = 166.6e6
    settle_fraction: float = 0.387
    reset_enabled: bool = True

    @property
    def t_settle(self) -> float:
        return self.settle_fraction / self.fs


@dataclass(frozen=True)
class ShaParams:
    """The sample-and-hold: a unity-feedback hold with no sub-ADC or MDAC, so only an amplifier."""
    ota: OtaParams = OtaParams(beta=1.0)


@dataclass(frozen=True)
class StageParams:
    """Per-stage non-idealities plus the amplifier used for its residue.

    gain_mismatch eps_g makes the stage gain 2*(1+eps_g); dac_mismatch eps_d
    scales the subtracted DAC level to (1+eps_d)*vref. cmp_offset_hi/lo shift
    the two sub-ADC comparator thresholds (+vref/4 and -vref/4).
    """

    gain_mismatch: float = 0.0
    dac_mismatch: float = 0.0
    cmp_offset_hi: float = 0.0
    cmp_offset_lo: float = 0.0
    ota: OtaParams = OtaParams()


def _default_stages() -> tuple[StageParams, ...]:
    return tuple(StageParams() for _ in range(N_STAGES))


@dataclass(frozen=True)
class AdcConfig:
    """Full parameterization of the converter.

    One sample-and-hold in front, exactly six 1.5-bit stages, and a 2-bit
    flash with three thresholds. Drawn mismatch is stored as plain values;
    the seed it was drawn with is an argument of :func:`with_mismatch`.
    """

    reference: ReferenceConfig = ReferenceConfig()
    clock: ClockParams = ClockParams()
    sha: ShaParams = ShaParams()
    stages: tuple[StageParams, ...] = field(default_factory=_default_stages)
    flash_offsets: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CodeStream:
    """Corrected 8-bit output codes with their sample rate.

    codes is an int16 array with every value in [0, 255]. The first
    ``warmup`` entries were emitted while the pipeline was still filling and
    must be dropped by any metric.
    """

    codes: np.ndarray
    fs: float
    warmup: int = 0


# ---------------------------------------------------------------------------
# validation


def _check(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _check_type(node, kind: type, path: str) -> None:
    _check(isinstance(node, kind), path, f"expected {kind.__name__}, got {type(node).__name__}")


def _check_ota(o: OtaParams, path: str) -> None:
    _check_type(o, OtaParams, path)
    _check(not math.isnan(o.a0) and o.a0 >= 1.0, f"{path}.a0", "a0 must be >= 1")
    _check(not math.isnan(o.gbw) and o.gbw > 0.0, f"{path}.gbw", "gbw must be positive")
    _check(o.beta > 0.0, f"{path}.beta", "beta must be positive")
    _check(o.beta <= 1.0, f"{path}.beta", "beta must be <= 1")
    _check(0.0 <= o.k_mem <= 1.0, f"{path}.k_mem", "k_mem must be in [0, 1]")


def _check_stage(s: StageParams, path: str) -> None:
    _check_type(s, StageParams, path)
    _check(abs(s.gain_mismatch) < 0.5, f"{path}.gain_mismatch", "|gain_mismatch| must be < 0.5")
    _check(abs(s.dac_mismatch) < 0.5, f"{path}.dac_mismatch", "|dac_mismatch| must be < 0.5")
    _check(math.isfinite(s.cmp_offset_hi), f"{path}.cmp_offset_hi", "offset must be finite")
    _check(math.isfinite(s.cmp_offset_lo), f"{path}.cmp_offset_lo", "offset must be finite")
    _check_ota(s.ota, f"{path}.ota")


def validate(config: AdcConfig) -> AdcConfig:
    """Return the config unchanged if every invariant holds.

    Raises ConfigError naming the first violated field. Idempotent:
    validate(validate(c)) is c.
    """
    _check_type(config.reference, ReferenceConfig, "reference")
    _check(math.isfinite(config.reference.vref) and config.reference.vref > 0.0,
           "reference.vref", "vref must be positive")
    _check_type(config.clock, ClockParams, "clock")
    _check(math.isfinite(config.clock.fs) and config.clock.fs > 0.0,
           "clock.fs", "fs must be positive")
    _check(0.0 < config.clock.settle_fraction <= 0.5,
           "clock.settle_fraction", "settle_fraction must be in (0, 0.5]")
    _check_type(config.sha, ShaParams, "sha")
    _check_ota(config.sha.ota, "sha.ota")
    _check_type(config.stages, tuple, "stages")
    if len(config.stages) != N_STAGES:
        raise ConfigError("stages: expected 6")
    for i, st in enumerate(config.stages):
        _check_stage(st, f"stages[{i}]")
    _check_type(config.flash_offsets, tuple, "flash_offsets")
    if len(config.flash_offsets) != N_FLASH_THRESHOLDS:
        raise ConfigError("flash_offsets: expected 3 values")
    for i, off in enumerate(config.flash_offsets):
        _check(math.isfinite(off), f"flash_offsets[{i}]", "offset must be finite")
    return config


# ---------------------------------------------------------------------------
# presets


def default_config() -> AdcConfig:
    """Design-point preset: the amplifier as built (85 dB DC gain, 2.5 GHz GBW)."""
    return AdcConfig()


def ideal_config() -> AdcConfig:
    """Numerically ideal converter: huge gain and bandwidth, zero mismatch, reset on."""
    sha = ShaParams(OtaParams(a0=1e9, gbw=1e15, beta=1.0))
    stage = StageParams(ota=OtaParams(a0=1e9, gbw=1e15, beta=0.5))
    return AdcConfig(sha=sha, stages=tuple(stage for _ in range(N_STAGES)))


def degraded_config(seed: int = 0) -> AdcConfig:
    """Budget-limit preset: every OTA at the minimum derived gain and bandwidth.

    67 dB / 950 MHz at settle_fraction 0.387 puts both the static and the
    dynamic settling error near a quarter LSB per stage. On top of that,
    static gain/DAC mismatch and comparator offsets are drawn with the given
    seed (see :func:`with_mismatch`).

    Expected ENOB: about 7.96 as the mean over seeds 0-19 for a coherent
    full-scale 4096-point sine at 10.45 MHz, as the first-order error model
    of the residue law predicts (settling factor plus mismatch, referred to
    the input). The preset is not fitted to the silicon's measured ENOB of
    7.33; the noise, jitter and front-end distortion behind that loss are
    not modelled.
    """
    a0 = db_to_gain(67.0)
    sha = ShaParams(OtaParams(a0=a0, gbw=950e6, beta=1.0))
    stage = StageParams(ota=OtaParams(a0=a0, gbw=950e6, beta=0.5))
    return with_mismatch(AdcConfig(sha=sha, stages=tuple(stage for _ in range(N_STAGES))), seed)


def settling_fit_config() -> AdcConfig:
    """Preset fitted to the published full-swing step-settling chain.

    The SHA amplifier at 67 dB reproduces the 0.05 % hold error; the stage
    amplifiers at 73 dB keep the chained per-stage errors on the measured
    growth curve (within 0.5 % of the settled values through stage 4). GBW is
    left at the 2.5 GHz design value, where the dynamic term is negligible.
    """
    sha = ShaParams(OtaParams(a0=db_to_gain(67.0), gbw=2.5e9, beta=1.0))
    stage = StageParams(ota=OtaParams(a0=db_to_gain(73.0), gbw=2.5e9, beta=0.5))
    return AdcConfig(sha=sha, stages=tuple(stage for _ in range(N_STAGES)))


PRESETS = {
    "default": default_config,
    "ideal": ideal_config,
    "degraded": degraded_config,
    "settling-fit": settling_fit_config,
}


def preset_config(name: str, seed: int | None = None) -> AdcConfig:
    """The named preset; seed (default 0) picks the draw of the one preset that draws mismatch."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset: {name} (choose from {', '.join(sorted(PRESETS))})")
    if name == "degraded":
        return factory(seed=seed if seed is not None else 0)
    if seed is not None:
        raise ConfigError(f"preset {name} draws no mismatch, so it takes no seed")
    return factory()


def with_mismatch(base: AdcConfig, seed: int) -> AdcConfig:
    """Draw static mismatch and offsets once and return the resulting concrete config.

    Gaussian draws from ``np.random.default_rng(seed)``: gain and DAC mismatch
    per stage (GAIN_SIGMA, DAC_SIGMA), both comparator offsets per stage and
    the three flash threshold offsets (OFFSET_SIGMA). The same (base, seed)
    always yields the same config.
    """
    rng = np.random.default_rng(seed)
    # one draw in stage order (gain, dac, hi, lo), then the flash offsets:
    # the same floats as one scalar draw after another
    sigmas = [GAIN_SIGMA, DAC_SIGMA, OFFSET_SIGMA, OFFSET_SIGMA] * len(base.stages)
    draws = rng.normal(0.0, sigmas + [OFFSET_SIGMA] * N_FLASH_THRESHOLDS).tolist()
    stages = []
    for i, st in enumerate(base.stages):
        gain, dac, hi, lo = draws[4 * i:4 * i + 4]
        stages.append(replace(st, gain_mismatch=gain, dac_mismatch=dac,
                              cmp_offset_hi=hi, cmp_offset_lo=lo))
    flash = tuple(draws[len(sigmas):])
    return validate(replace(base, stages=tuple(stages), flash_offsets=flash))


# ---------------------------------------------------------------------------
# flat-key config file format
#
# One "dotted.path = value" per line, '#' starts a comment. The keys are the field
# paths of AdcConfig, tuple indices in brackets, read from the dataclasses by _children.


@functools.cache
def _children(kind):
    """Field name -> declared type of a dataclass, (element type,) of a tuple, else None."""
    if is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        return {f.name: hints[f.name] for f in fields(kind)}
    return typing.get_args(kind)[:1] if typing.get_origin(kind) is tuple else None


def _replace_leaf(node, kind, keys: list, value, path: str):
    """Return node (declared as kind) with the leaf that keys name set to value.

    The value is parsed by the leaf's declared type, not by the type of the
    value it replaces: bool through _as_bool, else float.
    """
    children = _children(kind)
    if not keys:
        if children is not None:
            raise ConfigError(f"unknown key: {path}")
        parse = _as_bool if kind is bool else float
        try:
            return parse(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {path}: {value!r}") from exc
    key, rest = keys[0], keys[1:]
    if isinstance(children, tuple) and isinstance(key, int) and key < len(node):
        leaf = _replace_leaf(node[key], children[0], rest, value, path)
        return (*node[:key], leaf, *node[key + 1:])
    if kind is OtaParams and key == "a0_db" and not rest:
        try:
            return replace(node, a0=db_to_gain(_replace_leaf(node.a0, float, rest, value, path)))
        except OverflowError as exc:
            raise ConfigError(f"bad value for {path}: {value!r}") from exc
    if isinstance(children, dict) and key in children:
        leaf = _replace_leaf(getattr(node, key), children[key], rest, value, path)
        return replace(node, **{key: leaf})
    raise ConfigError(f"unknown key: {path}")


def set_param(config: AdcConfig, path: str, value) -> AdcConfig:
    """Return a copy of config with the dotted-path parameter replaced.

    Paths are the config file keys: ``clock.fs``, ``reference.vref``,
    ``sha.ota.beta``, ``stages[2].gain_mismatch``, ``flash_offsets[0]``. Two
    conveniences: gains may be set in dB through an ``a0_db`` leaf, and the
    prefix ``ota.`` broadcasts one amplifier field to the SHA and all six stages.
    """
    keys = [int(m[1]) if (m := re.fullmatch(r"\[(\d+)\]", k)) else k
            for k in re.split(r"\.|(?=\[)", path)]
    if keys[0] == "ota":
        sha, *stages = (_replace_leaf(node, type(node), keys, value, path)
                        for node in (config.sha, *config.stages))
        return replace(config, sha=sha, stages=tuple(stages))
    return _replace_leaf(config, AdcConfig, keys, value, path)


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        if value.lower() in ("true", "1", "yes", "on"):
            return True
        if value.lower() in ("false", "0", "no", "off"):
            return False
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    raise ConfigError(f"bad boolean: {value!r}")


def _leaves(node, kind, path: str):
    """(key, value text) for every leaf below node (declared as kind), in field order."""
    children = _children(kind)
    if isinstance(children, dict):
        for name, child in children.items():
            yield from _leaves(getattr(node, name), child, f"{path}.{name}" if path else name)
    elif isinstance(children, tuple):
        for i, item in enumerate(node):
            yield from _leaves(item, children[0], f"{path}[{i}]")
    else:
        yield path, str(node).lower() if isinstance(node, bool) else repr(node)


def config_to_text(config: AdcConfig) -> str:
    """Serialize every parameter as flat key = value lines (exact round trip)."""
    return "# pipeadc configuration\n" + "".join(f"{k} = {v}\n" for k, v in _leaves(config, AdcConfig, ""))


def parse_config_text(text: str) -> AdcConfig:
    """Parse flat key = value lines onto the default config."""
    config = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        config = set_param(config, key.strip(), value.strip())
    return validate(config)


def load_config(path) -> AdcConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def save_config(config: AdcConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(config))
