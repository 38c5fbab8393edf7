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

import math
from dataclasses import dataclass, field, replace

import numpy as np

N_BITS = 8
N_STAGES = 6
N_FLASH_THRESHOLDS = 3


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
class StageParams:
    """Per-stage non-idealities plus the amplifier used for its residue.

    gain_mismatch eps_g makes the stage gain 2*(1+eps_g); dac_mismatch eps_d
    scales the subtracted DAC level to (1+eps_d)*vref. cmp_offset_hi/lo shift
    the two sub-ADC comparator thresholds (+vref/4 and -vref/4). The SHA slot
    reuses this type; only its ota field is meaningful there.
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
    flash with three thresholds. rng_seed fixes every Monte Carlo draw made
    from this config.
    """

    reference: ReferenceConfig = ReferenceConfig()
    clock: ClockParams = ClockParams()
    sha: StageParams = StageParams(ota=OtaParams(beta=1.0))
    stages: tuple[StageParams, ...] = field(default_factory=_default_stages)
    flash_offsets: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rng_seed: int = 0


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


def _check_ota(o: OtaParams, path: str) -> None:
    _check(not math.isnan(o.a0) and o.a0 >= 1.0, f"{path}.a0", "a0 must be >= 1")
    _check(not math.isnan(o.gbw) and o.gbw > 0.0, f"{path}.gbw", "gbw must be positive")
    _check(o.beta > 0.0, f"{path}.beta", "beta must be positive")
    _check(o.beta <= 1.0, f"{path}.beta", "beta must be <= 1")
    _check(0.0 <= o.k_mem <= 1.0, f"{path}.k_mem", "k_mem must be in [0, 1]")


def _check_stage(s: StageParams, path: str) -> None:
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
    _check(math.isfinite(config.reference.vref) and config.reference.vref > 0.0,
           "reference.vref", "vref must be positive")
    _check(math.isfinite(config.clock.fs) and config.clock.fs > 0.0,
           "clock.fs", "fs must be positive")
    _check(0.0 < config.clock.settle_fraction <= 0.5,
           "clock.settle_fraction", "settle_fraction must be in (0, 0.5]")
    _check_stage(config.sha, "sha")
    if len(config.stages) != N_STAGES:
        raise ConfigError("stages: expected 6")
    for i, st in enumerate(config.stages):
        _check_stage(st, f"stages[{i}]")
    if len(config.flash_offsets) != N_FLASH_THRESHOLDS:
        raise ConfigError("flash_offsets: expected 3 values")
    for i, off in enumerate(config.flash_offsets):
        _check(math.isfinite(off), f"flash_offsets[{i}]", "offset must be finite")
    _check(isinstance(config.rng_seed, int) and not isinstance(config.rng_seed, bool),
           "rng_seed", "rng_seed must be an integer")
    return config


# ---------------------------------------------------------------------------
# presets


def default_config(seed: int = 0) -> AdcConfig:
    """Design-point preset: the amplifier as built (85 dB DC gain, 2.5 GHz GBW)."""
    return replace(AdcConfig(), rng_seed=seed)


def ideal_config(seed: int = 0) -> AdcConfig:
    """Numerically ideal converter: huge gain and bandwidth, zero mismatch, reset on."""
    sha = StageParams(ota=OtaParams(a0=1e9, gbw=1e15, beta=1.0))
    stage = StageParams(ota=OtaParams(a0=1e9, gbw=1e15, beta=0.5))
    return AdcConfig(sha=sha, stages=tuple(stage for _ in range(N_STAGES)), rng_seed=seed)


def degraded_config(seed: int = 0,
                    gain_sigma: float = 1e-3,
                    dac_sigma: float = 1e-3,
                    offset_sigma: float = 5e-3) -> AdcConfig:
    """Budget-limit preset: every OTA at the minimum derived gain and bandwidth.

    67 dB / 950 MHz at settle_fraction 0.387 puts both the static and the
    dynamic settling error near a quarter LSB per stage. On top of that,
    static gain/DAC mismatch and comparator offsets are drawn from the given
    sigmas with the given seed.

    Expected ENOB: about 7.96 as the mean over seeds 0-19 for a coherent
    full-scale 4096-point sine at 10.45 MHz, as the first-order error model
    of the residue law predicts (settling factor plus mismatch, referred to
    the input). The preset is not fitted to the silicon's measured ENOB of
    7.33; the noise, jitter and front-end distortion behind that loss are
    not modelled.
    """
    a0 = db_to_gain(67.0)
    sha = StageParams(ota=OtaParams(a0=a0, gbw=950e6, beta=1.0))
    stage = StageParams(ota=OtaParams(a0=a0, gbw=950e6, beta=0.5))
    base = AdcConfig(sha=sha, stages=tuple(stage for _ in range(N_STAGES)), rng_seed=seed)
    return with_mismatch(base, gain_sigma, dac_sigma, offset_sigma, seed=seed)


def settling_fit_config() -> AdcConfig:
    """Preset fitted to the published full-swing step-settling chain.

    The SHA amplifier at 67 dB reproduces the 0.05 % hold error; the stage
    amplifiers at 73 dB keep the chained per-stage errors on the measured
    growth curve (within 0.5 % of the settled values through stage 4). GBW is
    left at the 2.5 GHz design value, where the dynamic term is negligible.
    """
    sha = StageParams(ota=OtaParams(a0=db_to_gain(67.0), gbw=2.5e9, beta=1.0))
    stage = StageParams(ota=OtaParams(a0=db_to_gain(73.0), gbw=2.5e9, beta=0.5))
    return AdcConfig(sha=sha, stages=tuple(stage for _ in range(N_STAGES)))


PRESETS = {
    "default": default_config,
    "ideal": ideal_config,
    "degraded": degraded_config,
    "settling-fit": lambda seed=0: settling_fit_config(),
}


def preset_config(name: str, seed: int | None = None) -> AdcConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset: {name} (choose from {', '.join(sorted(PRESETS))})")
    return factory(seed=seed if seed is not None else 0)


def with_mismatch(base: AdcConfig,
                  gain_sigma: float,
                  dac_sigma: float,
                  offset_sigma: float,
                  seed: int | None = None) -> AdcConfig:
    """Draw static mismatch and offsets once and return the resulting concrete config.

    Gaussian draws: gain and DAC mismatch per stage, both comparator offsets
    per stage, and the three flash threshold offsets. Mismatch draws are
    clipped to +-0.49 to stay inside the validity domain (never reached for
    realistic sigmas). The same (base, sigmas, seed) always yields the same
    config.
    """
    rng = np.random.default_rng(base.rng_seed if seed is None else seed)
    clip = 0.49
    # one draw in stage order (gain, dac, hi, lo), then the flash offsets:
    # the same floats as one scalar draw after another
    sigmas = [gain_sigma, dac_sigma, offset_sigma, offset_sigma] * len(base.stages)
    draws = rng.normal(0.0, sigmas + [offset_sigma] * N_FLASH_THRESHOLDS).tolist()
    stages = []
    for i, st in enumerate(base.stages):
        gain, dac, hi, lo = draws[4 * i:4 * i + 4]
        stages.append(replace(st, gain_mismatch=min(max(gain, -clip), clip),
                              dac_mismatch=min(max(dac, -clip), clip),
                              cmp_offset_hi=hi, cmp_offset_lo=lo))
    flash = tuple(draws[len(sigmas):])
    out = replace(base, stages=tuple(stages), flash_offsets=flash,
                  rng_seed=base.rng_seed if seed is None else seed)
    return validate(out)


# ---------------------------------------------------------------------------
# flat-key config file format
#
# One "dotted.path = value" per line, comments start with '#'. Unknown keys
# are errors. A file holds overrides applied on top of the default preset, so
# a partial file is valid; config_to_text always emits every key, which makes
# serialize -> parse an exact round trip.

_OTA_FIELDS = ("a0", "gbw", "beta", "k_mem")
_STAGE_FIELDS = ("gain_mismatch", "dac_mismatch", "cmp_offset_hi", "cmp_offset_lo")


def _set_ota(ota: OtaParams, key: str, value: float) -> OtaParams:
    if key == "a0_db":
        return replace(ota, a0=db_to_gain(float(value)))
    if key in _OTA_FIELDS:
        return replace(ota, **{key: float(value)})
    raise ConfigError(f"unknown key: ota.{key}")


def _set_stage(stage: StageParams, path: str, value: float) -> StageParams:
    head, _, rest = path.partition(".")
    if head == "ota" and rest:
        return replace(stage, ota=_set_ota(stage.ota, rest, value))
    if head in _STAGE_FIELDS and not rest:
        return replace(stage, **{head: float(value)})
    raise ConfigError(f"unknown key: {path}")


def set_param(config: AdcConfig, path: str, value) -> AdcConfig:
    """Return a copy of config with the dotted-path parameter replaced.

    Paths mirror the config file keys: ``clock.fs``, ``reference.vref``,
    ``sha.ota.beta``, ``stages[2].gain_mismatch``, ``flash_offsets[0]``,
    ``rng_seed``. Two conveniences: gains may be set in dB through an
    ``a0_db`` leaf, and the prefix ``ota.`` broadcasts one amplifier field to
    the SHA and all six stages at once.
    """
    if path == "rng_seed":
        try:
            return replace(config, rng_seed=int(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for rng_seed: {value!r}") from exc
    head, _, rest = path.partition(".")
    try:
        if head == "reference" and rest == "vref":
            return replace(config, reference=replace(config.reference, vref=float(value)))
        if head == "clock":
            if rest == "reset_enabled":
                return replace(config, clock=replace(config.clock, reset_enabled=_as_bool(value)))
            if rest in ("fs", "settle_fraction"):
                return replace(config, clock=replace(config.clock, **{rest: float(value)}))
        if head == "sha" and rest:
            return replace(config, sha=_set_stage(config.sha, rest, value))
        if head == "ota" and rest:
            out = replace(config, sha=replace(config.sha, ota=_set_ota(config.sha.ota, rest, value)))
            stages = tuple(replace(st, ota=_set_ota(st.ota, rest, value)) for st in out.stages)
            return replace(out, stages=stages)
        if head.startswith("stages[") and head.endswith("]") and rest:
            i = int(head[7:-1])
            if not 0 <= i < len(config.stages):
                raise ConfigError(f"unknown key: {path} (stage index out of range)")
            stages = list(config.stages)
            stages[i] = _set_stage(stages[i], rest, value)
            return replace(config, stages=tuple(stages))
        if head.startswith("flash_offsets[") and head.endswith("]") and not rest:
            i = int(head[14:-1])
            if not 0 <= i < N_FLASH_THRESHOLDS:
                raise ConfigError(f"unknown key: {path} (offset index out of range)")
            offs = list(config.flash_offsets)
            offs[i] = float(value)
            return replace(config, flash_offsets=(offs[0], offs[1], offs[2]))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad value for {path}: {value!r}") from exc
    raise ConfigError(f"unknown key: {path}")


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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def config_to_text(config: AdcConfig) -> str:
    """Serialize every parameter as flat key = value lines (exact round trip)."""
    lines = ["# pipeadc configuration"]
    lines.append(f"reference.vref = {_fmt(config.reference.vref)}")
    lines.append(f"clock.fs = {_fmt(config.clock.fs)}")
    lines.append(f"clock.settle_fraction = {_fmt(config.clock.settle_fraction)}")
    lines.append(f"clock.reset_enabled = {_fmt(config.clock.reset_enabled)}")
    lines.append(f"rng_seed = {config.rng_seed}")

    def stage_lines(prefix: str, st: StageParams) -> None:
        for f in _STAGE_FIELDS:
            lines.append(f"{prefix}.{f} = {_fmt(getattr(st, f))}")
        for f in _OTA_FIELDS:
            lines.append(f"{prefix}.ota.{f} = {_fmt(getattr(st.ota, f))}")

    stage_lines("sha", config.sha)
    for i, st in enumerate(config.stages):
        stage_lines(f"stages[{i}]", st)
    for i, off in enumerate(config.flash_offsets):
        lines.append(f"flash_offsets[{i}] = {_fmt(off)}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, base: AdcConfig | None = None) -> AdcConfig:
    """Parse flat key = value lines onto the default config (or the given base)."""
    config = base if base is not None else default_config()
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
