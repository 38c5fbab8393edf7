"""Behavioral 8-bit, 166 MS/s, 1.5-bit-per-stage pipelined ADC simulator."""

from .config import (AdcConfig, ClockParams, CodeStream, ConfigError, OtaParams,
                     ReferenceConfig, StageParams, db_to_gain, default_config,
                     degraded_config, gain_to_db, ideal_config, load_config,
                     parse_config_text, preset_config, save_config, set_param,
                     settling_fit_config, validate, with_mismatch)
from .correction import correct_result, correct_stream, digitize, ideal_quantize
from .engine import PIPELINE_LATENCY_SAMPLES, PipelineEngine, SimulationResult
from .metrics import (LinearityReport, SpectrumReport, coherent_frequency, ramp_linearity,
                      sndr_sfdr_enob, spectrum)
from .solver import (MIN_DC_GAIN, SettleRow, SweepPoint, min_gbw, ramp_report, settle_report,
                     sine_report, sweep)
from .stages import flash2b, mdac_residue, settle_coefficients, sub_adc_decide
from .waveforms import Waveform, generate

__version__ = "0.1.0"
