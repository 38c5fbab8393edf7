"""Behavioral 8-bit, 166 MS/s, 1.5-bit-per-stage pipelined ADC simulator."""

from .config import (AdcConfig, ClockParams, CodeStream, ConfigError, OtaParams,
                     ReferenceConfig, StageParams, db_to_gain, default_config,
                     degraded_config, gain_to_db, ideal_config, load_config,
                     parse_config_text, preset_config, save_config, set_param,
                     settling_fit_config, validate, with_mismatch)
from .correction import (CorrectionInput, align_and_correct, correct_result,
                         correct_stream, digitize, ideal_quantize)
from .engine import (PIPELINE_LATENCY_SAMPLES, PipelineEngine, PipelineState,
                     SettleRow, SimulationResult, settle_report, simulate)
from .metrics import (LinearityReport, SpectrumData, SpectrumReport,
                      coherent_frequency, ramp_linearity, sndr_sfdr_enob, spectrum)
from .solver import (Budget, GainRequirement, SweepPoint, budget_from_config,
                     min_dc_gain, min_gbw, relaxed_budgets, sweep)
from .stages import (SettleInput, comparator_diff, flash2b, mdac_residue,
                     ota_settle, settle_coefficients, sha_hold, sub_adc_decide)
from .waveforms import Waveform, generate

__version__ = "0.1.0"
