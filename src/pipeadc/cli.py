"""Command-line front end.

Subcommands: simulate, linearity, spectrum, specs, sweep, settle-report.
Every command takes --config (a preset name or a config file path), --seed
and --out; outputs are CSV files plus gnuplot command scripts. Identical
arguments, config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import reports
from .config import ConfigError, MDAC_BETA, N_BITS, PRESETS, gain_to_db, load_config, preset_config
from .engine import PIPELINE_LATENCY_SAMPLES, PipelineEngine
# digitize and the metrics are called through solver's sine_tone, sine_report and
# ramp_report; bench/tracer.py patches them in this module as well, so they stay imported here
from .correction import correct_result, digitize  # noqa: F401
from .metrics import coherent_frequency, ramp_linearity, sndr_sfdr_enob, spectrum  # noqa: F401
from .solver import (ERR_FRACTION, MIN_DC_GAIN, N_FFT, RAMP_SAMPLES, SWEEP_METRICS, min_gbw,
                     ramp_report, settle_report, sine_report, sine_tone, sweep)
from .waveforms import KINDS, Waveform, generate


def _resolve_config(args):
    name = args.config
    if name in PRESETS:
        config = preset_config(name, seed=args.seed)
    elif Path(name).exists():
        if args.seed is not None:
            raise ConfigError("--seed applies to the degraded preset only; "
                              f"config file {name!r} already holds its drawn values")
        config = load_config(name)
    else:
        raise ConfigError(
            f"config {name!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file")
    return config


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="default",
                        help="preset name or config file path (default: default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="mismatch draw of the degraded preset (default: 0)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: the cwd)")


def _cmd_simulate(args) -> int:
    config = _resolve_config(args)
    vref, fs = config.reference.vref, config.clock.fs
    # generate reads only the fields of its kind
    wave = Waveform(kind=args.waveform, length=args.length,
                    amplitude=vref if args.amplitude is None else args.amplitude,
                    frequency=sine_tone(fs, N_FFT)[0], v_low=-vref, v_high=vref)
    samples = generate(wave, config.clock)
    engine = PipelineEngine(config)
    result = engine.simulate(samples, record_residues=args.trace)
    stream = correct_result(result)
    out = _out_dir(args)
    codes_path = reports.write_codes_csv(out / "codes.csv", stream)
    print(f"{len(stream.codes)} codes ({stream.warmup} warm-up) -> {codes_path}")
    if args.trace:
        trace_path = reports.write_trace_csv(out / "trace.csv", result)
        print(f"per-sample trace -> {trace_path}")
    return 0


def _cmd_linearity(args) -> int:
    report = ramp_report(_resolve_config(args), args.samples)
    out = _out_dir(args)
    csv_path = reports.write_linearity_csv(out / "linearity.csv", report)
    reports.write_linearity_plot(out / "linearity.gp", csv_path.name)
    print(f"max |DNL| = {abs(report.max_dnl[0]):.4f} LSB at code {report.max_dnl[1]}")
    print(f"max |INL| = {abs(report.max_inl[0]):.4f} LSB at code {report.max_inl[1]}")
    if report.missing_codes:
        print(f"missing interior codes: {list(report.missing_codes)}")
    print(f"linearity -> {csv_path}")
    return 0


def _cmd_spectrum(args) -> int:
    config = _resolve_config(args)
    report, f_in = sine_report(config, args.nfft)
    out = _out_dir(args)
    csv_path = reports.write_spectrum_csv(out / "spectrum.csv", report,
                                          config.clock.fs / args.nfft)
    reports.write_spectrum_plot(out / "spectrum.gp", csv_path.name)
    print(f"f_in = {f_in / 1e6:.4f} MHz (bin {report.signal_bin} of {args.nfft})")
    print(f"SNDR = {report.sndr_db:.2f} dB, SFDR = {report.sfdr_db:.2f} dB, "
          f"ENOB = {report.enob:.2f} bit")
    print(f"spectrum -> {csv_path}")
    return 0


def _cmd_specs(args) -> int:
    config = _resolve_config(args)
    t_settle = config.clock.t_settle
    gain_db = gain_to_db(MIN_DC_GAIN)
    print(f"error budget: {ERR_FRACTION:g} LSB static + {ERR_FRACTION:g} LSB dynamic "
          f"at {N_BITS} bits, beta = {MDAC_BETA:g}")
    print(f"A0  >= {MIN_DC_GAIN:.0f} ({gain_db:.1f} dB; round up to {math.ceil(gain_db)} dB "
          "for margin)")
    print(f"GBW >= {min_gbw(t_settle) / 1e6:.0f} MHz @ settle_fraction "
          f"{config.clock.settle_fraction:g} (t_settle = {t_settle * 1e9:.3f} ns)")
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad sweep values: {args.values!r}")
    points = sweep(config, args.axis, values, args.metric,
                   n_fft=args.nfft, ramp_samples=args.samples, jobs=args.jobs)
    out = _out_dir(args)
    csv_path = reports.write_sweep_csv(out / "sweep.csv", args.axis, args.metric, points)
    reports.write_sweep_plot(out / "sweep.gp", csv_path.name, args.axis, args.metric)
    for p in points:
        print(f"{args.axis} = {p.value:g} -> {args.metric} = {p.metric:.4f}")
    print(f"sweep -> {csv_path}")
    return 0


def _cmd_settle_report(args) -> int:
    config = _resolve_config(args)
    rows = settle_report(config)
    out = _out_dir(args)
    csv_path = reports.write_settle_csv(out / "settle_report.csv", rows)
    print(f"{'stage':<8} {'ideal/mV':>10} {'simulated/mV':>14} {'error%':>8}")
    for r in rows:
        print(f"{r.stage:<8} {r.ideal_mv:>10.1f} {r.simulated_mv:>14.1f} {r.error_pct:>7.2f}%")
    print(f"settle report -> {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipeadc",
        description="Behavioral 8-bit 1.5-bit-per-stage pipelined ADC simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="convert a generated waveform and emit the code CSV")
    _add_common(p)
    p.add_argument("--waveform", choices=KINDS, default="sine")
    p.add_argument("--length", type=int, default=N_FFT + PIPELINE_LATENCY_SAMPLES)
    p.add_argument("--amplitude", type=float, default=None,
                   help="sine amplitude or dc level in volts (default: vref); the sine is "
                        "the coherent tone near fs/16, a ramp or pulse spans -vref to +vref")
    p.add_argument("--trace", action="store_true", help="also dump the per-sample residue trace")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("linearity", help="ramp code-density DNL/INL test")
    _add_common(p)
    p.add_argument("--samples", type=int, default=RAMP_SAMPLES)
    p.set_defaults(func=_cmd_linearity)

    p = sub.add_parser("spectrum", help="coherent full-scale sine near fs/16: SNDR/SFDR/ENOB")
    _add_common(p)
    p.add_argument("--nfft", type=int, default=N_FFT)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("specs", help="minimum DC gain and GBW from the 8-bit error budget")
    _add_common(p)
    p.set_defaults(func=_cmd_specs)

    p = sub.add_parser("sweep", help="sweep one parameter and record a metric")
    _add_common(p)
    p.add_argument("--axis", required=True, help="parameter path, e.g. ota.a0_db")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--metric", choices=SWEEP_METRICS, default="enob")
    p.add_argument("--nfft", type=int, default=N_FFT)
    p.add_argument("--samples", type=int, default=RAMP_SAMPLES, help="ramp length for inl/dnl")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("settle-report", help="full-swing step settling table")
    _add_common(p)
    p.set_defaults(func=_cmd_settle_report)
    return parser


def run_subcommand(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
