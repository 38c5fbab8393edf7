"""Command-line front end.

Subcommands: simulate, linearity, spectrum, specs, sweep, settle-report.
Every command takes --config (a preset name or a config file path), --seed
and --out; outputs are CSV files plus gnuplot command scripts. Identical
arguments, config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import reports
from .config import ConfigError, PRESETS, load_config, preset_config
from .correction import correct_result, digitize
from .engine import PIPELINE_LATENCY_SAMPLES, PipelineEngine, settle_report
from .metrics import coherent_frequency, ramp_linearity, sndr_sfdr_enob, spectrum
from .solver import Budget, SWEEP_METRICS, budget_from_config, min_dc_gain, min_gbw, sweep
from .waveforms import KINDS, Waveform, generate

OUT_DIR_ENV = "PIPEADC_OUT_DIR"


def _resolve_config(args):
    name = args.config
    if name in PRESETS:
        config = preset_config(name, seed=args.seed)
    elif Path(name).exists():
        config = load_config(name)
        if args.seed is not None:
            config = replace(config, rng_seed=args.seed)
    else:
        raise ConfigError(
            f"config {name!r} is neither a preset ({', '.join(sorted(PRESETS))}) nor a file")
    return config


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="default",
                        help="preset name or config file path (default: default)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's rng seed")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or the cwd)")


def _cmd_simulate(args) -> int:
    config = _resolve_config(args)
    vref = config.reference.vref
    fs = config.clock.fs
    amplitude = vref if args.amplitude is None else args.amplitude
    if args.waveform == "sine":
        freq = args.frequency
        if freq is None:
            freq, _ = coherent_frequency(fs, 4096, fs / 16.0)
        wave = Waveform(kind="sine", length=args.length, amplitude=amplitude, frequency=freq)
    elif args.waveform in ("ramp", "pulse"):
        wave = Waveform(kind=args.waveform, length=args.length,
                        v_low=args.v_low if args.v_low is not None else -vref,
                        v_high=args.v_high if args.v_high is not None else vref)
    else:
        wave = Waveform(kind="dc", length=args.length, amplitude=amplitude)
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
    config = _resolve_config(args)
    vref = config.reference.vref
    wave = Waveform(kind="ramp", length=args.samples + PIPELINE_LATENCY_SAMPLES,
                    v_low=-vref, v_high=vref)
    stream = digitize(generate(wave, config.clock), config)
    report = ramp_linearity(stream)
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
    fs = config.clock.fs
    vref = config.reference.vref
    f_target = args.freq if args.freq is not None else fs / 16.0
    f_in, signal_bin = coherent_frequency(fs, args.nfft, f_target)
    wave = Waveform(kind="sine", length=args.nfft + PIPELINE_LATENCY_SAMPLES,
                    amplitude=vref if args.amplitude is None else args.amplitude,
                    frequency=f_in)
    stream = digitize(generate(wave, config.clock), config)
    report = sndr_sfdr_enob(spectrum(stream, args.nfft, window=args.window), signal_bin)
    out = _out_dir(args)
    csv_path = reports.write_spectrum_csv(out / "spectrum.csv", report)
    reports.write_spectrum_plot(out / "spectrum.gp", csv_path.name)
    print(f"f_in = {f_in / 1e6:.4f} MHz (bin {signal_bin} of {args.nfft})")
    print(f"SNDR = {report.sndr_db:.2f} dB, SFDR = {report.sfdr_db:.2f} dB, "
          f"ENOB = {report.enob:.2f} bit")
    print(f"spectrum -> {csv_path}")
    return 0


def _cmd_specs(args) -> int:
    config = _resolve_config(args)
    budget = budget_from_config(config, n_bits=args.n_bits, err_fraction=args.err_fraction)
    gain = min_dc_gain(budget)
    gbw = min_gbw(budget)
    print(f"error budget: {args.err_fraction:g} LSB static + {args.err_fraction:g} LSB dynamic "
          f"at {args.n_bits} bits, beta = {budget.beta:g}")
    print(f"A0  >= {gain.linear:.0f} ({gain.db:.1f} dB; "
          f"round up to {math.ceil(gain.db)} dB for margin)")
    print(f"GBW >= {gbw / 1e6:.0f} MHz @ settle_fraction {config.clock.settle_fraction:g} "
          f"(t_settle = {budget.t_settle * 1e9:.3f} ns)")
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
    p.add_argument("--length", type=int, default=4096 + PIPELINE_LATENCY_SAMPLES)
    p.add_argument("--amplitude", type=float, default=None, help="volts (default: vref)")
    p.add_argument("--frequency", type=float, default=None,
                   help="sine frequency in Hz (default: coherent near fs/16)")
    p.add_argument("--v-low", type=float, default=None, help="ramp/pulse low edge (default: -vref)")
    p.add_argument("--v-high", type=float, default=None, help="ramp/pulse high edge (default: +vref)")
    p.add_argument("--trace", action="store_true", help="also dump the per-sample residue trace")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("linearity", help="ramp code-density DNL/INL test")
    _add_common(p)
    p.add_argument("--samples", type=int, default=2 ** 20)
    p.set_defaults(func=_cmd_linearity)

    p = sub.add_parser("spectrum", help="coherent sine capture with SNDR/SFDR/ENOB")
    _add_common(p)
    p.add_argument("--nfft", type=int, default=4096)
    p.add_argument("--freq", type=float, default=None,
                   help="target input frequency in Hz (snapped to a coherent bin)")
    p.add_argument("--amplitude", type=float, default=None, help="volts (default: vref)")
    p.add_argument("--window", choices=("rectangular", "hann"), default="rectangular")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("specs", help="minimum DC gain and GBW from the error budget")
    _add_common(p)
    p.add_argument("--n-bits", type=int, default=8)
    p.add_argument("--err-fraction", type=float, default=0.25)
    p.set_defaults(func=_cmd_specs)

    p = sub.add_parser("sweep", help="sweep one parameter and record a metric")
    _add_common(p)
    p.add_argument("--axis", required=True, help="parameter path, e.g. ota.a0_db")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--metric", choices=SWEEP_METRICS, default="enob")
    p.add_argument("--nfft", type=int, default=4096)
    p.add_argument("--samples", type=int, default=2 ** 20, help="ramp length for inl/dnl")
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
