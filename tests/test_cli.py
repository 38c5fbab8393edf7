import os
import subprocess
import sys
from pathlib import Path

import pytest

import pipeadc
from pipeadc import (PipelineEngine, Waveform, coherent_frequency, correct_result,
                     default_config, degraded_config, generate, save_config)
from pipeadc.cli import build_parser, run_subcommand
from pipeadc.solver import N_FFT, RAMP_SAMPLES


def run(args, capsys):
    status = run_subcommand(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_specs_prints_requirements(tmp_path, capsys):
    status, out, _ = run(["specs", "--config", "default", "--out", str(tmp_path)], capsys)
    assert status == 0
    assert out == (
        "error budget: 0.25 LSB static + 0.25 LSB dynamic at 8 bits, beta = 0.5\n"
        "A0  >= 2048 (66.2 dB; round up to 67 dB for margin)\n"
        "GBW >= 950 MHz @ settle_fraction 0.387 (t_settle = 2.323 ns)\n")


def test_module_entry_point_runs_command(tmp_path):
    # ``python -m pipeadc.cli`` runs the command, as the installed script does
    src = str(Path(pipeadc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "pipeadc.cli", "specs", "--config", "default",
                           "--out", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "66.2" in proc.stdout
    assert "950 MHz" in proc.stdout


def test_unknown_subcommand_fails(capsys):
    status, _, err = run(["frobnicate"], capsys)
    assert status != 0


def test_unknown_config_fails(tmp_path, capsys):
    status, _, err = run(["specs", "--config", "no-such-thing", "--out", str(tmp_path)], capsys)
    assert status == 1
    assert "error:" in err


def test_simulate_emits_codes_csv(tmp_path, capsys):
    status, out, _ = run(["simulate", "--config", "ideal", "--waveform", "dc",
                          "--amplitude", "0.25", "--length", "64",
                          "--out", str(tmp_path)], capsys)
    assert status == 0
    lines = (tmp_path / "codes.csv").read_text().splitlines()
    assert lines[0] == "sample_index,code,warmup_flag"
    assert len(lines) == 65
    # 0.25 V on the ideal 8-bit scale: floor((0.25+0.6)/1.2*256) = 181
    assert lines[20].split(",")[1] == "181"
    assert lines[1].split(",")[2] == "1"  # warm-up flagged
    assert lines[10].split(",")[2] == "0"


@pytest.mark.parametrize("kind", ["sine", "ramp", "pulse", "dc"])
def test_simulate_converts_the_stimulus_of_its_kind(tmp_path, capsys, kind):
    # the chain built by hand: the sine is the coherent tone nearest fs/16 of
    # a 4096 record and the dc level is --amplitude; ramp and pulse ignore
    # --amplitude and span -vref to +vref
    config = degraded_config(seed=3)
    vref, fs = config.reference.vref, config.clock.fs
    wave = {"sine": Waveform("sine", 300, amplitude=0.3,
                             frequency=coherent_frequency(fs, 4096, fs / 16.0)[0]),
            "ramp": Waveform("ramp", 300, v_low=-vref, v_high=vref),
            "pulse": Waveform("pulse", 300, v_low=-vref, v_high=vref),
            "dc": Waveform("dc", 300, amplitude=0.3)}[kind]
    want = correct_result(PipelineEngine(config).simulate(generate(wave, config.clock))).codes
    status, _, _ = run(["simulate", "--config", "degraded", "--seed", "3", "--waveform", kind,
                        "--length", "300", "--amplitude", "0.3", "--out", str(tmp_path)], capsys)
    assert status == 0
    rows = (tmp_path / "codes.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == want.tolist()


def test_simulate_trace_dump(tmp_path, capsys):
    status, _, _ = run(["simulate", "--config", "ideal", "--waveform", "pulse",
                        "--length", "16", "--trace", "--out", str(tmp_path)], capsys)
    assert status == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["n", "vin_v", "sha_v"]
    assert "dflash" in lines[0]
    assert len(lines) == 17


def test_linearity_command(tmp_path, capsys):
    status, out, _ = run(["linearity", "--config", "ideal", "--samples", "131072",
                          "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "max |DNL|" in out and "max |INL|" in out
    csv_lines = (tmp_path / "linearity.csv").read_text().splitlines()
    assert csv_lines[0] == "code,dnl_lsb,inl_lsb"
    assert len(csv_lines) == 257
    assert (tmp_path / "linearity.gp").exists()


def test_spectrum_command(tmp_path, capsys):
    status, out, _ = run(["spectrum", "--config", "ideal", "--nfft", "1024",
                          "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "SNDR" in out and "ENOB" in out
    csv_lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert csv_lines[0] == "bin,freq_hz,power_db"
    assert len(csv_lines) == 1024 // 2 + 2
    assert (tmp_path / "spectrum.gp").exists()


def test_spectrum_labels_bins_at_the_config_sample_rate(tmp_path, capsys):
    # freq_hz is k * fs/n_fft for the config's own fs, not the default 166.6 MHz,
    # for bins 0 to n_fft/2
    cfg_path = tmp_path / "slow.cfg"
    cfg_path.write_text("clock.fs = 100e6\n")
    status, _, _ = run(["spectrum", "--config", str(cfg_path), "--nfft", "256",
                        "--out", str(tmp_path)], capsys)
    assert status == 0
    rows = [line.split(",") for line in
            (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[str(k), repr(k * (100e6 / 256))] for k in range(129)]


@pytest.mark.parametrize("nfft", ["0", "-4", "2", "4", "1000"])
@pytest.mark.parametrize("command", [["spectrum"], ["sweep", "--axis", "ota.a0_db",
                                                    "--values", "60", "--metric", "enob"]])
def test_bad_nfft_fails_with_message(tmp_path, capsys, command, nfft):
    status, _, err = run(command + ["--config", "ideal", "--nfft", nfft,
                                    "--out", str(tmp_path)], capsys)
    assert status == 1
    assert err.startswith("error:") and "n_fft" in err


def test_parser_record_defaults_come_from_solver():
    parse = build_parser().parse_args
    sweep = parse(["sweep", "--axis", "ota.a0_db", "--values", "60"])
    assert parse(["spectrum"]).nfft == sweep.nfft == N_FFT
    assert parse(["linearity"]).samples == sweep.samples == RAMP_SAMPLES
    assert parse(["simulate"]).length == N_FFT + pipeadc.PIPELINE_LATENCY_SAMPLES


def test_sweep_command(tmp_path, capsys):
    status, out, _ = run(["sweep", "--config", "ideal", "--axis", "ota.a0_db",
                          "--values", "60,100", "--metric", "enob",
                          "--nfft", "1024", "--out", str(tmp_path)], capsys)
    assert status == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "ota.a0_db,enob_bits"
    assert len(lines) == 3


def test_sweep_empty_values_header_only(tmp_path, capsys):
    status, _, _ = run(["sweep", "--config", "ideal", "--axis", "ota.a0_db",
                        "--values", "", "--metric", "enob", "--out", str(tmp_path)], capsys)
    assert status == 0
    assert (tmp_path / "sweep.csv").read_text() == "ota.a0_db,enob_bits\n"


def test_settle_report_command(tmp_path, capsys):
    status, out, _ = run(["settle-report", "--config", "settling-fit",
                          "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "SHA" in out and "Stage6" in out
    lines = (tmp_path / "settle_report.csv").read_text().splitlines()
    assert lines[0] == "stage,ideal_mv,simulated_mv,error_pct"
    assert len(lines) == 8


def test_settle_report_on_sha_settling_to_zero_fails_with_message(tmp_path, capsys):
    cfg_path = tmp_path / "slow.cfg"
    cfg_path.write_text("ota.gbw = 1e-300\n")
    status, _, err = run(["settle-report", "--config", str(cfg_path), "--out", str(tmp_path)],
                         capsys)
    assert status == 1
    assert err.startswith("error: Stage1: its input, the SHA output, settled to 0 V")


@pytest.mark.parametrize("args", [
    ["specs", "--config", "{cfg}"],
    ["sweep", "--axis", "ota.a0_db", "--values", "7000"],
])
def test_a0_db_beyond_float_range_fails_with_message(tmp_path, capsys, args):
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("ota.a0_db = 7000\n")
    args = [a.format(cfg=cfg_path) for a in args]
    status, _, err = run([*args, "--out", str(tmp_path)], capsys)
    assert status == 1
    assert err.startswith("error: bad value for ota.a0_db: ")


def test_specs_margin_hint_rounds_up_the_required_gain(tmp_path, capsys):
    status, out, _ = run(["specs", "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "A0  >= 2048 (66.2 dB; round up to 67 dB for margin)" in out


@pytest.mark.parametrize("args", [
    ["spectrum", "--window", "hann"],
    ["specs", "--n-bits", "10"],
    ["specs", "--err-fraction", "0.1"],
    ["spectrum", "--freq", "1e6"],
    ["spectrum", "--amplitude", "0.3"],
    ["simulate", "--frequency", "1e6"],
    ["simulate", "--v-low", "-0.3"],
    ["simulate", "--v-high", "0.3"],
])
def test_removed_measurement_options_are_usage_errors(tmp_path, capsys, args):
    status, _, err = run([*args, "--out", str(tmp_path)], capsys)
    assert status == 2
    assert "unrecognized arguments" in err


def test_non_integer_seed_sweep_fails_with_message(tmp_path, capsys):
    status, _, err = run(["sweep", "--axis", "rng_seed", "--values", "inf", "--nfft", "256",
                          "--out", str(tmp_path)], capsys)
    assert status == 1
    assert err == "error: unknown key: rng_seed\n"


@pytest.mark.parametrize("config", ["ideal", "{cfg}"], ids=["preset", "file"])
def test_seed_without_a_mismatch_draw_fails_with_message(tmp_path, capsys, config):
    cfg_path = tmp_path / "my.cfg"
    save_config(default_config(), cfg_path)
    status, out, err = run(["spectrum", "--config", config.format(cfg=cfg_path), "--seed", "1",
                            "--nfft", "256", "--out", str(tmp_path)], capsys)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_roundtrip_through_cli(tmp_path, capsys):
    cfg_path = tmp_path / "my.cfg"
    save_config(default_config(), cfg_path)
    status, out, _ = run(["specs", "--config", str(cfg_path), "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "66.2" in out


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        status, _, _ = run(["linearity", "--config", "degraded", "--seed", "5",
                            "--samples", "131072", "--out", str(out_dir)], capsys)
        assert status == 0
    assert (a / "linearity.csv").read_bytes() == (b / "linearity.csv").read_bytes()
    assert (a / "linearity.gp").read_bytes() == (b / "linearity.gp").read_bytes()

