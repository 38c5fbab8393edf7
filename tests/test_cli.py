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
from rejections import REFUSED, arguments, check


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
    assert status == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("row", REFUSED, ids=lambda row: row.id)
def test_refused_command_keeps_the_contract(tmp_path, capsys, row):
    status, out, err = run(arguments(row, tmp_path), capsys)
    check(row, status, out, err, tmp_path)


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


# every subcommand, with the fewest arguments it parses with
SUBCOMMANDS = [["simulate"], ["linearity"], ["spectrum"], ["specs"],
               ["sweep", "--axis", "ota.a0_db", "--values", "60"], ["settle-report"]]


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=lambda c: c[0])
def test_every_subcommand_takes_the_common_options(command):
    parse = build_parser().parse_args
    args = parse(command)
    assert (args.config, args.seed, args.out) == ("default", None, Path("."))
    args = parse([*command, "--config", "ideal", "--seed", "2", "--out", "a/b"])
    assert (args.config, args.seed, args.out) == ("ideal", 2, Path("a/b"))


# each file-writing command at a small size, and the files it writes
WRITERS = [
    (["simulate", "--config", "ideal", "--waveform", "pulse", "--length", "64"], ["codes.csv"]),
    (["linearity", "--config", "ideal", "--samples", "16384"], ["linearity.csv", "linearity.gp"]),
    (["spectrum", "--config", "ideal", "--nfft", "256"], ["spectrum.csv", "spectrum.gp"]),
    (["sweep", "--config", "ideal", "--axis", "ota.a0_db", "--values", "60", "--nfft", "256"],
     ["sweep.csv", "sweep.gp"]),
    (["settle-report", "--config", "settling-fit"], ["settle_report.csv"]),
]


@pytest.mark.parametrize("command,files", WRITERS, ids=lambda c: c[0])
def test_without_out_a_command_writes_into_the_working_directory(tmp_path, monkeypatch, capsys,
                                                                  command, files):
    monkeypatch.chdir(tmp_path)
    status, out, _ = run(command, capsys)
    assert status == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    assert out.endswith(f" -> {files[0]}\n")


@pytest.mark.parametrize("command,files", WRITERS, ids=lambda c: c[0])
def test_a_command_creates_a_nested_out_directory(tmp_path, capsys, command, files):
    out_dir = tmp_path / "a" / "b" / "c"
    status, _, _ = run([*command, "--out", str(out_dir)], capsys)
    assert status == 0
    assert sorted(p.name for p in out_dir.iterdir()) == files


def test_specs_writes_nothing_and_creates_no_out_directory(tmp_path, capsys):
    status, _, _ = run(["specs", "--out", str(tmp_path / "a" / "b")], capsys)
    assert status == 0
    assert list(tmp_path.iterdir()) == []


def test_out_that_is_a_file_fails_with_message(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    status, out, err = run(["settle-report", "--config", "settling-fit",
                            "--out", str(tmp_path / "taken")], capsys)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_linearity_lists_missing_interior_codes(tmp_path, capsys):
    # a 5 % short first-stage DAC step opens gaps of three codes either side of mid-scale
    cfg_path = tmp_path / "dac.cfg"
    cfg_path.write_text("stages[0].dac_mismatch = -0.05\n")
    status, out, _ = run(["linearity", "--config", str(cfg_path), "--samples", "65536",
                          "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "missing interior codes: [93, 94, 95, 160, 161, 162]\n" in out


def test_settle_report_command(tmp_path, capsys):
    status, out, _ = run(["settle-report", "--config", "settling-fit",
                          "--out", str(tmp_path)], capsys)
    assert status == 0
    assert "SHA" in out and "Stage6" in out
    lines = (tmp_path / "settle_report.csv").read_text().splitlines()
    assert lines[0] == "stage,ideal_mv,simulated_mv,error_pct"
    assert len(lines) == 8


def test_specs_builds_no_engine_so_prints_for_an_amplifier_that_never_settles(tmp_path, capsys):
    cfg_path = tmp_path / "dead.cfg"
    cfg_path.write_text("ota.gbw = 1e-300\n")
    status, out, _ = run(["specs", "--config", str(cfg_path)], capsys)
    assert status == 0
    assert out.startswith("error budget: ")


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

