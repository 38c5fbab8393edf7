"""The CSV writers against the per-row writers they replaced, byte for byte.

The oracles below are the writers as they were before rows were formatted a
chunk at a time: ``csv.writer`` rows of ``int(...)`` and ``repr(float(x))``,
one numpy scalar at a time. Columns are cut from hypothesis-drawn pools that
always hold the awkward floats (signed zero, the smallest subnormal, the
repr switch to exponent form at 1e-05 and 1e16, large negatives), at lengths
around the chunk size.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipeadc import (CodeStream, LinearityReport, SettleRow, SimulationResult, SpectrumReport,
                     SweepPoint, reports)
from pipeadc.reports import CHUNK_ROWS

LENGTHS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3]
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 1e22, -1e22, -1.7976931348623157e308,
           -123456789.125, 0.1, math.inf, -math.inf, math.nan]
CHECK = settings(derandomize=True, deadline=None, max_examples=2, database=None)

floats = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40).map(
    lambda drawn: SPECIAL + drawn)
ints = st.lists(st.integers(0, 255), min_size=1, max_size=40)


def column(pool, n, shift=0, dtype=float):
    return np.resize(np.roll(np.asarray(pool, dtype=dtype), shift), n)


# --- oracles: the per-row writers --------------------------------------------------


def _oracle_write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _f(x) -> str:
    return repr(float(x))


def oracle_codes(path, stream):
    rows = ((n, int(c), int(n < stream.warmup))
            for n, c in enumerate(np.asarray(stream.codes)))
    _oracle_write(path, ["sample_index", "code", "warmup_flag"], rows)


def oracle_trace(path, result):
    header = (["n", "vin_v", "sha_v"]
              + [f"stage{k}_residue_v" for k in range(1, 7)]
              + [f"d{k}" for k in range(1, 7)] + ["dflash"])
    rows = []
    for n in range(len(result.flash)):
        row = [n, _f(result.vin[n])]
        row += [_f(x) for x in result.residues[n]]
        row += [int(d) for d in result.decisions[n]]
        row.append(int(result.flash[n]))
        rows.append(row)
    _oracle_write(path, header, rows)


def oracle_linearity(path, report):
    rows = ((k, _f(report.dnl[k]), _f(report.inl[k])) for k in range(len(report.dnl)))
    _oracle_write(path, ["code", "dnl_lsb", "inl_lsb"], rows)


def oracle_spectrum(path, report, bin_hz):
    rows = ((k, _f(k * bin_hz), _f(report.power_dbc[k]))
            for k in range(len(report.power_dbc)))
    _oracle_write(path, ["bin", "freq_hz", "power_db"], rows)


def oracle_settle(path, rows):
    data = ((r.stage, _f(r.ideal_mv), _f(r.simulated_mv), _f(r.error_pct)) for r in rows)
    _oracle_write(path, ["stage", "ideal_mv", "simulated_mv", "error_pct"], data)


def oracle_sweep(path, axis, metric, points):
    units = {"enob": "bits", "inl": "lsb", "dnl": "lsb"}[metric]
    rows = ((_f(p.value), _f(p.metric)) for p in points)
    _oracle_write(path, [axis, f"{metric}_{units}"], rows)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def assert_same_bytes(directory, write, oracle, *args):
    got, want = directory / "got.csv", directory / "want.csv"
    write(got, *args)
    oracle(want, *args)
    assert got.read_bytes() == want.read_bytes()


# --- every writer against its oracle ------------------------------------------------


@pytest.mark.parametrize("n", LENGTHS)
@CHECK
@given(codes=ints, warmup=st.integers(0, 12))
def test_codes_csv_matches_oracle(out, n, codes, warmup):
    stream = CodeStream(codes=column(codes, n, dtype=np.int16), warmup=warmup)
    assert_same_bytes(out, reports.write_codes_csv, oracle_codes, stream)


@pytest.mark.parametrize("n", LENGTHS)
@settings(CHECK, max_examples=1)
@given(pool=floats, decisions=st.lists(st.integers(-1, 1), min_size=1, max_size=40),
       flash=st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_trace_csv_matches_oracle(out, n, pool, decisions, flash):
    residues = np.stack([column(pool, n, k) for k in range(1, 8)], axis=1)
    dec = np.asfortranarray(np.stack([column(decisions, n, k, np.int8) for k in range(6)], 1))
    result = SimulationResult(vin=column(pool, n), decisions=dec,
                              flash=column(flash, n, dtype=np.int8), residues=residues)
    assert_same_bytes(out, reports.write_trace_csv, oracle_trace, result)


@pytest.mark.parametrize("n", LENGTHS)
@CHECK
@given(pool=floats)
def test_linearity_csv_matches_oracle(out, n, pool):
    report = LinearityReport(dnl=column(pool, n), inl=column(pool, n, 5), max_dnl=(0.0, 0),
                             max_inl=(0.0, 0), missing_codes=())
    assert_same_bytes(out, reports.write_linearity_csv, oracle_linearity, report)


@pytest.mark.parametrize("n", LENGTHS)
@CHECK
@given(pool=floats, bin_hz=st.floats(0.0, 1e300, exclude_min=True))
def test_spectrum_csv_matches_oracle(out, n, pool, bin_hz):
    report = SpectrumReport(power_dbc=column(pool, n), signal_bin=1, sndr_db=0.0, sfdr_db=0.0,
                            enob=0.0)
    assert_same_bytes(out, reports.write_spectrum_csv, oracle_spectrum, report, bin_hz)


@pytest.mark.parametrize("n", LENGTHS)
@CHECK
@given(pool=floats)
def test_settle_csv_matches_oracle(out, n, pool):
    names = ["SHA"] + [f"Stage{k}" for k in range(1, 7)]
    a, b, c = (column(pool, n, k).tolist() for k in range(3))
    rows = [SettleRow(stage=names[i % 7], ideal_mv=a[i], simulated_mv=np.float64(b[i]),
                      error_pct=c[i]) for i in range(n)]
    assert_same_bytes(out, reports.write_settle_csv, oracle_settle, rows)


@pytest.mark.parametrize("n", LENGTHS)
@CHECK
@given(pool=floats, whole=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=40),
       metric=st.sampled_from(["enob", "inl", "dnl"]))
def test_sweep_csv_matches_oracle(out, n, pool, whole, metric):
    # int sweep values still print as floats, as repr(float(60)) == "60.0"
    values = [int(v) if i % 3 == 0 else v
              for i, v in enumerate(column(whole, n).tolist())]
    points = [SweepPoint(value=v, metric=m) for v, m in zip(values, column(pool, n).tolist())]
    assert_same_bytes(out, reports.write_sweep_csv, oracle_sweep, "ota.a0_db", metric,
                      points)


def test_sweep_header_keeps_bracketed_axis(tmp_path):
    points = [SweepPoint(value=50.0, metric=7.25), SweepPoint(value=-0.0, metric=5e-324)]
    assert_same_bytes(tmp_path, reports.write_sweep_csv, oracle_sweep,
                      "stages[0].ota.a0_db", "inl", points)
    assert (tmp_path / "got.csv").read_text() == (
        "stages[0].ota.a0_db,inl_lsb\n50.0,7.25\n-0.0,5e-324\n")


def test_trace_csv_needs_recorded_residues(tmp_path):
    result = SimulationResult(vin=np.zeros(2), decisions=np.zeros((2, 6), dtype=np.int8),
                              flash=np.zeros(2, dtype=np.int8), residues=None)
    with pytest.raises(ValueError, match="record_residues=True"):
        reports.write_trace_csv(tmp_path / "trace.csv", result)
    assert not (tmp_path / "trace.csv").exists()


# --- the gnuplot scripts, known answers -------------------------------------------

PREAMBLE = "set datafile separator ','\nset terminal pngcairo size {}\nset output '{}'\n"


@pytest.mark.parametrize("write,args,text", [
    (reports.write_linearity_plot, ["lin.csv"],
     PREAMBLE.format("900,700", "linearity.png")
     + "set multiplot layout 2,1\nset xlabel 'code'\nset ylabel 'DNL (LSB)'\n"
       "plot 'lin.csv' skip 1 using 1:2 with impulses notitle\nset ylabel 'INL (LSB)'\n"
       "plot 'lin.csv' skip 1 using 1:3 with lines notitle\nunset multiplot\n"),
    (reports.write_spectrum_plot, ["out/spec.csv"],
     PREAMBLE.format("900,500", "spectrum.png")
     + "set xlabel 'frequency (Hz)'\nset ylabel 'power (dBc)'\nset yrange [-140:10]\n"
       "plot 'out/spec.csv' skip 1 using 2:3 with lines notitle\n"),
    (reports.write_sweep_plot, ["sweep.csv", "stages[0].ota.a0_db", "inl"],
     PREAMBLE.format("900,500", "sweep.png")
     + "set xlabel 'stages[0].ota.a0_db'\nset ylabel 'inl'\n"
       "plot 'sweep.csv' skip 1 using 1:2 with linespoints notitle\n"),
], ids=["linearity", "spectrum", "sweep"])
def test_gnuplot_script_text(tmp_path, write, args, text):
    path = write(tmp_path / "nested" / "plot.gp", *args)
    assert path == tmp_path / "nested" / "plot.gp"
    assert path.read_bytes() == text.encode()


# --- memory ---------------------------------------------------------------------


def test_codes_csv_memory_stays_bounded(tmp_path):
    # rows are formatted a chunk at a time: building every row of a 2^19-sample
    # ramp's codes as Python objects at once would take tens of MB here
    n = 2 ** 19 + 7
    stream = CodeStream(codes=(np.arange(n) % 256).astype(np.int16), warmup=7)
    tracemalloc.start()
    try:
        reports.write_codes_csv(tmp_path / "codes.csv", stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    lines = (tmp_path / "codes.csv").read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[-1] == f"{n - 1},{(n - 1) % 256},0"
