"""CSV and gnuplot-script emission, every file through ``_write``.

All files are plain text, each CSV with a self-describing header row, written
with deterministic float formatting (shortest round-trip repr) and '\n' line
ends, so identical runs produce byte-identical files. Rows are formatted from whole
columns, ``CHUNK_ROWS`` at a time; the bytes are those of a ``csv.writer``
fed ``int(x)`` and ``repr(float(x))`` row by row.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .config import CodeStream, N_STAGES
from .engine import SimulationResult
from .metrics import LinearityReport, SpectrumReport
from .solver import SWEEP_METRICS, SettleRow, SweepPoint

CHUNK_ROWS = 1 << 14  # rows held as Python objects at once


def _write(path, header, fmt, columns) -> Path:
    """Write ``header``, if any, then one ``fmt`` line per row of the equal-length ``columns``.

    ``fmt`` has one conversion per column: %d for an int, %s for a str and
    %r for a float, its shortest repr. A %r column is read as float64, so no
    numpy scalar reaches repr. Columns are numpy arrays, ranges or lists.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = len(columns)
    floats = [kind == "%r" for kind in fmt.split(",")]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header:
            csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            rows = min(CHUNK_ROWS, len(columns[0]) - start)
            flat = [None] * (width * rows)
            for j, (column, is_float) in enumerate(zip(columns, floats)):
                part = column[start:start + rows]
                part = np.asarray(part, dtype=float) if is_float else part
                flat[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write(((fmt + "\n") * rows) % tuple(flat))
    return path


def write_codes_csv(path, stream: CodeStream) -> Path:
    warmup = np.zeros(len(stream.codes), dtype=bool)
    warmup[:stream.warmup] = True
    return _write(path, ["sample_index", "code", "warmup_flag"], "%d,%d,%d",
                  [range(len(stream.codes)), stream.codes, warmup])


def write_trace_csv(path, result: SimulationResult) -> Path:
    """Per-sample dump: input, settled residues, raw decisions."""
    if result.residues is None:
        raise ValueError("trace dump needs a run with record_residues=True")
    stages = range(1, N_STAGES + 1)
    header = (["n", "vin_v", "sha_v"] + [f"stage{k}_residue_v" for k in stages]
              + [f"d{k}" for k in stages] + ["dflash"])
    columns = [range(len(result.flash)), result.vin, *result.residues.T,
               *result.decisions.T, result.flash]
    fmt = ",".join(["%d"] + ["%r"] * (N_STAGES + 2) + ["%d"] * (N_STAGES + 1))
    return _write(path, header, fmt, columns)


def write_linearity_csv(path, report: LinearityReport) -> Path:
    return _write(path, ["code", "dnl_lsb", "inl_lsb"], "%d,%r,%r",
                  [range(len(report.dnl)), report.dnl, report.inl])


def write_spectrum_csv(path, report: SpectrumReport, bin_hz: float) -> Path:
    """One row per bin k: k, its frequency k * bin_hz (fs/n_fft) and its power in dBc."""
    bins = np.arange(len(report.power_dbc))
    return _write(path, ["bin", "freq_hz", "power_db"], "%d,%r,%r",
                  [bins, bins * bin_hz, report.power_dbc])


def write_settle_csv(path, rows: list[SettleRow]) -> Path:
    return _write(path, ["stage", "ideal_mv", "simulated_mv", "error_pct"], "%s,%r,%r,%r",
                  [[r.stage for r in rows], [r.ideal_mv for r in rows],
                   [r.simulated_mv for r in rows], [r.error_pct for r in rows]])


def write_sweep_csv(path, axis: str, metric: str, points: list[SweepPoint]) -> Path:
    return _write(path, [axis, f"{metric}_{SWEEP_METRICS[metric]}"], "%r,%r",
                  [[p.value for p in points], [p.metric for p in points]])


def _write_plot(path, png: str, size: str, lines) -> Path:
    """A gnuplot script: the preamble that draws a CSV into ``png`` at ``size``, then ``lines``."""
    return _write(path, [], "%s", [["set datafile separator ','",
                                    f"set terminal pngcairo size {size}",
                                    f"set output '{png}'", *lines]])


def write_linearity_plot(path, csv_path) -> Path:
    return _write_plot(path, "linearity.png", "900,700", [
        "set multiplot layout 2,1",
        "set xlabel 'code'",
        "set ylabel 'DNL (LSB)'",
        f"plot '{csv_path}' skip 1 using 1:2 with impulses notitle",
        "set ylabel 'INL (LSB)'",
        f"plot '{csv_path}' skip 1 using 1:3 with lines notitle",
        "unset multiplot",
    ])


def write_spectrum_plot(path, csv_path) -> Path:
    return _write_plot(path, "spectrum.png", "900,500", [
        "set xlabel 'frequency (Hz)'",
        "set ylabel 'power (dBc)'",
        "set yrange [-140:10]",
        f"plot '{csv_path}' skip 1 using 2:3 with lines notitle",
    ])


def write_sweep_plot(path, csv_path, axis: str, metric: str) -> Path:
    return _write_plot(path, "sweep.png", "900,500", [
        f"set xlabel '{axis}'",
        f"set ylabel '{metric}'",
        f"plot '{csv_path}' skip 1 using 1:2 with linespoints notitle",
    ])
