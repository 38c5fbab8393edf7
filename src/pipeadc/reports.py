"""CSV and gnuplot-script emission.

All files are plain text with a self-describing header row, written with
deterministic float formatting (shortest round-trip repr) and '\n' line ends,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .config import CodeStream
from .engine import SettleRow, SimulationResult
from .metrics import LinearityReport, SpectrumReport
from .solver import SweepPoint


def _write(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _f(x) -> str:
    return repr(float(x))


def write_codes_csv(path, stream: CodeStream) -> Path:
    rows = ((n, int(c), int(n < stream.warmup))
            for n, c in enumerate(np.asarray(stream.codes)))
    return _write(path, ["sample_index", "code", "warmup_flag"], rows)


def write_trace_csv(path, result: SimulationResult) -> Path:
    """Per-sample dump: input, settled residues, raw decisions."""
    if result.residues is None:
        raise ValueError("trace dump needs a run with record_residues=True")
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
    return _write(path, header, rows)


def write_linearity_csv(path, report: LinearityReport) -> Path:
    rows = ((k, _f(report.dnl[k]), _f(report.inl[k])) for k in range(len(report.dnl)))
    return _write(path, ["code", "dnl_lsb", "inl_lsb"], rows)


def write_spectrum_csv(path, report: SpectrumReport) -> Path:
    rows = ((k, _f(report.freqs[k]), _f(report.power_dbc[k]))
            for k in range(len(report.power_dbc)))
    return _write(path, ["bin", "freq_hz", "power_db"], rows)


def write_settle_csv(path, rows: list[SettleRow]) -> Path:
    data = ((r.stage, _f(r.ideal_mv), _f(r.simulated_mv), _f(r.error_pct)) for r in rows)
    return _write(path, ["stage", "ideal_mv", "simulated_mv", "error_pct"], data)


def write_sweep_csv(path, axis: str, metric: str, points: list[SweepPoint]) -> Path:
    units = {"enob": "bits", "inl": "lsb", "dnl": "lsb"}[metric]
    rows = ((_f(p.value), _f(p.metric)) for p in points)
    return _write(path, [axis, f"{metric}_{units}"], rows)


def _write_script(path, lines) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_linearity_plot(path, csv_path) -> Path:
    return _write_script(path, [
        "set datafile separator ','",
        "set terminal pngcairo size 900,700",
        "set output 'linearity.png'",
        "set multiplot layout 2,1",
        "set xlabel 'code'",
        "set ylabel 'DNL (LSB)'",
        f"plot '{csv_path}' skip 1 using 1:2 with impulses notitle",
        "set ylabel 'INL (LSB)'",
        f"plot '{csv_path}' skip 1 using 1:3 with lines notitle",
        "unset multiplot",
    ])


def write_spectrum_plot(path, csv_path) -> Path:
    return _write_script(path, [
        "set datafile separator ','",
        "set terminal pngcairo size 900,500",
        "set output 'spectrum.png'",
        "set xlabel 'frequency (Hz)'",
        "set ylabel 'power (dBc)'",
        "set yrange [-140:10]",
        f"plot '{csv_path}' skip 1 using 2:3 with lines notitle",
    ])


def write_sweep_plot(path, csv_path, axis: str, metric: str) -> Path:
    return _write_script(path, [
        "set datafile separator ','",
        "set terminal pngcairo size 900,500",
        "set output 'sweep.png'",
        f"set xlabel '{axis}'",
        f"set ylabel '{metric}'",
        f"plot '{csv_path}' skip 1 using 1:2 with linespoints notitle",
    ])
