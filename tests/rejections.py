"""The command line's refusal contract, and every command it refuses.

A refused command exits with status 1, prints nothing on stdout and one line
on stderr, ``error: `` and a message naming the cause, with no traceback or
warning, and creates no ``--out`` directory. A usage error that argparse
catches exits with status 2 and is not listed here.

Each row of ``REFUSED`` gives an id, a config file's lines (or None), the
arguments after ``pipeadc``, and the message stderr must equal, or start with
where the message ends in ``...``. A row with lines runs with ``--config`` set
to a file holding them. Every row runs with ``--out`` set to a directory that
does not exist yet, and ``check`` requires it still not to exist.

``tests/test_cli.py`` runs each row in process. Run as a script,
``python tests/rejections.py`` runs each row as ``python -m pipeadc.cli`` in a
new interpreter, from a temporary directory, against whichever ``pipeadc``
this interpreter imports, and exits non-zero if any row breaks the contract.
pytest does not collect this file, and it uses the standard library only.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Refused(NamedTuple):
    id: str
    lines: tuple[str, ...] | None
    argv: str
    message: str


NFFT_SHAPE = "n_fft must be a power of two >= 4, got {}"
NFFT_SHORT = "n_fft = {} is too short for a noise estimate; need at least 256"
UNDERFLOWS = "clock.settle_fraction / clock.fs: the settling time underflows to 0"
NEVER_SETTLES = ("{}, clock.settle_fraction / clock.fs: exp(-t_settle / tau) rounds to 1, "
                 "so the amplifier never settles")
ENOB_SWEEP = "sweep --axis ota.a0_db --values 60 --metric enob"

REFUSED = [
    # the config: neither a preset nor a file, and a seed where nothing is drawn
    Refused("unknown-config", None, "specs --config no-such-thing",
            "config 'no-such-thing' is neither a preset (default, degraded, ideal, "
            "settling-fit) nor a file"),
    Refused("seed-preset", None, "spectrum --config ideal --seed 1 --nfft 256",
            "preset ideal draws no mismatch, so it takes no seed"),
    Refused("seed-file", ("clock.fs = 166.6e6",), "spectrum --seed 1 --nfft 256",
            "--seed applies to the degraded preset only; config file ..."),
    # a file key that went (the SHA's stage fields, the feedback factors), or a
    # value outside its key's interval or beyond the float range
    *[Refused(f"{command}-{line.split()[0]}", (line,), command, message)
      for line, message in [
          ("sha.gain_mismatch = 0.0", "unknown key: sha.gain_mismatch"),
          ("stages[0].ota.beta = 0.5", "unknown key: stages[0].ota.beta"),
          ("ota.a0_db = 7000", "bad value for ota.a0_db: '7000'"),
          ("ota.k_mem = 1.5", "sha.ota.k_mem: must be in [0, 1]"),
          ("clock.fs = inf", "clock.fs: must be in (0, inf)"),
          ("stages[2].gain_mismatch = 0.5", "stages[2].gain_mismatch: must be in (-0.5, 0.5)")]
      for command in ("settle-report", "specs")],
    # a clock whose settling time underflows to 0, or is subnormal, so that the
    # GBW budget overflows, though each key is in its interval
    Refused("specs-tiny-clock", ("clock.fs = 1e308", "clock.settle_fraction = 1e-20"), "specs",
            UNDERFLOWS),
    Refused("specs-subnormal-settle-fraction", ("clock.settle_fraction = 1e-300",), "specs",
            "t_settle is too short for a finite GBW budget, got 6.002400960384154e-309"),
    Refused("specs-largest-fs", ("clock.fs = 1.7976931348623157e308",), "specs",
            "t_settle is too short for a finite GBW budget, got 2.15275895810572e-309"),
    # an amplifier whose settling factor rounds to 1, named by its key, for each
    # command that builds an engine
    *[Refused(f"{command.split()[0]}-{line.split()[0]}", (line,), command,
              NEVER_SETTLES.format(key))
      for line, key in [("ota.gbw = 1e-300", "sha.ota.gbw"),
                        ("stages[3].ota.gbw = 1e-300", "stages[3].ota.gbw"),
                        ("clock.settle_fraction = 1e-300", "sha.ota.gbw")]
      for command in ("spectrum --nfft 256", "settle-report", "linearity --samples 65536",
                      "sweep --axis ota.a0_db --values 60 --nfft 256")],
    # unity DC gain and instant settling: the SHA holds 0.3 V, and Stage1's residue
    # of it, 2 * 0.3 V - vref, settles to exactly 0 V
    Refused("settle-report-stage-settling-to-zero", ("ota.a0 = 1", "ota.gbw = inf"),
            "settle-report", "Stage2: its input, the Stage1 output, settled to 0 V, "
            "so its percent error is undefined"),
    # a record that is not a power of two, or too short for a noise estimate
    *[Refused(f"{command.split()[0]}-nfft-{n}", None, f"{command} --config ideal --nfft {n}",
              (NFFT_SHORT if n in (4, 8, 128) else NFFT_SHAPE).format(n))
      for command in ("spectrum", ENOB_SWEEP) for n in (0, -4, 2, 4, 8, 128, 1000)],
    *[Refused(f"spectrum-default-nfft-{n}", None, f"spectrum --nfft {n}", NFFT_SHORT.format(n))
      for n in (4, 8)],
    # a stimulus that is not finite, refused before numpy warns about it
    Refused("simulate-infinite-amplitude", None, "simulate --waveform sine --amplitude inf",
            "amplitude must be finite, got inf"),
    # sweep values that do not parse, and sweep points outside their key's domain
    Refused("sweep-values-do-not-parse", None, "sweep --axis ota.gbw --values 1,abc",
            "bad sweep values: '1,abc'"),
    Refused("sweep-rng_seed", None, "sweep --config default --axis rng_seed --values inf "
            "--nfft 256", "unknown key: rng_seed"),
    Refused("sweep-negative-fs", None, "sweep --config default --axis clock.fs --values -1 "
            "--nfft 256", "clock.fs: must be in (0, inf)"),
    Refused("sweep-a0_db-beyond-float-range", None, "sweep --axis ota.a0_db --values 7000",
            "bad value for ota.a0_db: 7000.0"),
    Refused("sweep-underflowing-settle-fraction", None,
            "sweep --axis clock.settle_fraction --values 1e-320 --nfft 256", UNDERFLOWS),
]


def arguments(row: Refused, directory: Path) -> list[str]:
    """row's arguments: its config file written into directory, and --out under it."""
    args = row.argv.split()
    if row.lines is not None:
        path = directory / "refused.cfg"
        path.write_text("".join(f"{line}\n" for line in row.lines))
        args += ["--config", str(path)]
    return [*args, "--out", str(directory / "out")]


def check(row: Refused, status: int, out: str, err: str, directory: Path) -> None:
    """Raise AssertionError naming each part of the contract that one run of row broke."""
    message = f"error: {row.message}"
    if message.endswith("..."):
        says = err.startswith(message[:-3])
    else:
        says = err == message + "\n"
    broken = [what for what, kept in [
        (f"exit status {status}", status == 1),
        (f"stdout {out!r}", out == ""),
        ("stderr is not one 'error: ' line",
         err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1),
        ("a traceback or warning on stderr", "Traceback" not in err and "Warning" not in err),
        (f"stderr {err!r} is not {message!r}", says),
        ("the --out directory was created", not (directory / "out").exists()),
    ] if not kept]
    if broken:
        raise AssertionError(f"{row.id}: " + "; ".join(broken))


def main() -> int:
    spec = importlib.util.find_spec("pipeadc")
    if spec is None or spec.origin is None:
        print("pipeadc is not importable")
        return 1
    # the child runs from a temporary directory, so it is given this pipeadc by path
    src = str(Path(spec.origin).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    failures = []
    with tempfile.TemporaryDirectory() as d:
        for row in REFUSED:
            directory = Path(tempfile.mkdtemp(dir=d))
            proc = subprocess.run([sys.executable, "-m", "pipeadc.cli",
                                   *arguments(row, directory)],
                                  cwd=directory, env=env, capture_output=True, text=True,
                                  timeout=300)
            try:
                check(row, proc.returncode, proc.stdout, proc.stderr, directory)
            except AssertionError as exc:
                failures.append(str(exc))
                print(f"FAILED  {row.id}")
            else:
                print(f"ok      {row.id}")
    print("\n".join(failures) or f"all {len(REFUSED)} refused commands keep the contract "
          f"(pipeadc from {src})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
