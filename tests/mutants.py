"""Mutation gate: one-token changes to the program that a named test file must catch.

Each row of ``MUTANTS`` names a file, an exact string that occurs in it once,
its replacement, and the test file that must then fail. For each row the
runner applies the change to a temporary copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` and runs ``pytest -x`` on the named
file there. It exits non-zero when a mutant survives, when a row's string
does not occur exactly once (a stale row), or when the unmutated copy
already fails. ``EQUIVALENT`` lists the mutants no test can kill, with the
reason; their strings are checked too, so neither table goes stale.

Run it from any directory: ``python tests/mutants.py``. pytest does not
collect this file. Mutation analysis: DeMillo, Lipton & Sayward, "Hints on
test data selection", IEEE Computer 11(4), 1978.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = "src/pipeadc/engine.py"
STAGES = "src/pipeadc/stages.py"
METRICS = "src/pipeadc/metrics.py"
CORRECTION = "src/pipeadc/correction.py"
CONFIG = "src/pipeadc/config.py"
SOLVER = "src/pipeadc/solver.py"
TEST_ENGINE = "tests/test_engine.py"
TEST_METRICS = "tests/test_metrics.py"
TEST_STAGES = "tests/test_stages.py"
TEST_CONFIG = "tests/test_config.py"
TEST_CORRECTION = "tests/test_correction.py"
TEST_SOLVER = "tests/test_solver.py"

MUTANTS = [
    # (file, old, new, test file that must fail)
    # the laws
    (STAGES, "_flag(vin >= hi)", "_flag(vin > hi)", TEST_ENGINE),
    (STAGES, "(strict and err == 0.0)", "(not strict and err == 0.0)", TEST_ENGINE),
    (STAGES, "out = v_init - v_static\n    out *= e\n    out += v_static",
     "out = e * v_init + (1.0 - e) * v_static", TEST_STAGES),
    (STAGES, "g = 1.0 / (1.0 + 1.0 / (beta * ota.a0))",
     "g = beta * ota.a0 / (1.0 + beta * ota.a0)", TEST_STAGES),
    (STAGES, "math.exp(-t * (2.0 * math.pi * beta * ota.gbw))",
     "math.exp(-t * (2.0 * math.pi * ota.gbw))", TEST_STAGES),
    # the exact thresholds: TwoSum's rounding error, and crossing thresholds clamped
    (STAGES, "err = (a - (s - b_part)) + (b - b_part)", "err = 0.0", TEST_ENGINE),
    (STAGES, "min(_above(stage.cmp_offset_lo, -q, False), hi)",
     "_above(stage.cmp_offset_lo, -q, False)", TEST_ENGINE),
    # the MDAC coefficients, derived once per engine and once more by the oracle
    (ENGINE, "2.0 * (1.0 + st.gain_mismatch)", "2.0 * (1.0 - st.gain_mismatch)", TEST_ENGINE),
    (ENGINE, "(1.0 + st.dac_mismatch) * vref", "(1.0 - st.dac_mismatch) * vref", TEST_ENGINE),
    # the feedback factor of each role: the SHA's unity-feedback hold, and the one
    # the amplifier budget assumes, a stage's
    (ENGINE, "MDAC_BETA if ch else SHA_BETA", "MDAC_BETA", TEST_ENGINE),
    (SOLVER, "2.0 ** N_BITS / (MDAC_BETA * ERR_FRACTION)", "2.0 ** N_BITS / ERR_FRACTION",
     TEST_SOLVER),
    # the wiring: the amplifier sharing and what each amplification starts from
    (ENGINE, "prev_out = cols[ch - 1, 1 + start:]", "prev_out = cols[ch - 1, start:-1]",
     TEST_ENGINE),
    (ENGINE, "range(1, 3)", "range(1, 2), range(2, 3)", TEST_ENGINE),
    (ENGINE, "0.0 if c.clock.reset_enabled else amp.ota.k_mem", "amp.ota.k_mem", TEST_ENGINE),
    # the relaxation bookkeeping: a group without memory into its first
    # channel takes one sweep, and the last channel's changes decide the rest
    (ENGINE, "MAX_SWEEPS = 64", "MAX_SWEEPS = 2", TEST_ENGINE),
    (ENGINE, "first = start + i", "first = start + i + 1", TEST_ENGINE),
    (ENGINE, " and first_kmem:", ":", TEST_ENGINE),
    (ENGINE, "ch == group[-1]", "ch == group[0]", TEST_ENGINE),
    # the input bound, the block carry and the overflow check
    (ENGINE, "INPUT_LIMIT_VREF = 1e6", "INPUT_LIMIT_VREF = 1e7", TEST_ENGINE),
    (ENGINE, "            buf[:, 0] = cols[:, -1]\n", "", TEST_ENGINE),
    (ENGINE, "if not np.isfinite(cols[:, -1]).all():", "if False:", TEST_ENGINE),
    # a sweep point out of its key's domain is named before the stimulus is built
    (SOLVER, "cfg = validate(set_param(config, axis, value))", "cfg = set_param(config, axis, value)",
     TEST_SOLVER),
    # the correction: each stage's delay, the clip, the code offset, the warm-up, and
    # the shift-and-add's doubling for each stage and once more before the flash
    (CORRECTION, "np.clip(acc, 0, FULL_SCALE_CODES - 1, out=acc)",
     "np.clip(acc, 0, FULL_SCALE_CODES, out=acc)", TEST_CORRECTION),
    (CORRECTION, "shift = PIPELINE_LATENCY_SAMPLES - k", "shift = PIPELINE_LATENCY_SAMPLES - k + 1",
     TEST_CORRECTION),
    (CORRECTION, "        acc *= 2\n", "", TEST_CORRECTION),
    (CORRECTION, "    acc *= 2\n    acc += flash", "    acc += flash", TEST_CORRECTION),
    (CORRECTION, "acc += MID_CODE - FLASH_MID", "acc += MID_CODE - FLASH_MID - 1",
     TEST_CORRECTION),
    (CORRECTION, "warmup=min(n, PIPELINE_LATENCY_SAMPLES)",
     "warmup=min(n, PIPELINE_LATENCY_SAMPLES - 1)", TEST_CORRECTION),
    # the measurements: the one-sided scaling leaves DC and Nyquist single
    (METRICS, "power[1:n_fft // 2] *= 2.0", "power[1:n_fft // 2 + 1] *= 2.0", TEST_METRICS),
    (METRICS, "if n_fft < 2 or n_fft & (n_fft - 1):", "if n_fft < 2:", TEST_METRICS),
    # the histogram's runs start one past each change of code
    (METRICS, "np.flatnonzero(codes[1:] != codes[:-1]) + 1",
     "np.flatnonzero(codes[1:] != codes[:-1])", TEST_METRICS),
    (METRICS, "last = FULL_SCALE_CODES - 2", "last = FULL_SCALE_CODES - 3", TEST_METRICS),
    (METRICS, "SIGNAL_GUARD_BINS = 1", "SIGNAL_GUARD_BINS = 2", TEST_METRICS),
    # a record too short to leave a bin beside DC, the signal and its guards
    (METRICS, "if not mask.any():", "if False:", TEST_METRICS),
    # a capture's DC bin holds only rounding, as the record is mean-removed;
    # the known-answer spectrum puts power there
    (METRICS, "mask[0] = False", "mask[0] = True", TEST_METRICS),
    # the edges of a ramp capture's coverage, and the INL written for code 0
    (METRICS, "h_avg < MIN_HITS", "h_avg <= MIN_HITS", TEST_METRICS),
    (METRICS, "hit[-1] - hit[0] < FULL_SCALE_CODES // 2",
     "hit[-1] - hit[0] <= FULL_SCALE_CODES // 2", TEST_METRICS),
    (METRICS, "    inl[0] = 0.0\n", "", TEST_METRICS),
    (METRICS, "di = int(np.argmax(np.abs(dnl[1:FULL_SCALE_CODES - 1]))) + 1",
     "di = int(np.argmax(np.abs(dnl[1:FULL_SCALE_CODES - 1])))", TEST_METRICS),
    # a coherent bin halfway between two odd bins takes the upper one
    (METRICS, "(hi - m_real) <= (m_real - lo)", "(hi - m_real) < (m_real - lo)", TEST_METRICS),
    # the declared domains, and how an interval's ends become bounds
    (CONFIG, 'gain_mismatch: float = _in(0.0, "(-0.5, 0.5)")',
     'gain_mismatch: float = _in(0.0, "(-0.5, 0.5]")', TEST_CONFIG),
    (CONFIG, 'fs: float = _in(166.6e6, "(0, inf)")', 'fs: float = _in(166.6e6, "(0, inf]")',
     TEST_CONFIG),
    (CONFIG, 'k_mem: float = _in(0.0, "[0, 1]")', 'k_mem: float = _in(0.0, "[0, 2]")',
     TEST_CONFIG),
    (CONFIG, 'settle_fraction: float = _in(0.387, "(0, 0.5]")',
     'settle_fraction: float = _in(0.387, "(0, 0.5)")', TEST_CONFIG),
    # a tuple key one past the end is an unknown key, not an append
    (CONFIG, "key < len(node)", "key <= len(node)", TEST_CONFIG),
    (CONFIG, 'lo = math.nextafter(lo, math.inf) if interval[0] == "(" else lo', "", TEST_CONFIG),
    (CONFIG, "if isinstance(value, (int, float)) and value in (0, 1):", "if False:", TEST_CONFIG),
]

EQUIVALENT = [
    # (file, old, new, why no test can tell them apart)
    (CORRECTION, "if shift < n:", "if shift <= n:",
     "at shift == n both slices are empty, so the add does nothing either way"),
    (ENGINE, "if kmem else 0.0", "if True else 0.0",
     "0.0 times a finite output is +-0.0, for which settle_value gives the same bits, and a "
     "non-finite one makes the run raise at the same sample either way"),
]


# The copy's hypothesis tests run their explicit examples only. Generated
# examples depend on the numeric literals of the package source, so an
# unrelated edit to a literal could let a row survive; a row that only a
# generated example kills needs an @example or a deterministic test instead.
CONFTEST = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit])
settings.load_profile("mutants")
"""


def _pytest(tmp: Path, *test_files: str) -> subprocess.CompletedProcess:
    # no bytecode: a restored file may keep the size and mtime of its mutant;
    # no hypothesis database: no run replays another run's failing examples
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *test_files], cwd=tmp, env=env, capture_output=True, text=True)


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):  # a config test parses README's example
            shutil.copy2(ROOT / name, tmp)
        (tmp / "conftest.py").write_text(CONFTEST)
        originals = {path: (tmp / path).read_text() for path, *_ in MUTANTS + EQUIVALENT}
        for path, old, new, _ in MUTANTS + EQUIVALENT:
            if originals[path].count(old) != 1:
                failures.append(f"stale row: {old!r} occurs {originals[path].count(old)} "
                                f"times in {path}")
        if failures:
            print("\n".join(failures))
            return 1
        run = _pytest(tmp, *sorted({row[3] for row in MUTANTS}))
        if run.returncode != 0:
            print(run.stdout[-2000:])
            print("the unmutated copy fails its tests")
            return 1
        for path, old, new, test_file in MUTANTS:
            (tmp / path).write_text(originals[path].replace(old, new))
            t0 = time.perf_counter()
            run = _pytest(tmp, test_file)
            (tmp / path).write_text(originals[path])
            status = {0: "SURVIVED", 1: "killed"}.get(run.returncode, f"exit {run.returncode}")
            print(f"{status:8} {time.perf_counter() - t0:5.1f} s  {path}: {old!r} -> {new!r}",
                  flush=True)
            if run.returncode != 1:
                print(run.stdout[-2000:])
                failures.append(f"{status}: {path}: {old!r} -> {new!r} ({test_file})")
        for path, old, new, why in EQUIVALENT:
            print(f"{'equiv':8} {'':7}  {path}: {old!r} -> {new!r}: {why}")
    print("\n".join(failures) or f"all {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
