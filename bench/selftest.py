"""Self-test of the benchmark: smoke runs, and the output check catching corrupted outputs.

    python3 bench/selftest.py        # from the root of a source checkout

1. Runs every workload at tiny sizes through ``run.py``, untraced and
   traced, and requires exit status 0, a correct result and every declared
   metric.
2. Feeds the output check a corrupted code stream and an edited CLI output
   file and requires each to be reported as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

from run import BENCH_DIR, ROOT, child_env

os.environ.update(child_env())           # the CLI commands launched below import src/
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        for w in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w, "--seed", "1",
                 "--seconds", "0.5", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            names = {m["name"] for m in spec[table]}
            expect(result.get("correct") is True and result.get("failed") == 0
                   and set(result.get("metrics", {})) == names,
                   f"smoke run {w} --trace {trace}" + ("" if result else f": {proc.stderr[-500:]}"))


def corrupted_code_stream() -> None:
    sizes = workloads.SMOKE_SIZES["ramp-mc"]
    caps, _ = workloads.make_captures("ramp-mc", 0, sizes, ROOT)
    ideal = caps[-1]
    cfg, v, stream, rep = ideal.run()
    good = ideal.inspect((cfg, v, stream, rep))
    checker = workloads.Checker(None)
    expect(checker.check(ideal.key, *good), "clean ideal ramp passes the check")

    codes = stream.codes.copy()
    codes[len(codes) // 2] ^= 1
    bad = ideal.inspect((cfg, v, dataclasses.replace(stream, codes=codes), rep))
    expect(not checker.check(ideal.key, *bad) and checker.failed == 1,
           "a flipped code is reported as a failure against an earlier identical capture")
    refs = {ideal.key: {"digest": good[0], "values": good[1]}}
    expect(not workloads.Checker(refs).check(ideal.key, *bad),
           "a flipped code is reported as a failure against the reference")
    expect(not workloads.Checker(None).check(ideal.key, *bad),
           "a flipped code is reported as a failure against ideal_quantize")
    codes[0] = 256
    out_of_range = ideal.inspect((cfg, v, dataclasses.replace(stream, codes=codes), rep))
    expect(not workloads.Checker(None).check(ideal.key, *out_of_range),
           "a code of 256 is reported as a failure")


def edited_cli_file() -> None:
    sizes = workloads.SMOKE_SIZES["cli-capture"]
    workdir = ROOT / ".bench_build" / "pipeadc" / "selftest"
    caps, _ = workloads.make_captures("cli-capture", 0, sizes, workdir)
    for key, name in (("simulate-ramp", "codes.csv"), ("spectrum", "spectrum.csv")):
        cap = next(c for c in caps if c.key == key)
        checker = workloads.Checker(None)
        expect(checker.check(key, *cap.inspect(cap.run())), f"clean {key} passes the check")
        status = cap.run()
        path = workdir / key / name
        lines = path.read_text().splitlines(keepends=True)
        row = lines[len(lines) // 2].split(",")
        row[1] = str(int(row[1]) + 1) if key == "simulate-ramp" else row[1] + "1"
        lines[len(lines) // 2] = ",".join(row)
        path.write_text("".join(lines))
        expect(not checker.check(key, *cap.inspect(status)),
               f"an edited {name} is reported as a failure")


def main() -> int:
    smoke_runs()
    corrupted_code_stream()
    edited_cli_file()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
