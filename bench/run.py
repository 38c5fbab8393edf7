"""pipeadc benchmark: host time of whole workloads, and of each layer in a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is taken from ``src/``
and nothing is installed. Each workload runs in its own fresh interpreter
(``workloads.py``), so its peak memory belongs to it alone; ``setup_s`` is
the median of nine further fresh interpreters (``setup_probe.py``) after
one untimed one. All times are host time; simulated time is fixed by the
config and not reported.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
with nothing patched. With ``--trace 1`` the same captures run once
untraced and once with a wrapper around every public function of every
module, giving the per-layer table (per round of the workload's capture
list) and the tracing overhead; spans go to
``.bench_build/pipeadc/<workload>/spans.json``.

Layer metric -> the end-to-end metric and workload it should move:
  config.build_s, config.calls            capture_ms_mean/_tail on sine-mc; flat on ramp-mc
  waveforms.generate_s, waveforms.samples throughput_msps on ramp-mc (a few %); flat on memory-sweep
  engine.init_s                           setup_s everywhere; capture_ms_mean on sine-mc
  engine.simulate_s, engine.msps, engine.*_samples, engine.residue_bytes
                                          vectorized share: throughput_msps and peak_rss_mb on
                                          ramp-mc; stepped share: the same on memory-sweep
  stages.*_calls, stages.self_s           throughput_msps on memory-sweep (counts repeat exactly)
  correction.correct_stream_s, .codes     throughput_msps on ramp-mc
  metrics.ramp_linearity_s                ramp-mc; metrics.spectrum_s, .sndr_sfdr_enob_s: sine-mc
  solver.sweep_s, .sweep_self_s, .points  capture_ms_mean on memory-sweep
  reports.write_s, .rows, .bytes          capture_ms_mean/throughput_msps on cli-capture only
  cli.import_s, .run_subcommand_s, .self_s  setup_s and capture_ms_mean on cli-capture

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ramp-mc", "sine-mc", "memory-sweep", "cli-capture")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread per process: the load generator stays within one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    times = []
    for i in range(SETUP_PROBES + 1):
        probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
        out = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=60)
        if i:                       # the first one is untimed: it may fill the bytecode cache
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_one(workload: str, args, env: dict, deadline: float) -> dict:
    setup = [] if args.trace else setup_seconds(workload, args.seed, env)
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(Path(".bench_build") / "pipeadc" / workload)]
    if args.smoke:
        cmd.append("--smoke")
    # own session, so that a timeout also ends the CLI commands it started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{workload}: workload process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples"] = setup
    return result


def print_report(r: dict, units: dict) -> None:
    w = r["workload"]
    rec = r["record"]
    frac = r["failed"] / r["attempted"]
    print(f"== {w}  seed {r['seed']}  python {rec['python']}  numpy {rec['numpy']}  "
          f"nproc {rec['nproc']}")
    print(f"   sizes {json.dumps(rec['sizes'])}  engine path {json.dumps(rec['engine_path'])}")
    print(f"   {r['captures']} timed captures in {r['rounds']} rounds"
          f" of {len(rec['capture_inputs'])}"
          + (f"; tail = p{r['tail_pct']} with {r['tail_beyond']} captures beyond it"
             if "metrics" in r else "; traced"))
    for label in ("percentiles_ms", "median_ms_by_input"):
        if label in r:
            print(f"   {label}: " + ", ".join(f"{k} {v:.4g}" for k, v in r[label].items()))
    for name, value in {**r.get("metrics", {}), **r.get("layers", {})}.items():
        unit = units.get(name) or ("ms" if "_ms_" in name else "s" if name.endswith("_s")
                                   else "ratio")
        print(f"   {name:<34} {value:14.6g} {unit}")
    print(f"   {'failed_frac':<34} {frac:14.6g} ratio"
          f"  ({r['failed']} of {r['attempted']} captures)")
    print(f"   simulated (labels only): {json.dumps(rec['simulated'])}")
    print(f"   {rec['validation']}; references checked: {rec['references_checked']}")
    for err in r["errors"]:
        print(f"   FAILED {err}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pipeadc benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "pipeadc" / "__init__.py").is_file():
        print(f"error: no pipeadc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = child_env()
    deadline = time.monotonic() + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in names:
        try:
            r = run_one(w, args, env, deadline)
        except (RuntimeError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(r, units)
        results.append(r)

    table = "layers" if args.trace else "metrics"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for m in declared:
            metrics[prefix + m["name"]] = {"value": r[table][m["name"]], "unit": m["unit"]}
    correct = all(r["failed"] == 0 for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
