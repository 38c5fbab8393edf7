"""Run one ``pipeadc`` CLI command in this fresh interpreter, as the installed entry point would.

    python3 bench/cli_entry.py RESULT_JSON TRACE -- <pipeadc arguments>

Calls ``pipeadc.cli.main`` with the given arguments and writes RESULT_JSON
with the exit status, the patch targets found changed afterwards (none
expected), the process's peak resident memory and, when TRACE is 1, the
tracer summary and spans of the command.
``pipeadc.cli`` has no ``__main__`` and the console script may not be
installed, hence this launcher.
"""

import time

_T0 = time.perf_counter()
import pipeadc.cli  # noqa: E402  (timed as cli.import)
_T1 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracer  # noqa: E402


def main() -> None:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: cli_entry.py RESULT_JSON 0|1 -- <pipeadc arguments>")
    originals = tracer.current_objects()
    t = tracer.Tracer()
    t.add_span("cli.import", _T0, _T1)
    sys.argv = ["pipeadc", *argv]
    status = 0
    try:
        if trace == "1":
            with t.installed():
                pipeadc.cli.main()
        else:
            pipeadc.cli.main()
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    out = {"status": status, "changed": tracer.untouched(originals),
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace == "1":
        out["summary"] = t.summary()
        out["spans"] = t.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
