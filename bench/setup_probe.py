"""Set-up time of one workload, measured in this fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds it took to import ``pipeadc`` (and ``pipeadc.cli`` for
``cli-capture``), resolve the workload's config and construct its
``PipelineEngine``. Importing the benchmark's own module is not counted.
"""

import sys
import time

_T0 = time.perf_counter()
import pipeadc  # noqa: E402

if sys.argv[1] == "cli-capture":
    import pipeadc.cli  # noqa: F401
_T1 = time.perf_counter()

import workloads  # noqa: E402

t2 = time.perf_counter()
pipeadc.PipelineEngine(workloads.setup_config(sys.argv[1], int(sys.argv[2])))
t3 = time.perf_counter()
print(repr((_T1 - _T0) + (t3 - t2)))
