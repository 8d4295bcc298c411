"""Set-up probe: time ``import semiapprox`` plus one warm-up call.

Run by run.py in a fresh interpreter: ``python3 bench/probe_setup.py
<workload> <report path>``.  Prints {"setup_s": seconds} as JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import semiapprox  # noqa: E402,F401
import workloads  # noqa: E402

w = workloads.WORKLOADS[sys.argv[1]]
workloads.run_call(workloads.warmup_config(w), sys.argv[2], time.perf_counter)
print(json.dumps({"setup_s": time.perf_counter() - T0}))
