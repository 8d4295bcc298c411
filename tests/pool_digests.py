"""Print the verdict and report digests of every call in the benchmark's pools.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python tests/pool_digests.py > digests.txt

For each workload of ``bench/workloads.py`` (192 ``norm_sweep``, 240
``contour_calc`` and 1344 ``catalogue`` calls) it makes every call of the
pool, in index order, through ``workloads.run_call``, and prints one line per
call, ``<workload> <index> <verdict digest> <report digest>``, then one total
line per workload, ``<workload> total <calls> <digest of its call lines>``.
Two trees give the same verdicts and report bytes on every pool call when
their outputs are equal, so an audit of a change is a ``diff`` of the outputs
of two checkouts; each takes about a minute at one BLAS thread.

The checkout's own ``src`` and ``bench`` are imported, whatever is installed.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report")
        for name, workload in workloads.WORKLOADS.items():
            total = hashlib.sha256()
            for index in range(workload.pool_size):
                outcome = workloads.run_call(workload.config(index), out_path, time.perf_counter)
                line = (f"{name} {index} {workloads.verdict_digest(outcome)} "
                        f"{workloads.report_digest(outcome)}")
                total.update(f"{line}\n".encode())
                print(line, flush=True)
            print(f"{name} total {workload.pool_size} {total.hexdigest()[:20]}", flush=True)


if __name__ == "__main__":
    main()
