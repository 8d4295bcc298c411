"""Rebuild the correctness references: one entry per call in each pool.

Usage, from the root of a checkout:  python3 bench/make_reference.py [workload ...]

Each entry holds the verdict digest (ids, n, t, passed, exit code) and the
report-bytes digest of one call.  A reference states what the library did at
the commit it was built on; rebuild it only when a change of verdicts is
intended, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import run
import workloads


def build(w) -> dict:
    calls = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out_path = os.path.join(tmp, "report")
        for i in range(w.pool_size):
            cfg = w.config(i)
            outcome = workloads.run_call(cfg, out_path, time.perf_counter)
            if outcome.exit_code != 0 or not outcome.rows:
                raise SystemExit(f"{w.name} call {i} does not pass cleanly: {json.dumps(cfg)}")
            calls[workloads.config_key(cfg)] = {
                "verdict": workloads.verdict_digest(outcome),
                "report": workloads.report_digest(outcome),
                "rows": len(outcome.rows),
            }
    return calls


def main(names) -> None:
    for var in run.BLAS_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=run.ROOT
    ).stdout.strip() or "unknown"
    for name in names or sorted(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        calls = build(w)
        path = run.BENCH / "reference" / f"{name}.json"
        with open(path, "w") as fh:
            json.dump({"workload": name, "commit": commit, "calls": calls}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(calls)} calls in {time.perf_counter() - t0:.1f} s -> {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
