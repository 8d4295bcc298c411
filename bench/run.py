"""Verdict benchmark for semiapprox: one closed-loop caller, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload norm_sweep --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics.  It times
``setup_s`` in fresh processes, then makes verify calls one after another
(each starts when the previous one returns).  It makes as many whole blocks
of calls (see workloads.py) as took ``--seconds`` at reference speed when
the benchmark was written, so its wall time varies with the machine's speed
and the library's.  It checks every call's verdicts against
``bench/reference/<workload>.json``.  Times are wall times rescaled to a
reference machine speed (see speed.py); the raw wall times are printed
beside them.

With ``--trace 1`` it makes the first block of the seed's calls four times:
a warm-up, untraced, traced and traced again.  It reports the per-layer
metrics of the first traced pass (see spans.py), checks that the traced
verdicts equal the untraced ones and that every count repeats exactly in
the second traced pass, and writes the spans to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_TAIL_BEYOND = 10
BLAS_THREADS = "1"  # at most nproc; one thread keeps dim <= 32 timings steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLOCK = time.perf_counter

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402
from speed import REF_S, Speed  # noqa: E402

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "verify_s_p50": "s",
    "verify_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_reference(name: str) -> dict:
    path = BENCH / "reference" / f"{name}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)["calls"]


class Checker:
    """Compares each call with the reference and counts the outcomes."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = self.failed = self.unchecked = self.bytes_changed = 0
        self.self_check = True  # the traced run's own consistency checks

    def check(self, cfg: dict, outcome) -> bool:
        """True when the call's verdicts match its reference (or it has none)."""
        self.attempted += 1
        ref = self.reference.get(workloads.config_key(cfg))
        if outcome is None:
            self.failed += 1
            return False
        if ref is None:
            self.unchecked += 1
            return True
        if workloads.report_digest(outcome) != ref["report"]:
            self.bytes_changed += 1
        if workloads.verdict_digest(outcome) != ref["verdict"]:
            self.failed += 1
            print(f"verdict mismatch: {json.dumps(cfg)}", file=sys.stderr)
            return False
        return True

    @property
    def correct(self) -> bool:
        # a call with no reference is unchecked, never counted as passing
        return self.failed == 0 and self.unchecked == 0 and self.self_check


def attempt(cfg: dict, out_path: str, tracer=None):
    """One verify call; an exception is a failed call, reported and survived."""
    try:
        if tracer is None:
            return workloads.run_call(cfg, out_path, CLOCK)
        return tracer.call(workloads.run_call, cfg, out_path, CLOCK)
    except Exception:
        print(f"call raised: {json.dumps(cfg)}", file=sys.stderr)
        traceback.print_exc()
        return None


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads() or {v: os.environ.get(v) for v in BLAS_VARS},
    }


def measure_setup(workload: str, tmp: str, speed) -> tuple:
    """Import semiapprox plus one warm-up call, each in a fresh process.

    Returns the raw and the speed-rescaled times; the kernel is sampled
    right before and after each probe.
    """
    raw, rescaled = [], []
    for i in range(SETUP_PROBES):
        speed.sample()
        t0 = CLOCK()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), workload, os.path.join(tmp, f"probe{i}")],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        mid = 0.5 * (t0 + CLOCK())
        speed.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        rescaled.append(raw[-1] / speed.slowdown(mid))
    return raw, rescaled


def tail(times: list) -> tuple:
    """Highest whole percentile with at least ten calls beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= MIN_TAIL_BEYOND:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100, 0


def run_untraced(w, args, checker, tmp) -> dict:
    out_path = os.path.join(tmp, "report")
    workloads.run_call(workloads.warmup_config(w), out_path, CLOCK)
    speed = Speed(CLOCK)
    setup_raw, setup = measure_setup(w.name, tmp, speed)
    timed, records = [], 0  # (start, wall seconds) of each call that passed
    n_blocks = workloads.blocks_per_run(w, args.seconds, MIN_TAIL_BEYOND + 1)
    start = CLOCK()
    for block in itertools.islice(workloads.blocks_for_seed(w, args.seed), n_blocks):
        for cfg in block:
            speed.maybe_sample()
            t0 = CLOCK()
            outcome = attempt(cfg, out_path)
            if checker.check(cfg, outcome):
                timed.append((t0, outcome.seconds))
                records += len(outcome.rows)
    wall = CLOCK() - start
    speed.sample()
    if not timed:
        raise RuntimeError("no call succeeded; nothing to measure")
    raw = [s for _, s in timed]
    seconds = [speed.rescale(t0, s) for t0, s in timed]
    tail_s, pct, beyond = tail(seconds)
    metrics = {
        "records_per_s": records / sum(seconds),
        "verify_s_p50": statistics.median(seconds),
        "verify_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    calls = len(seconds)
    notes = {
        "records_per_s": f"{records} records over {calls} calls in {n_blocks} blocks "
                         f"({wall:.1f} s of closed loop; "
                         f"raw {records / sum(raw):.6g})",
        "verify_s_p50": f"median of {calls} calls (raw {statistics.median(raw):.6g})",
        "verify_s_tail": f"p{pct}: {beyond} of {calls} calls beyond it (raw {tail(raw)[0]:.6g})",
        "setup_s": f"median of {len(setup)} fresh processes (raw "
                   + ", ".join(f"{t:.3f}" for t in setup_raw) + ")",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"workload {w.name} seed {args.seed}: {checker.attempted} calls attempted; "
          f"times rescaled to reference speed (median slowdown "
          f"{statistics.median(speed.kernel_s) / REF_S:.3f} over {len(speed.kernel_s)} samples)")
    for name, value in metrics.items():
        print(f"  {name:<15} {value:12.6g} {END_TO_END_UNITS[name]:<4} {notes[name]}")
    frac = checker.failed / max(checker.attempted, 1)
    print(f"  {'failed_frac':<15} {frac:12.6g} {'':<4} {checker.failed} of {checker.attempted} calls")
    print(f"  unchecked calls (no reference): {checker.unchecked}; "
          f"report bytes changed: {checker.bytes_changed}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(w, args, checker, tmp) -> dict:
    out_path = os.path.join(tmp, "report")
    block = next(workloads.blocks_for_seed(w, args.seed))
    speed = Speed(CLOCK)

    def one_pass(tracer=None):
        digests, timed = [], []
        for cfg in block:
            speed.maybe_sample()
            t0 = CLOCK()
            outcome = attempt(cfg, out_path, tracer)
            checker.check(cfg, outcome)
            if outcome is None:
                digests.append(None)
            else:
                digests.append((workloads.verdict_digest(outcome), workloads.report_digest(outcome)))
                timed.append((t0, outcome.seconds))
        return digests, timed

    one_pass()  # warm-up: every kind in the block runs once before timing
    before = checker.bytes_changed
    plain, plain_timed = one_pass()
    changed = checker.bytes_changed - before
    first = spans.Tracer()
    with first:
        traced, traced_timed = one_pass(first)
    second = spans.Tracer()
    with second:
        one_pass(second)
    same_verdicts = traced == plain
    same_counts = spans.counts(first.spans) == spans.counts(second.spans)
    checker.self_check = same_verdicts and same_counts
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
    first.write_jsonl(span_file)

    values = spans.layer_values(first.spans)
    values["report.bytes_changed"] = changed
    speed.sample()
    plain_s = sum(speed.rescale(*t) for t in plain_timed)
    traced_s = sum(speed.rescale(*t) for t in traced_timed)
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    print(f"workload {w.name} seed {args.seed} traced: {len(block)} calls per pass, "
          f"{len(first.spans)} spans written to {span_file.relative_to(ROOT)}")
    print(f"  traced verdicts equal untraced: {same_verdicts}; "
          f"call counts repeat exactly: {same_counts}")
    for name, unit in spans.PER_LAYER:
        print(f"  {name:<32} {values[name]:14.6g} {unit}")
    print("  self-time share by layer: " + ", ".join(
        f"{k} {v:.1%}" for k, v in spans.module_shares(first.spans).items()))
    return {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semiapprox" / "__init__.py").is_file():
        print(f"error: no semiapprox package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import semiapprox

    if not Path(semiapprox.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported semiapprox from {semiapprox.__file__}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    checker = Checker(load_reference(w.name))
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        print("machine: " + json.dumps(machine()))
        run = run_traced if args.trace else run_untraced
        metrics = run(w, args, checker, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
