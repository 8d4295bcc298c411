"""Tests of the benchmark's own code.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _calls(w, seed, blocks):
    gen = workloads.blocks_for_seed(w, seed)
    return [cfg for _ in range(blocks) for cfg in next(gen)]


def test_workloads_are_deterministic_given_the_seed():
    for w in workloads.WORKLOADS.values():
        assert _calls(w, 7, w.blocks + 1) == _calls(w, 7, w.blocks + 1)
        assert _calls(w, 7, 2) != _calls(w, 8, 2)


def test_a_cycle_of_blocks_makes_each_pool_block_once():
    for w in workloads.WORKLOADS.values():
        width = len(w.slots)
        keys = [workloads.config_key(w.config(i)) for i in range(w.pool_size)]
        assert len(set(keys)) == w.pool_size
        pool_blocks = {frozenset(keys[b * width:(b + 1) * width]) for b in range(w.blocks)}
        gen = workloads.blocks_for_seed(w, 3)
        cycle = [frozenset(map(workloads.config_key, next(gen))) for _ in range(w.blocks)]
        assert set(cycle) == pool_blocks and len(cycle) == w.blocks


def test_every_pool_call_has_a_reference():
    for w in workloads.WORKLOADS.values():
        with open(BENCH / "reference" / f"{w.name}.json") as fh:
            reference = json.load(fh)["calls"]
        keys = {workloads.config_key(w.config(i)) for i in range(w.pool_size)}
        assert keys == set(reference)


def _cheap_calls():
    """The cheapest slot of the harness workloads and one block of the CLI one."""
    norm = workloads.WORKLOADS["norm_sweep"]
    contour = workloads.WORKLOADS["contour_calc"]
    catalogue = workloads.WORKLOADS["catalogue"]
    return [norm.config(0), contour.config(0)] + [
        catalogue.config(i) for i in range(len(catalogue.slots))
    ]


def test_wrapping_leaves_results_bit_identical(tmp_path):
    from semiapprox import harness

    original = harness.run_experiment
    out = str(tmp_path / "report")
    for cfg in _cheap_calls():
        plain = workloads.run_call(cfg, out, time.perf_counter)
        tracer = spans.Tracer()
        with tracer:
            assert harness.run_experiment is not original
            traced = tracer.call(workloads.run_call, cfg, out, time.perf_counter)
        assert harness.run_experiment is original
        assert traced.report == plain.report
        assert traced.rows == plain.rows
        assert traced.exit_code == plain.exit_code
        assert len(tracer.spans) > 1 and tracer.spans[0][0] == spans.ROOT


def test_self_time_subtracts_children():
    fake = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 6.0, 0, None],
    ]
    assert spans.self_times(fake) == [6.0, 2.0, 1.0, 1.0]


def _result(args, cwd):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def test_printed_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc, lines = _result(
            ["--workload", "catalogue", "--seed", "5", "--seconds", "0.5", "--trace", trace], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(NAME.match(name) for name in result["metrics"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result(["--workload", "catalogue", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith('{"correct"') for line in lines)
