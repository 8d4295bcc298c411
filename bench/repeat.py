"""Repeat the benchmark over several seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 bench/repeat.py --seeds 1-10 [--workloads norm_sweep,catalogue] [--out FILE]

For each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json.  ``--out`` writes the same as JSON,
with the machine line of the first run and every run's values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": args.seconds, "seeds": args.seeds, "machine": None, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            if summary["machine"] is None:
                summary["machine"] = json.loads(lines[0].partition("machine: ")[2] or "null")
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                         "attempted": result["attempted"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items() if isinstance(v, float)), flush=True)
        stats = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[metric] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound}
        summary["workloads"][name] = {
            "metrics": stats, "runs": runs,
            "all_correct": all(r["correct"] for r in runs),
            "not_steady_within_a_tenth": [m for m, s in stats.items() if s["spread"] > 0.1],
        }
        print(f"{name}: all correct {summary['workloads'][name]['all_correct']}")
        for metric, s in stats.items():
            mark = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {metric:<14} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.3f} (bound {s['bound']}) {mark}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
