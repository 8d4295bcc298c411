"""Driving the experiment harness programmatically and emitting reports.

The same sweeps are reachable from the command line, e.g.:

    semiapprox verify ritt --dim 8 --alpha 0.3926990816987241 --trials 20 \
        --nmax 1024 --out ritt.csv
    semiapprox verify euler_rate --nmax 1024 --fit-min-n 4 --format json
    semiapprox constants --alpha 0.0
"""

import math
import sys

from semiapprox import report
from semiapprox.harness import ExperimentConfig, run_experiment

config = ExperimentConfig(
    kind="norm_chernoff",
    dim=6,
    alpha=math.pi / 8,
    seed=2024,
    trials=5,
    nmax=256,
    ts=(0.5, 2.0),
)
result = run_experiment(config)
print(f"experiment {config.kind}: {len(result.records)} records, "
      f"all passed = {result.summary['all_passed']}, "
      f"max ratio = {result.summary['max_ratio']:.4f}")
print(f"L_alpha = {result.summary['l_alpha']:.4f}, "
      f"certification failures = {result.summary['certification_failures']}")

print("\nfirst CSV rows:")
for line in report.emit_report(result.records, "csv").decode().splitlines()[:5]:
    print(" ", line)

print("\nidentical configs reproduce identical bytes:")
again = run_experiment(config)
b1 = report.emit_report(result.records, "json", result.summary)
b2 = report.emit_report(again.records, "json", again.summary)
print("  byte-identical:", b1 == b2)
sys.exit(0 if result.summary["all_passed"] else 1)
