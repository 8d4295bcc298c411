"""Seeded workloads: fixed pools of verify calls, ordered by the run seed.

Each workload is a pool of ``blocks`` blocks.  A block holds one call per
slot, and a slot fixes everything but the library seed (kind, dim, alpha,
t, report format), so every block costs about the same.  A run is a fixed
number of whole blocks, so it has the same mix of call costs whatever its
seed.  The run seed chooses which blocks, in which order, and the order of
the calls inside each block.  Because every call a seed can produce is in
the pool, the stored reference (``reference/<workload>.json``) covers every
seed.

This module imports only the standard library until a call is made, so the
set-up probe can time ``import semiapprox`` on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass

ALPHAS = (math.pi / 16, math.pi / 8, math.pi / 4)
TS = (0.1, 1.0, 10.0)

# Every CLI kind except contour_reconstruction, which has its own workload.
CATALOGUE_KINDS = (
    "sqrt_n", "cbrt_n", "telescopic", "chernoff_product", "trotter_product",
    "ritt", "norm_chernoff", "selfadjoint", "euler", "euler_rate",
    "dunford_segal", "tnk_equivalence", "poisson_split",
)
# Kinds whose calls take under 15 ms run at dim 8 only, so that the median
# call falls inside the dense group of 20-45 ms calls, not on the gap below it.
CATALOGUE_FAST = ("sqrt_n", "cbrt_n", "telescopic", "selfadjoint", "tnk_equivalence")
# Every grid has two values, so the slots' costs differ less.
CATALOGUE_TS = ("0.5,2", "1,4", "0.1,10")
CATALOGUE_EPS = ("1.5,3", "2,4", "2.5,5")  # poisson_split reads --t as its epsilon grid


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: int
    slots: tuple
    make: object  # (block, slot index, slot) -> config dict
    block_s: float  # rescaled seconds one block took at commit f0a3510 (see speed.py)

    def config(self, index: int) -> dict:
        block, s = divmod(index, len(self.slots))
        return self.make(block, s, self.slots[s])

    @property
    def pool_size(self) -> int:
        return self.blocks * len(self.slots)


def _norm_sweep(block: int, s: int, dim) -> dict:
    return {
        "path": "harness", "kind": ("ritt", "norm_chernoff")[s % 2], "dim": dim,
        "alpha": ALPHAS[s % 3], "seed": 1_000_000 + block * 100 + s,
        "trials": 1, "nmax": 4096, "ts": [TS[(s // 2) % 3]],
        "n_mode": "all", "fmt": "csv",
    }


def _contour_calc(block: int, s: int, slot) -> dict:
    return {
        "path": "harness", "kind": "contour_reconstruction", "dim": slot,
        "alpha": ALPHAS[s % 3], "seed": 2_000_000 + block * 100 + s,
        "trials": 1, "nmax": 16, "ts": [TS[(s // 3) % 3]],
        "n_mode": "pow2", "fmt": "json",
    }


def _catalogue(block: int, s: int, slot) -> dict:
    kind, dim, fmt = slot
    ts = CATALOGUE_EPS if kind == "poisson_split" else CATALOGUE_TS
    return {
        "path": "cli",
        "argv": [
            "verify", kind, "--dim", str(dim), "--alpha", repr(ALPHAS[s % 3]),
            "--seed", str(3_000_000 + block * 100 + s), "--trials", "3", "--nmax", "512",
            "--t", ts[(s // 4) % 3], "--format", fmt,
        ],
        "fmt": fmt,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "norm_sweep",
            32,
            # dims 16 and 32 are weighted double: with 7 blocks (42 calls) the
            # median call falls in the middle of the dim-16 group and the tail
            # percentile inside the dim-32 group, not on a gap between groups
            (4, 8, 16, 16, 32, 32),
            _norm_sweep,
            2.27,
        ),
        Workload(
            "contour_calc",
            16,
            tuple(range(2, 17)),
            _contour_calc,
            4.2,
        ),
        Workload(
            "catalogue",
            32,
            tuple(
                (k, d, f) for k in CATALOGUE_KINDS
                for d in ((8,) if k in CATALOGUE_FAST else (4, 8)) for f in ("csv", "json")
            ),
            _catalogue,
            1.55,
        ),
    )
}


def config_key(cfg: dict) -> str:
    """Stable identifier of a call, used to look up its reference."""
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:20]


def blocks_for_seed(workload: Workload, seed: int):
    """Yield the blocks of a run forever: the seed fixes both orders."""
    rng = random.Random(seed)
    width = len(workload.slots)
    while True:
        for b in rng.sample(range(workload.blocks), workload.blocks):
            slots = rng.sample(range(width), width)
            yield [workload.config(b * width + s) for s in slots]


def blocks_per_run(workload: Workload, seconds: float, min_calls: int) -> int:
    """Whole blocks that take ``seconds`` at reference speed, and at least ``min_calls``.

    The count depends only on ``seconds``, so every run of a workload makes
    the same number of calls of the same mix, whatever the machine's speed.
    """
    width = len(workload.slots)
    return max(round(seconds / workload.block_s), -(-min_calls // width))


def warmup_config(workload: Workload) -> dict:
    """The fixed call used to warm up, in the probe and before a run."""
    return workload.config(0)


@dataclass
class Outcome:
    seconds: float  # wall time of the library call only
    exit_code: int
    rows: list  # (experiment_id, n, t, passed) per report row
    report: bytes


def run_call(cfg: dict, out_path: str, clock) -> Outcome:
    """Make one verify call, timed by ``clock``, then read its verdicts back.

    The harness path is ``run_experiment`` plus ``emit_report`` in memory;
    the CLI path is ``cli.main(["verify", ...])`` writing ``out_path``.
    """
    if cfg["path"] == "harness":
        from semiapprox import harness, report

        t0 = clock()
        result = harness.run_experiment(
            harness.ExperimentConfig(
                kind=cfg["kind"], dim=cfg["dim"], alpha=cfg["alpha"], seed=cfg["seed"],
                trials=cfg["trials"], nmax=cfg["nmax"], ts=tuple(cfg["ts"]),
                n_mode=cfg["n_mode"],
            )
        )
        data = report.emit_report(result.records, cfg["fmt"], summary=result.summary)
        code = 0 if all(r.passed for r in result.records) else 1
        seconds = clock() - t0
        rows = [(r.experiment_id, r.n, r.t, r.passed) for r in result.records]
        return Outcome(seconds, code, rows, data)

    from semiapprox import cli

    t0 = clock()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(cfg["argv"] + ["--out", out_path])
    seconds = clock() - t0
    with open(out_path, "rb") as fh:
        data = fh.read()
    return Outcome(seconds, code, parse_rows(data, cfg["fmt"]), data)


def parse_rows(data: bytes, fmt: str) -> list:
    """Verdict columns of a CSV or JSON report, read without the library."""
    if fmt == "json":
        return [
            (r["experiment_id"], int(r["n"]), float(r["t"]), bool(r["passed"]))
            for r in json.loads(data)["records"]
        ]
    lines = data.decode().splitlines()[1:]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append((cells[0], int(cells[1]), float(cells[2]), cells[6] == "true"))
    return out


def verdict_digest(outcome: Outcome) -> str:
    """Digest of what a verdict consists of: ids, n, t, passed and exit code."""
    h = hashlib.sha256()
    for rid, n, t, passed in outcome.rows:
        h.update(f"{rid},{n},{t!r},{int(passed)}\n".encode())
    h.update(f"exit={outcome.exit_code}".encode())
    return h.hexdigest()[:20]


def report_digest(outcome: Outcome) -> str:
    return hashlib.sha256(outcome.report).hexdigest()[:20]
