"""Golden reports: the CSV and JSON bytes of every experiment kind are pinned.

The files under ``tests/golden/`` hold the reports of small configs, one per
kind plus the full n-grid of ``ritt``, ``norm_chernoff`` (dim 3),
``dunford_segal`` (dim 3, n <= 80), ``euler`` and ``trotter_product`` (n <= 80)
and ``contour_reconstruction`` (dim 5), a wider ``contour_reconstruction`` (dim 8, alpha = pi/4),
a Hermitian one (alpha = 0, whose majorant check takes exact norms), and
``chernoff_product`` at t = 0.  A change to the harness that alters any verdict,
number, record order or summary key shows up here as a byte difference,
and the records of each ``.json`` file must equal those of its ``.csv`` twin.
Rewrite the files only when a report is meant to change, with
``PYTHONPATH=src python tests/test_golden.py``, which also writes the
OpenBLAS kernel it ran under to ``KERNEL``: the last bits follow the
kernel, and a mismatch under another one says so.
"""

import math
import pathlib
import sys

import numpy as np
import pytest

import conftest
from semiapprox import harness, linalg, report
from semiapprox.harness import EXPERIMENT_KINDS, ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _config(kind, **kw):
    ts = (1.5, 3.0) if kind == "poisson_split" else (0.5, 2.0)
    base = dict(kind=kind, dim=4, alpha=math.pi / 8, seed=20_240_517, trials=2,
                nmax=16, ts=ts, vectors=3)
    base.update(kw)
    return ExperimentConfig(**base)


CASES = {kind: _config(kind) for kind in EXPERIMENT_KINDS}
CASES["ritt_all"] = _config("ritt", dim=3, n_mode="all")
CASES["norm_chernoff_all"] = _config("norm_chernoff", dim=3, n_mode="all")
CASES["contour_reconstruction_all"] = _config("contour_reconstruction", dim=5, n_mode="all")
CASES["contour_reconstruction_wide"] = _config("contour_reconstruction", dim=8, alpha=math.pi / 4)
# alpha = 0 draws are Hermitian: the polygon bound leaves nodes open, and the majorant check takes their exact norms
CASES["contour_reconstruction_alpha0"] = _config("contour_reconstruction", alpha=0.0)
# 80 steps per (draw, t) for each pair kind: no multiple of _NORM_CHUNK = 64
CASES["dunford_segal_all"] = _config("dunford_segal", dim=3, nmax=80, n_mode="all")
CASES["euler_all"] = _config("euler", nmax=80, n_mode="all")
CASES["trotter_product_all"] = _config("trotter_product", nmax=80, n_mode="all")
# t = 0: every step and e^{-tA} is the identity
CASES["chernoff_product_t0"] = _config("chernoff_product", ts=(0.0, 1.0))


def _reports(config):
    result = run_experiment(config)
    return {
        fmt: report.emit_report(result.records, fmt, summary=result.summary)
        for fmt in ("csv", "json")
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    for fmt, data in _reports(CASES[name]).items():
        assert data == (GOLDEN / f"{name}.{fmt}").read_bytes(), f"{name}.{fmt}{conftest.golden_kernel_note()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_and_csv_goldens_hold_the_same_records(name):
    # anchors a rewrite of the files of one format to those of the other
    records = {
        fmt: report.parse_report((GOLDEN / f"{name}.{fmt}").read_bytes(), fmt)[0]
        for fmt in ("csv", "json")
    }
    assert records["json"] == records["csv"]


def test_a_mismatch_names_the_kernel_the_goldens_were_written_under(monkeypatch):
    written = conftest.GOLDEN_KERNEL.read_text().strip()
    monkeypatch.setattr(conftest, "_openblas_corename", lambda: written)
    assert conftest.golden_kernel_note() == ""
    monkeypatch.setattr(conftest, "_openblas_corename", lambda: "Other")
    assert conftest.golden_kernel_note() == f"; written under {written}, this run uses Other"


def test_selfadjoint_full_grid():
    result = run_experiment(_config("selfadjoint", n_mode="all"))
    for suffix in ("ritt", "chernoff"):
        ns = [r.n for r in result.records if r.experiment_id == f"selfadjoint/d000/{suffix}"]
        assert ns == list(range(1, 17))


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_harness_forms_no_matrix_function_or_draw(kind, monkeypatch):
    # C^n and e^{n(C-1)} come from approximants, and every generator from ensembles
    callers = set()
    for owner, name in ((linalg, "expm"), (linalg, "mat_pow"), (np.random, "default_rng")):
        def recorded(*args, _inner=getattr(owner, name), **kwargs):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    run_experiment(CASES[kind])
    assert "semiapprox.harness" not in callers, kind
    assert "semiapprox.ensembles" in callers, kind


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_kind_takes_its_draws_from_one_call(kind, monkeypatch):
    # one seam for every draw source: each runner asks harness._draws once
    calls = []
    draws = harness._draws
    monkeypatch.setattr(harness, "_draws", lambda *args: calls.append(args[1]) or draws(*args))
    run_experiment(CASES[kind])
    assert len(calls) == 1, kind


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    conftest.GOLDEN_KERNEL.write_text(conftest._openblas_corename() + "\n")
    for name, config in sorted(CASES.items()):
        for fmt, data in _reports(config).items():
            (GOLDEN / f"{name}.{fmt}").write_bytes(data)
