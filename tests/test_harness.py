import dataclasses
import math

import numpy as np
import pytest

from semiapprox import contour, linalg, numrange
from semiapprox.errors import InsufficientDataError, InvalidInputError
from semiapprox.harness import (
    _NORM_CHUNK,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    _stacked_norms,
    fit_rate,
    make_record,
    run_experiment,
)


def test_registry_covers_every_result():
    assert EXPERIMENT_KINDS == (
        "sqrt_n",
        "cbrt_n",
        "telescopic",
        "chernoff_product",
        "trotter_product",
        "ritt",
        "norm_chernoff",
        "selfadjoint",
        "euler",
        "euler_rate",
        "dunford_segal",
        "tnk_equivalence",
        "contour_reconstruction",
        "poisson_split",
    )


def test_make_record_pass_rule():
    r = make_record("x", 4, 0.0, 1.0, 1.0)
    assert r.passed and r.ratio == 1.0
    r = make_record("x", 4, 0.0, 1.0 + 1e-7, 1.0)
    assert not r.passed
    r = make_record("x", 4, 0.0, 0.0, 0.0)
    assert r.passed and r.ratio == 0.0
    r = make_record("x", 4, 0.0, 5e-11, 0.0)
    assert r.passed and math.isinf(r.ratio)
    r = make_record("x", 4, 0.0, 5e-10, 0.0)
    assert not r.passed


def test_make_record_fields_are_python_scalars():
    # NumPy inputs (as chernoff_split_sum returns) must not leak into records
    r = make_record("x", np.int64(4), np.float64(0.5), np.float64(1.0), np.float64(2.0))
    assert type(r.n) is int and type(r.passed) is bool
    assert all(type(v) is float for v in (r.t, r.empirical, r.bound, r.ratio))
    assert type(make_record("x", 4, 0.0, np.float64(1.0), np.float64(0.0)).ratio) is float


def test_fit_rate_exact_power_laws():
    points = [(n, 1.0 / n) for n in (1, 2, 4, 8, 16, 32)]
    est = fit_rate(points)
    assert est.exponent_p == pytest.approx(1.0, abs=1e-12)
    assert est.prefactor == pytest.approx(1.0, rel=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.n_range == (1, 32)

    points = [(n, 5.0 * n ** (-1 / 3)) for n in (1, 2, 4, 8, 16)]
    est = fit_rate(points)
    assert est.exponent_p == pytest.approx(1 / 3, abs=1e-12)
    assert est.prefactor == pytest.approx(5.0, rel=1e-12)


def test_fit_rate_scalar_euler_sweep():
    errs = [(2**k, abs((1 + 1.0 / 2**k) ** (-(2**k)) - math.exp(-1.0))) for k in range(11)]
    est = fit_rate(errs)
    assert 0.9 <= est.exponent_p <= 1.1


def test_fit_rate_drops_zero_cells():
    points = [(1, 0.0), (2, 0.5), (4, 0.25), (8, 0.125), (16, 0.0625), (32, 0.03125)]
    est = fit_rate(points)
    assert est.dropped == 1
    assert est.exponent_p == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InsufficientDataError):
        fit_rate([(1, 0.0), (2, 0.0), (4, 1.0), (8, 0.5), (16, 0.25), (32, 0.125)])
    with pytest.raises(InsufficientDataError):
        fit_rate([(1, 1.0), (2, 0.5)])


def test_fit_rate_respects_min_n():
    points = [(1, 100.0)] + [(n, 1.0 / n) for n in (4, 8, 16, 32, 64)]
    est = fit_rate(points, fit_min_n=4)
    assert est.exponent_p == pytest.approx(1.0, abs=1e-12)
    assert est.n_range == (4, 64)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(kind="not_a_kind")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(kind="sqrt_n", n_mode="weird")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(kind="tnk_equivalence", n_mode="all")
    for bad_t in (math.nan, math.inf, -1.0):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(kind="poisson_split", ts=(1.0, bad_t))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(kind="selfadjoint", ts=(-1.0,))
    # an empty t-grid used to fail later, inside the runners
    for kind in ("ritt", "tnk_equivalence", "poisson_split"):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(kind=kind, ts=())
    for bad_alpha in (-3.0, math.pi / 2, math.nan):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(kind="sqrt_n", alpha=bad_alpha)
    # the closed ends of the ranges stay valid
    ExperimentConfig(kind="selfadjoint", ts=(0.0,), alpha=0.0)
    for field in ("dim", "trials", "nmax"):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(kind="sqrt_n", **{field: 0})


def small_config(kind, **kw):
    base = dict(kind=kind, dim=4, trials=4, nmax=64, ts=(1.0,), alpha=math.pi / 8, vectors=3)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_kind_runs_and_passes(kind):
    result = run_experiment(small_config(kind))
    assert result.records, kind
    assert all(r.passed for r in result.records), kind
    assert result.summary["kind"] == kind
    assert result.summary["count"] == len(result.records)
    finite = [r.ratio for r in result.records if math.isfinite(r.ratio)]
    assert result.summary["max_ratio"] == max(finite)
    assert result.summary["all_passed"]
    assert result.summary["slack"] == {"relative": 1e-8, "absolute": 1e-10}


def test_records_deterministic_across_runs():
    cfg = small_config("ritt")
    assert run_experiment(cfg).records == run_experiment(cfg).records
    cfg2 = small_config("ritt", seed=cfg.seed + 1)
    assert run_experiment(cfg2).records != run_experiment(cfg).records


def test_trotter_commuting_cells_are_exact():
    result = run_experiment(ExperimentConfig("trotter_product"))
    commuting = [r for r in result.records if "/commuting/" in r.experiment_id]
    noncommuting = [r for r in result.records if "/noncommuting/" in r.experiment_id]
    assert commuting and noncommuting
    assert all(r.empirical <= 1e-10 for r in commuting)
    assert result.summary["noncommuting_rate_fits"]
    # their bound is 0.0, so they are the records that pass only through the slack
    slack_only = [r for r in result.records if r.passed and r.empirical > r.bound]
    assert slack_only == commuting
    assert (len(result.records), result.summary["slack_only_passes"]) == (90, 45)


def test_euler_rate_summary_fits():
    result = run_experiment(small_config("euler_rate", nmax=1024, trials=3))
    fits = result.summary["rate_fits"]
    assert fits
    for fit in fits.values():
        assert 0.9 <= fit["exponent_p"] <= 1.1
    # monotone decay is reported, never asserted
    assert "monotonicity_violations" in result.summary


def test_dunford_segal_summary_constants():
    result = run_experiment(small_config("dunford_segal", nmax=256, trials=3))
    assert result.summary["empirical_N_hat"] > 0.0
    assert math.isfinite(result.summary["empirical_N_hat"])
    assert result.summary["l_alpha"] > 2.0
    assert result.summary["two_step_terms"]


def test_contour_majorant_failures_are_counted(monkeypatch):
    cfg = small_config("contour_reconstruction", trials=1, nmax=2)
    result = run_experiment(cfg)
    assert result.summary["certification_failures"] == 0
    assert result.summary["majorant_failures"] == 0

    check = contour.contour_norm_bound_check

    def failing_check(*args):
        return dataclasses.replace(check(*args), passed=False)

    monkeypatch.setattr(contour, "contour_norm_bound_check", failing_check)
    failed = run_experiment(cfg)
    assert failed.summary["majorant_failures"] == 1
    # the verdict is reported in the summary; the records are unchanged
    assert failed.records == result.records


def test_selfadjoint_records_meet_tight_tolerance():
    result = run_experiment(ExperimentConfig("selfadjoint"))
    for r in result.records:
        assert r.empirical <= r.bound + 1e-12
    # at n = 1 the eigenvalue 0 meets the chernoff bound 1/e exactly, so rounding
    # can land above it and the record passes only through the slack
    slack_only = [r for r in result.records if r.passed and r.empirical > r.bound]
    assert all(r.experiment_id.endswith("/chernoff") and r.n == 1 for r in slack_only)
    assert (len(result.records), result.summary["slack_only_passes"], len(slack_only)) == (180, 2, 2)


def test_stacked_norms_keep_order_across_chunks(monkeypatch):
    # 130 values of n make chunks of 64 + 64 + 2 items with two matrices each
    assert _NORM_CHUNK == 64
    rng = np.random.default_rng(7)
    items = [
        (n, [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)])
        for n in range(1, 131)
    ]
    expected = [(n, [linalg.op_norm(m) for m in ms]) for n, ms in items]
    stack_sizes = []
    op_norms = linalg.op_norms

    def counting_op_norms(stack):
        stack_sizes.append(len(stack))
        return op_norms(stack)

    monkeypatch.setattr(linalg, "op_norms", counting_op_norms)
    assert list(_stacked_norms(iter(items))) == expected
    assert stack_sizes == [128, 128, 4]
    assert list(_stacked_norms([])) == []
    assert stack_sizes == [128, 128, 4]


@pytest.mark.parametrize(
    "kind", ["dunford_segal", "euler", "ritt", "norm_chernoff", "contour_reconstruction"]
)
def test_default_configs_certify_from_the_polygon(monkeypatch, kind):
    # every check of a default run is decided from the outside: each generator's
    # sector by its two edge normals, each quasi-sectoriality check by the outer
    # polygon; no boundary point is ever sampled
    sweeps = []
    sweep = numrange.numerical_range_boundary
    monkeypatch.setattr(numrange, "numerical_range_boundary", lambda c, k: sweeps.append(k) or sweep(c, k))
    config = ExperimentConfig(kind)
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 0
    assert sweeps == []


@pytest.mark.parametrize(("kind", "pairs"), [("dunford_segal", 10 * 2 + 90 * 8), ("ritt", 10 * 8)])
def test_default_configs_fit_at_the_first_polygon_level(monkeypatch, kind, pairs):
    # every polygon of a default run fits at 16 angles, so each of the 90 steps
    # of dunford_segal (10 draws, n = 1, 2, ..., 256) and each of the 10 ritt
    # draws solves 8 (matrix, angle) pairs; each dunford_segal generator adds
    # its 2 edge normals.  The flat polygons took 2900 and 1280 pairs.
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: sizes.append(len(h)) or eigvalsh(h))
    run_experiment(ExperimentConfig(kind))
    assert sum(sizes) == pairs


def counting(monkeypatch, module, name):
    """Record the first argument of every call of module.name, which still runs."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *rest: calls.append(first) or fn(first, *rest))
    return calls


def test_dunford_segal_checks_each_draw_and_t_as_one_stack(monkeypatch):
    config = ExperimentConfig("dunford_segal", dim=4, trials=3, nmax=64, ts=(0.5, 2.0))
    expected = run_experiment(config)
    checks = counting(monkeypatch, numrange, "quasi_sectorial")
    norms = counting(monkeypatch, linalg, "op_norms")
    result = run_experiment(config)
    assert result.records == expected.records and result.summary == expected.summary
    # 3 draws x 2 values of t, each with the 7 steps of n = 1, 2, ..., 64
    assert [c.shape for c in checks] == [(7, 4, 4)] * 6
    assert [len(stack) for stack in norms] == [14] * 6
    # the 70 steps of n = 1, ..., 70 go in stacks of _NORM_CHUNK = 64 steps and the rest
    checks.clear()
    norms.clear()
    result = run_experiment(dataclasses.replace(config, trials=1, ts=(1.0,), nmax=70, n_mode="all"))
    assert [r.n for r in result.records] == list(range(1, 71))
    assert [c.shape for c in checks] == [(64, 4, 4), (6, 4, 4)]
    assert [len(stack) for stack in norms] == [128, 12]


def test_dunford_segal_keeps_order_and_counts_when_steps_fail(monkeypatch):
    # fail every third step check: records, failures and two-step terms skip those steps
    config = ExperimentConfig("dunford_segal", dim=3, trials=2, nmax=32, ts=(1.0, 3.0))
    check = numrange.quasi_sectorial
    full = run_experiment(config)
    monkeypatch.setattr(
        numrange, "quasi_sectorial",
        lambda c, alpha, k: [ok and j % 3 != 1 for j, ok in enumerate(check(c, alpha, k))],
    )
    result = run_experiment(config)
    kept = [r for j, r in enumerate(full.records) if j % 6 % 3 != 1]
    assert result.records == kept
    assert result.summary["certification_failures"] == 8
    terms = full.summary["two_step_terms"]
    assert result.summary["two_step_terms"] == {
        rid: [cell for j, cell in enumerate(cells) if j % 3 != 1] for rid, cells in terms.items()
    }


def test_resolvent_draws_are_checked_in_one_stack(monkeypatch):
    config = ExperimentConfig("ritt", dim=5, trials=7, nmax=8)
    checks = counting(monkeypatch, numrange, "quasi_sectorial")
    full = run_experiment(config)
    assert [c.shape for c in checks] == [(7, 5, 5)]
    assert full.summary["certification_failures"] == 0
    # fail the odd draws: their records go, and they are counted
    check = numrange.quasi_sectorial
    monkeypatch.setattr(
        numrange, "quasi_sectorial",
        lambda c, alpha, k: [ok and i % 2 == 0 for i, ok in enumerate(check(c, alpha, k))],
    )
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 3
    even = ("d000", "d002", "d004", "d006")
    assert result.records == [r for r in full.records if r.experiment_id.split("/")[1] in even]
