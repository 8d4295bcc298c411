import concurrent.futures
import dataclasses
import math
import os
import threading

import numpy as np
import pytest

from semiapprox import approximants, contour, ensembles, harness, linalg, numrange, poisson, report
from semiapprox.errors import ContourTooCloseError, InsufficientDataError, InvalidInputError
from semiapprox.harness import (
    _NORM_CHUNK,
    EXPERIMENT_KINDS,
    ErrorRecord,
    ExperimentConfig,
    _draws,
    _gap_stacks,
    _n_grid,
    _pair_sweep,
    _partner_columns,
    _power_error,
    _product_columns,
    _ritt_gap_sweep,
    _sectorial,
    _split_pair,
    _step_chunks,
    _unit_vectors,
    _vector_sweep,
    fit_rate,
    make_record,
    pow2_grid,
    run_experiment,
)
from semiapprox.tolerances import TOL_GEO
from test_golden import CASES


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


def test_a_record_is_an_immutable_hashable_row_built_once_per_cell(monkeypatch):
    r = make_record("x", 4, 0.5, 0.25, 1.0)
    with pytest.raises(AttributeError):
        r.passed = False
    # a record is a tuple: it equals, and hashes as, the plain tuple of its fields
    assert r == ("x", 4, 0.5, 0.25, 1.0, 0.25, True)
    assert hash(r) == hash(("x", 4, 0.5, 0.25, 1.0, 0.25, True))
    assert ",".join(ErrorRecord._fields) == report.CSV_HEADER
    # every record of every golden config comes from one make_record call
    calls = []

    def spy(*cell):
        calls.append(cell)
        return make_record(*cell)

    monkeypatch.setattr(harness, "make_record", spy)
    for name, config in CASES.items():
        calls.clear()
        records = run_experiment(config).records
        assert len(calls) == len(records), name


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
    # every count is an integer >= 1: vectors=0 gave a vacuous pass with no
    # records, vectors=-1 a bare ValueError, dim=2.5 and trials=2.0 a
    # TypeError, and nmax=4.5 ran
    for field in ("dim", "trials", "nmax", "vectors"):
        for bad in (0, -1, 2.5, 2.0, True, "3", None):
            with pytest.raises(InvalidInputError, match=f"{field} must be an integer >= 1"):
                ExperimentConfig(kind="sqrt_n", **{field: bad})
    ExperimentConfig(kind="sqrt_n", dim=1, trials=1, nmax=1, vectors=np.int64(1))


def test_config_refuses_bad_seeds_and_non_numbers():
    # the draws take the seed mod 2^64, so -1 ran as 2^64 - 1; 1.5, "0.3",
    # ("1",) and None raised a bare TypeError
    for bad in (-1, 2**64, 1.5, 2.0, True, "7", None):
        with pytest.raises(InvalidInputError, match=r"seed must be an integer in \[0, 2\^64\)"):
            ExperimentConfig(kind="sqrt_n", seed=bad)
    for field in ("alpha", "fit_min_n"):
        for bad in ("0.3", None, True, 0.1j):
            with pytest.raises(InvalidInputError, match=f"{field} must be a real number"):
                ExperimentConfig(kind="sqrt_n", **{field: bad})
    for bad in (("1",), (1.0, None), (True,), 1.0, "12"):
        with pytest.raises(InvalidInputError, match="need at least one t"):
            ExperimentConfig(kind="sqrt_n", ts=bad)
    # the ends of the seed range, NumPy scalars and integer values stay valid
    ExperimentConfig(kind="sqrt_n", seed=0, alpha=0, fit_min_n=np.int64(2), ts=[1, np.float32(2.0)])
    ExperimentConfig(kind="sqrt_n", seed=np.uint64(2**64 - 1), alpha=np.float64(0.3))


def test_config_refuses_t_grids_whose_series_share_a_record_id():
    # two t with one {t:g} label wrote a series' rows twice (1, 1) or merged
    # two series into one rate fit (1, 1.0000001); poisson_split repeats an epsilon's rows
    for kind in ("chernoff_product", "trotter_product", "euler", "euler_rate", "dunford_segal"):
        for ts in ((1.0, 1.0), (1.0, 1.0000001), (0.5, 2.0, 0.5000001)):
            with pytest.raises(InvalidInputError, match="distinct record ids"):
                ExperimentConfig(kind=kind, ts=ts)
        ExperimentConfig(kind=kind, ts=(0.5, 2.0, 1.00001))
    with pytest.raises(InvalidInputError, match=r"t=2 and t=2\.0 share one"):
        ExperimentConfig(kind="poisson_split", ts=(2, 3.0, 2.0))
    # epsilon sits in the row's t, not in its id: close values stay apart
    ExperimentConfig(kind="poisson_split", ts=(1.0, 1.0000001))
    # one t per draw, or none used: such grids stay valid
    for kind in ("ritt", "norm_chernoff", "contour_reconstruction", "sqrt_n", "tnk_equivalence"):
        ExperimentConfig(kind=kind, ts=(1.0, 1.0))


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


def test_contour_majorant_failures_are_counted(monkeypatch):
    cfg = small_config("contour_reconstruction", trials=1, nmax=2)
    result = run_experiment(cfg)
    assert result.summary["certification_failures"] == 0
    assert result.summary["majorant_failures"] == 0

    many = contour.riesz_dunford_many

    def failing_check(*args):
        values, report = many(*args)
        return values, dataclasses.replace(report, passed=False)

    monkeypatch.setattr(contour, "riesz_dunford_many", failing_check)
    failed = run_experiment(cfg)
    assert failed.summary["majorant_failures"] == 1
    # the verdict is reported in the summary; the records are unchanged
    assert failed.records == result.records


def test_a_default_contour_run_at_alpha_1_3_is_refused():
    # two of the ten default draws at alpha = 1.3 (d005 and d009) are
    # proved on no trial contour, and the run raises
    with pytest.raises(ContourTooCloseError, match="not proved within 1e-08 on any trial contour"):
        run_experiment(ExperimentConfig("contour_reconstruction", alpha=1.3))


def test_contour_winding_error_is_that_of_the_solved_contours(monkeypatch):
    # draws proved on the (8, 7), (8, 12) and (16, 5) trial contours (the
    # side counts from each draw's distance to the vertex): each report
    # carries the winding error of the contour it checked, and the
    # summary's is the largest of them
    cfg = small_config("contour_reconstruction", alpha=math.pi / 4, ts=(0.1, 10.0), nmax=4)
    checked, check = [], contour._check_report

    def spy(nodes, *args):
        report = check(nodes, *args)
        checked.append(((nodes.k_arc, nodes.k_line), report.winding_error))
        return report

    monkeypatch.setattr(contour, "_check_report", spy)
    result = run_experiment(cfg)
    alpha_prime = result.summary["alpha_prime"]
    shapes = ((8, 7), (8, 12), (16, 5))
    errors = {shape: abs(contour.winding_number(contour._build_contour(alpha_prime, *shape), 0.2) - 1.0) for shape in shapes}
    assert sorted({shape for shape, _ in checked}) == sorted(errors)
    assert all(error == errors[shape] for shape, error in checked)
    assert result.summary["max_winding_error"] == max(errors.values())


def test_selfadjoint_records_meet_tight_tolerance():
    result = run_experiment(ExperimentConfig("selfadjoint"))
    for r in result.records:
        assert r.empirical <= r.bound + 1e-12
    # at n = 1 the eigenvalue 0 meets the chernoff bound 1/e exactly, so rounding
    # can land above it and the record passes only through the slack
    slack_only = [r for r in result.records if r.passed and r.empirical > r.bound]
    assert all(r.experiment_id.endswith("/chernoff") and r.n == 1 for r in slack_only)
    assert (len(result.records), result.summary["slack_only_passes"], len(slack_only)) == (180, 2, 2)


def _ritt_gap_powers(c, ns):
    """(n, C^n, e^{n(C-1)}) over ns, one matrix and one product at a time in the sweeps'
    product order (square while 2 cur <= n, else times the base)."""
    e = approximants.chernoff_exp(c, 1)
    power, partner, cur = c, e, 1
    for n in ns:
        while cur < n:
            if 2 * cur <= n:
                power, partner, cur = power @ power, partner @ partner, 2 * cur
            else:
                power, partner, cur = power @ c, partner @ e, cur + 1
        yield n, power, partner


def _ritt_gap_rows(c, ns, ritt, gap):
    """The rows of _ritt_gap_sweep from the powers of _ritt_gap_powers, and the step C^n C."""
    rows = []
    for n, power, partner in _ritt_gap_powers(c, ns):
        row = (linalg.op_norm(power - power @ c),) if ritt else ()
        rows.append((n, row + ((linalg.op_norm(power - partner),) if gap else ())))
    return rows


def test_ritt_gap_sweep_keeps_order_across_chunks(monkeypatch):
    assert _NORM_CHUNK == 64
    rng = np.random.default_rng(7)
    c = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    xs = _unit_vectors(3, 3, 8)
    stack_sizes = []
    op_norms = linalg.op_norms

    def counting_op_norms(stack):
        stack_sizes.append(len(stack))
        return op_norms(stack)

    monkeypatch.setattr(linalg, "op_norms", counting_op_norms)
    # 130 values of n make chunks of 64 + 64 + 2; the 13 powers of two up to 4096 one chunk;
    # both columns, the Ritt column alone and the gap column alone
    for ns, sizes in ((range(1, 131), [64, 64, 2]), (pow2_grid(4096), [13])):
        for ritt, gap in ((True, True), (True, False), (False, True)):
            stack_sizes.clear()
            got = [(n, row) for chunk, columns in _ritt_gap_sweep(c, ns, ritt, gap)
                   for n, row in zip(chunk, zip(*columns))]
            assert got == _ritt_gap_rows(c, ns, ritt, gap), (ns, ritt, gap)
            # one op_norms call per chunk, for all its columns
            assert stack_sizes == [(ritt + gap) * size for size in sizes], (ns, ritt, gap)
            assert list(_ritt_gap_sweep(c, [], ritt, gap)) == []
            assert len(stack_sizes) == len(sizes)
        # the vector sweep reads the gap column of the same pass, and takes no spectral norm
        stack_sizes.clear()
        got = [(n, gaps) for n, gaps, *_ in _vector_sweep(c, xs, ns)]
        want = [(n, np.linalg.norm(((power - partner) @ xs.T).T, axis=1))
                for n, power, partner in _ritt_gap_powers(c, ns)]
        assert [n for n, _ in got] == [n for n, _ in want] == list(ns)
        assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want)), ns
        assert stack_sizes == [] and list(_vector_sweep(c, xs, [])) == []


def _cpus(monkeypatch, count):
    """Let the sweeps see ``count`` CPUs the process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _recorded_executors(monkeypatch):
    """The thread pools the sweeps create from now on, in a list."""
    created = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return created


@pytest.mark.parametrize("dim", [4, 16, 32])
def test_pooled_and_serial_sweeps_yield_the_norms_of_each_gap_stacks_chunk(monkeypatch, dim):
    assert harness._POOL_MIN_DIM == 16
    c = ensembles.random_contraction(dim, 5)
    created = _recorded_executors(monkeypatch)
    # the full grid to 1024 is 16 chunks; criteria 05-07 take the pooled sweep to 4096
    for ns in (range(1, 1025), pow2_grid(4096)):
        for ritt, gap in ((True, True), (True, False), (False, True)):
            want = []
            for chunk, diffs in _gap_stacks(c, ns, ritt, gap):
                norms = linalg.op_norms(diffs.reshape(-1, dim, dim))
                want.append((chunk, [norms[i:i + len(chunk)] for i in range(0, len(norms), len(chunk))]))
            for cpus in (2, 1):
                _cpus(monkeypatch, cpus)
                assert list(_ritt_gap_sweep(c, ns, ritt, gap)) == want, (ns, ritt, gap, cpus)
    # one pool per two-CPU sweep from d = 16 on, none on one CPU
    assert len(created) == (6 if dim >= 16 else 0)
    assert all(pool._max_workers == 2 for pool in created)


@pytest.mark.parametrize("errstate", ["ignore", "raise"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_an_overflowing_sweep_raises_after_the_serial_chunks(monkeypatch, cpus, errstate):
    # 2^1024 overflows in the 16th chunk (n = 961..1024), at the Ritt step of n = 1023: the
    # SVD refuses its inf entries, or, where overflow raises, the power pass does.  Either
    # way the pooled sweep yields the serial sweep's 15 chunks first and joins its workers.
    _cpus(monkeypatch, cpus)
    c = 2.0 * np.eye(16, dtype=complex)
    error = (InvalidInputError, "operator entries must be finite")
    if errstate == "raise":
        error = (FloatingPointError, "overflow")
    before, got = threading.active_count(), []
    with np.errstate(over=errstate, invalid="ignore"), pytest.raises(error[0], match=error[1]):
        for chunk, (ritts,) in _ritt_gap_sweep(c, range(1, 4097), gap=False):
            got.append((chunk, ritts))
    assert [chunk for chunk, _ in got] == [range(lo, lo + 64) for lo in range(1, 961, 64)]
    assert got[-1][1][-1] == 2.0 ** 960  # ||2^960 - 2^961||
    assert threading.active_count() == before


def test_closing_a_pooled_sweep_leaves_no_worker_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    created = _recorded_executors(monkeypatch)
    before = threading.active_count()
    sweep = _ritt_gap_sweep(ensembles.random_contraction(16, 5), range(1, 4097))
    chunk, _ = next(sweep)
    assert chunk == range(1, 65) and threading.active_count() > before
    sweep.close()
    assert len(created) == 1 and threading.active_count() == before


@pytest.mark.parametrize("cpus, dim", [(1, 16), (1, 32), (4, 15), (4, 4)])
def test_a_serial_sweep_creates_no_executor(monkeypatch, cpus, dim):
    _cpus(monkeypatch, cpus)
    created = _recorded_executors(monkeypatch)
    c = ensembles.random_contraction(dim, 5)
    assert len(list(_ritt_gap_sweep(c, range(1, 200)))) == 4
    assert harness._sweep_workers(dim) == 1 and created == []


_NAN, _INF = float("nan"), math.inf


@pytest.mark.parametrize(
    "ns, t, empirical, bound, verdicts",
    [
        # bound 0 with empirical 0: ratio 0.0, passes
        ([1, 2], 0.0, [0.0, 0.0], [0.0, 0.0], [(0.0, True), (0.0, True)]),
        # bound 0 with empirical > 0: ratio inf, passes only within ABS_SLACK
        ([3, 4], 0.5, [1e-3, 5e-11], [0.0, 0.0], [(_INF, False), (_INF, True)]),
        # a NaN empirical or bound
        ([5, 6], 1.0, [_NAN, 0.5], [1.0, _NAN], [(_NAN, False), (_INF, False)]),
        # passes only through the slack
        ([7], 2.0, [1.0 + 5e-9], [1.0], [(1.0 + 5e-9, True)]),
        # NumPy arrays, and a negative bound
        (np.arange(1, 4), np.float64(0.1), np.array([0.2, 2.0, 0.0]), np.array([1.0, 1.0, -1.0]),
         [(0.2, True), (2.0, False), (0.0, False)]),
        ([np.int64(8)], np.float64(3.0), [np.float64(0.25)], [np.float64(0.5)], [(0.5, True)]),
    ],
    ids=["zero-zero", "zero-bound", "nan", "slack-only", "numpy-arrays", "numpy-scalars"],
)
def test_make_record_cells_have_python_fields(ns, t, empirical, bound, verdicts):
    got = [make_record("x/d000", n, t, e, b) for n, e, b in zip(ns, empirical, bound)]
    # the same cells given as Python scalars
    want = [make_record("x/d000", int(n), float(t), float(e), float(b))
            for n, e, b in zip(ns, empirical, bound)]
    # repr, since a NaN field makes == False
    assert repr(got) == repr(want)
    assert repr([(r.ratio, r.passed) for r in got]) == repr(verdicts)
    types = [str, int, float, float, float, float, bool]
    assert all([type(getattr(r, name)) for name in r._fields] == types for r in got + want)
    assert report.emit_report(got, "json") == report.emit_report(want, "json")
    assert report.emit_report(got, "csv") == report.emit_report(want, "csv")


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


@pytest.mark.parametrize(("kind", "pairs"), [("dunford_segal", 10 * 2 + 90 * 2), ("ritt", 10 * 2)])
def test_default_configs_fit_at_the_first_polygon_level(monkeypatch, kind, pairs):
    # every outer polygon of a default run fits at its first, the quadrilateral
    # at D(alpha)'s two tangent normals, so each of the 90 steps of
    # dunford_segal (10 draws, n = 1, 2, ..., 256) and each of the 10 ritt
    # draws solves 2 (matrix, angle) pairs; each dunford_segal generator adds
    # its 2 edge normals.  The 16-gons took 740 and 80 pairs, the flat
    # polygons 2900 and 1280.
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: sizes.append(len(h)) or eigvalsh(h))
    run_experiment(ExperimentConfig(kind))
    assert sum(sizes) == pairs


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 1.0, 1.3, 1.5])
def test_dunford_segal_certifies_every_step_at_angles_off_the_polygon_normals(monkeypatch, alpha):
    # no normal 2 pi j / k of the uniform polygons is a tangent normal
    # +-(pi/2 - alpha) of D(alpha) at these angles, so none of them fits at the
    # vertex 1, where the steps e^{-(t/n) A} crowd; the 16...256 ladder alone
    # left out 47, 34, 29, 15, 4 and 8 of the 90 steps
    proved = []
    check = numrange.quasi_sectorial

    def spy(stack, alpha):
        verdicts = check(stack, alpha)
        proved.extend(c for c, ok in zip(stack, verdicts) if ok)
        return verdicts

    monkeypatch.setattr(numrange, "quasi_sectorial", spy)
    result = run_experiment(ExperimentConfig("dunford_segal", alpha=alpha))
    assert result.summary["certification_failures"] == 0
    assert len(result.records) == 90 == len(proved)
    if alpha == 0.3:
        # every proved step passes the inside sweep too
        for c in proved:
            points = numrange.numerical_range_boundary(c, 256)
            assert np.max(numrange.distance_to_D_alpha(points, alpha)) <= TOL_GEO


def counting(monkeypatch, module, name):
    """Record the first argument of every call of module.name, which still runs."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda first, *rest: calls.append(first) or fn(first, *rest))
    return calls


def test_dunford_segal_checks_each_chunk_of_the_run_as_one_stack(monkeypatch):
    config = ExperimentConfig("dunford_segal", dim=4, trials=3, nmax=64, ts=(0.5, 2.0))
    expected = run_experiment(config)
    checks = counting(monkeypatch, numrange, "quasi_sectorial")
    norms = counting(monkeypatch, linalg, "op_norms")
    result = run_experiment(config)
    assert result.records == expected.records and result.summary == expected.summary
    # 3 draws x 2 values of t x the 7 steps of n = 1, 2, ..., 64: one chunk of 42
    assert [c.shape for c in checks] == [(42, 4, 4)]
    assert [len(stack) for stack in norms] == [42]  # one norm column
    # 3 x 2 x 70 = 420 steps of n = 1, ..., 70 go in chunks of _NORM_CHUNK = 64
    # steps and the rest, across the (draw, t) edges
    checks.clear()
    norms.clear()
    result = run_experiment(dataclasses.replace(config, nmax=70, n_mode="all"))
    assert [r.n for r in result.records] == list(range(1, 71)) * 6
    assert [c.shape for c in checks] == [(64, 4, 4)] * 6 + [(36, 4, 4)]
    assert [len(stack) for stack in norms] == [64] * 6 + [36]


def test_dunford_segal_keeps_order_and_counts_when_steps_fail(monkeypatch):
    # fail every third step check: records and failures skip those steps
    config = ExperimentConfig("dunford_segal", dim=3, trials=2, nmax=32, ts=(1.0, 3.0))
    check = numrange.quasi_sectorial
    full = run_experiment(config)
    monkeypatch.setattr(
        numrange, "quasi_sectorial",
        lambda c, alpha: [ok and j % 3 != 1 for j, ok in enumerate(check(c, alpha))],
    )
    result = run_experiment(config)
    kept = [r for j, r in enumerate(full.records) if j % 6 % 3 != 1]
    assert result.records == kept
    assert result.summary["certification_failures"] == 8


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
        lambda c, alpha: [ok and i % 2 == 0 for i, ok in enumerate(check(c, alpha))],
    )
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 3
    even = ("d000", "d002", "d004", "d006")
    assert result.records == [r for r in full.records if r.experiment_id.split("/")[1] in even]


@pytest.mark.parametrize("kind", ["chernoff_product", "trotter_product", "euler", "dunford_segal"])
def test_pair_kinds_take_one_power_stack_per_chunk_of_the_run(monkeypatch, kind):
    config = ExperimentConfig(kind)
    expected = run_experiment(config)
    powers = counting(monkeypatch, linalg, "mat_pow")
    result = run_experiment(config)
    assert result.records == expected.records and result.summary == expected.summary
    assert result.summary.get("certification_failures", 0) == 0
    # the 10 draws x 9 steps of n = 1, 2, ..., 256 of a default run: 90 steps
    # in a chunk of _NORM_CHUNK = 64 and one of the other 26; dunford_segal
    # compares only the partners e^{n(Phi - 1)}, and takes no power
    assert [p.shape for p in powers] == ([] if kind == "dunford_segal" else [(64, 8, 8), (26, 8, 8)])


def test_chernoff_product_takes_one_call_per_kernel_per_chunk_of_the_run(monkeypatch):
    config = ExperimentConfig("chernoff_product", dim=4, trials=3, nmax=80, ts=(0.5, 2.0), n_mode="all")
    expected = run_experiment(config)
    calls = {name: counting(monkeypatch, linalg, name) for name in ("expm", "inverse", "op_norms")}
    result = run_experiment(config)
    assert result.records == expected.records and result.summary == expected.summary
    # one expm for the e^{-tA} of all 6 (draw, t), then the 480 steps in 7
    # chunks of 64 and one of 32, each with one inverse for the steps, one
    # expm for the partners and one op_norms for 3 columns
    chunks = [(64, 4, 4)] * 7 + [(32, 4, 4)]
    assert [p.shape for p in calls["expm"]] == [(6, 4, 4), *chunks]
    assert [p.shape for p in calls["inverse"]] == chunks
    assert [len(stack) for stack in calls["op_norms"]] == [3 * 64] * 7 + [3 * 32]


@pytest.mark.parametrize("family", ["resolvent", "semigroup", "trotter"])
def test_step_chunk_members_equal_their_own_draw_and_t(family):
    # 3 draws x 3 values of t x n = 1, ..., 30: 270 steps in chunks of 64, 64,
    # 64, 64 and 14 that cross (draw, t) edges; each member's step, power,
    # partner, e^{-tA} and norm are the ones its (draw, t) gives alone
    config = ExperimentConfig("trotter_product", dim=4, trials=3, ts=(0.0, 0.5, 2.0))
    if family == "trotter":
        draws = [(f"d{i}", a + b, (a, b)) for i, a, b, _ in _draws(config, _split_pair)[0]]
        make = approximants.trotter_family
    else:
        draws = [(f"d{i}", a, (a,)) for i, a in _draws(config, _sectorial)[0]]
        make = getattr(approximants, f"{family}_family")
    ns = list(range(1, 31))
    seen, sizes = [], []
    for cells, steps, refs in _step_chunks(draws, make, config.ts, ns):
        sizes.append(len(cells))
        chunk_ns = [n for *_, n in cells]
        powers = approximants.chernoff_power(steps, chunk_ns)
        partners = approximants.chernoff_exp(steps, chunk_ns)
        norms = linalg.op_norms(powers - partners)
        for j, (i, rid, t, n) in enumerate(cells):
            rid0, a, parts = draws[i]
            assert rid == f"{rid0}/t{t:g}"
            step = make(*parts)(t / n)
            assert np.array_equal(steps[j], step)
            assert np.array_equal(refs[j], approximants.semigroup_family(a)(t))
            power = approximants.chernoff_power(step, n)
            partner = approximants.chernoff_exp(step, n)
            assert np.array_equal(powers[j], power)
            assert np.array_equal(partners[j], partner)
            assert norms[j] == linalg.op_norm(power - partner)
            seen.append((i, t, n))
    assert sizes == [64, 64, 64, 64, 14]
    assert seen == [(i, t, n) for i in range(3) for t in config.ts for n in ns]
    assert list(_step_chunks([], make, config.ts, ns)) == []


def test_step_chunks_take_the_semigroups_in_blocks_of_64_draws_and_t(monkeypatch):
    # 33 draws x 2 values of t = 66 (draw, t): their e^{-tA} come in blocks of
    # 64 and 2, so a long run holds one block at a time; each is the
    # semigroup of its own (draw, t), bit for bit
    config = ExperimentConfig("euler", dim=2, trials=33)
    draws = [(f"d{i}", a, (a,)) for i, a in _draws(config, _sectorial)[0]]
    ts, ns = (0.5, 2.0), [1, 2]
    expected = {
        (i, t): approximants.semigroup_family(a)(t) for i, (_, a, _) in enumerate(draws) for t in ts
    }
    calls = counting(monkeypatch, linalg, "expm")
    sizes = []
    for cells, _, refs in _step_chunks(draws, approximants.resolvent_family, ts, ns):
        sizes.append(len(cells))
        for (i, _, t, _), ref in zip(cells, refs):
            assert np.array_equal(ref, expected[i, t])
    assert sizes == [64, 64, 4]
    assert [c.shape for c in calls] == [(64, 2, 2), (2, 2, 2)]


PAIR_SWEEPS = {  # kind: the family and the columns its runner sends to _pair_sweep
    "chernoff_product": (approximants.resolvent_family, _product_columns),
    "trotter_product": (approximants.trotter_family, _power_error),
    "euler": (approximants.resolvent_family, _power_error),
    "euler_rate": (approximants.resolvent_family, _power_error),
    "dunford_segal": (approximants.semigroup_family, _partner_columns),
}


@pytest.mark.parametrize("kind", sorted(PAIR_SWEEPS))
def test_pair_sweep_matches_the_runners(kind):
    # each record's empirical is the first norm _pair_sweep gives its (draw, t, n),
    # bit for bit and in the same order; 420 steps cross chunk and (draw, t) edges
    config = ExperimentConfig(kind, dim=4, trials=3, nmax=70, ts=(0.5, 2.0), n_mode="all")
    if kind == "trotter_product":
        pairs, _ = _draws(config, _split_pair)
        draws = [(f"{kind}/{label}/d{i:03d}", a + b, (a, b)) for i, a, b, label in pairs]
    else:
        check = None if kind == "chernoff_product" else numrange.sectorial
        draws = [(f"{kind}/d{i:03d}", a, (a,)) for i, a in _draws(config, _sectorial, check)[0]]
    alpha = config.alpha if kind == "dunford_segal" else None
    family, columns = PAIR_SWEEPS[kind]
    sweep = _pair_sweep(draws, family, config.ts, _n_grid(config), columns, alpha)
    expected = [(rid, n, t, norms[0]) for (_, rid, t, n), norms in sweep]
    records = run_experiment(config).records
    assert len(expected) == 3 * 2 * 70
    assert [(r.experiment_id, r.n, r.t, r.empirical) for r in records] == expected


def test_dunford_segal_keeps_a_draw_and_t_whose_steps_all_fail(monkeypatch):
    # 2 draws x 2 values of t x the 6 steps of n = 1, 2, ..., 32 go in one
    # chunk; fail the 6 steps of (d001, t = 1): the others keep their records
    config = ExperimentConfig("dunford_segal", dim=3, trials=2, nmax=32, ts=(1.0, 3.0))
    full = run_experiment(config)
    check = numrange.quasi_sectorial
    monkeypatch.setattr(
        numrange, "quasi_sectorial",
        lambda c, alpha: [ok and not 12 <= j < 18 for j, ok in enumerate(check(c, alpha))],
    )
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 6
    rid = "dunford_segal/d001/t1"
    assert result.records == [r for r in full.records if r.experiment_id != rid]


def test_poisson_split_builds_each_window_once():
    # the window cache holds the capped n grid whole: 128 builds for n = 1, ..., 128
    config = ExperimentConfig("poisson_split", trials=10, nmax=128, n_mode="all", ts=(1.5, 3.0))
    poisson._pmf_window.cache_clear()
    run_experiment(config)
    assert poisson._pmf_window.cache_info().misses == 128


def test_tnk_sweep_takes_one_stack_per_kernel_per_draw(monkeypatch):
    config = ExperimentConfig("tnk_equivalence", dim=4, trials=2, nmax=64)
    expected = run_experiment(config)
    calls = {name: counting(monkeypatch, linalg, name) for name in ("expm", "inverse", "op_norms")}
    result = run_experiment(config)
    assert result.records == expected.records and result.summary == expected.summary
    # k_max = 6: (1 + A)^{-1} (the family inverts its s > 0 members as a
    # stack, here of one), the steps Phi(2^-k) and (1 + X_s)^{-1}; e^{-tA} and e^{-t X_s}
    assert [p.shape for p in calls["inverse"]] == [(1, 4, 4), (6, 4, 4), (6, 4, 4)] * 2
    assert [p.shape for p in calls["expm"]] == [(4, 4), (6, 4, 4)] * 2
    assert [len(stack) for stack in calls["op_norms"]] == [12] * 2


def test_poisson_split_checks_and_powers_each_draw_once(monkeypatch):
    config = ExperimentConfig("poisson_split", dim=4, trials=3, nmax=128, ts=(1.5, 3.0))
    expected = run_experiment(config)
    grids = []
    split = poisson.chernoff_split_sum
    monkeypatch.setattr(
        poisson, "chernoff_split_sum", lambda c, x, n, eps: grids.append(n) or split(c, x, n, eps)
    )
    norms = counting(monkeypatch, linalg, "op_norm")
    result = run_experiment(config)
    assert result.records == expected.records and result.summary == expected.summary
    # one call per draw for the grid n = 1, 2, ..., 64, and per draw one
    # spectral norm to scale the draw and one to check it is a contraction
    assert grids == [[1, 2, 4, 8, 16, 32, 64]] * 3
    assert len(norms) == 2 * 3


@pytest.mark.parametrize("kind", ["euler", "euler_rate", "dunford_segal"])
def test_generator_draws_are_checked_in_one_stack(monkeypatch, kind):
    checks = counting(monkeypatch, numrange, "sectorial")
    result = run_experiment(ExperimentConfig(kind))
    # the 10 generators of a default run, dim 8, in one call
    assert [c.shape for c in checks] == [(10, 8, 8)]
    assert result.summary["certification_failures"] == 0


@pytest.mark.parametrize("kind", ["euler", "dunford_segal"])
def test_generator_draws_that_fail_are_dropped_and_counted(monkeypatch, kind):
    config = ExperimentConfig(kind, dim=4, trials=5, nmax=16, ts=(0.5, 2.0))
    full = run_experiment(config)
    assert full.summary["certification_failures"] == 0
    # fail the odd generators: their records go, and they are counted
    check = numrange.sectorial
    monkeypatch.setattr(
        numrange, "sectorial",
        lambda a, alpha: [ok and i % 2 == 0 for i, ok in enumerate(check(a, alpha))],
    )
    result = run_experiment(config)
    assert result.summary["certification_failures"] == 2
    even = ("d000", "d002", "d004")
    assert result.records == [r for r in full.records if r.experiment_id.split("/")[1] in even]
